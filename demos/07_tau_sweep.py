"""
A threshold sweep on one prepared input
=======================================

The threshold tau picks how many principal components reach the output.
A ``HermitianInput`` is prepared once; its first call at a register width
prepares the state and runs the first phase estimation, and keeps that
state.  Every later call at the width, whatever its tau, starts at the
filter.  The 8x8 input below has eigenvalues 7, 5, 5, 3, 2, 1, 0, 0 in a
random basis; each tau keeps the eigenvalues above it, and the run succeeds
with probability sum_kept lambda^2 / sum_all lambda^2 (out of 113).
"""

import numpy as np

from qpcasim import HermitianInput, QpcaConfig, ZeroProbabilityOutcome, run_qpca

rng = np.random.default_rng(7)
q, r = np.linalg.qr(rng.standard_normal((8, 8)))
q = q * np.sign(np.diagonal(r))
lams = np.array([7.0, 5.0, 5.0, 3.0, 2.0, 1.0, 0.0, 0.0])
A = HermitianInput.from_matrix((q * lams) @ q.T)

print("  tau  kept eigenvalues       success probability    fidelity")
for tau in (0.5, 1.5, 2.5, 4.0, 6.0, 7.5):
    try:
        result = run_qpca(A, QpcaConfig(tau=tau, n_bits=3))
    except ZeroProbabilityOutcome:
        print(f"{tau:5}  nothing kept")
        continue
    kept = ", ".join(f"{lam:g}" for lam in np.round(result.kept_eigenvalues, 6))
    share = f"{result.success_prob:.6f} = {round(113 * result.success_prob)}/113"
    print(f"{tau:5}  {kept:22} {share:22} {result.fidelity:.6f}")
