"""
Principal component filtering, 2x2 input
========================================

The full pipeline on A = [[1.5, 0.5], [0.5, 1.5]] (eigenvalues 2 and 1).
With tau = 1 only the top component survives: the output collapses to
u1 (x) u1 = [0.5, 0.5, 0.5, 0.5] and the run succeeds with probability
lambda_1^2 / (lambda_1^2 + lambda_2^2) = 4/5.  With tau = 0.8 both
components pass and the input state comes straight back.
"""

import numpy as np

from qpcasim import FilterParams, HermitianInput, QpcaConfig, classical_pca_oracle, run_qpca

A = HermitianInput.from_matrix([[1.5, 0.5], [0.5, 1.5]])
print("eigenvalues:", A.eigenvalues)
print("encoded input:", np.round(A.amplitude_encoding, 4))

for tau in (1.0, 0.8):
    result = run_qpca(A, QpcaConfig(tau=tau, n_bits=2))
    t, expected = classical_pca_oracle(A, FilterParams(tau, 2))
    print(f"\ntau = {tau}")
    print("  kept components:", result.kept_count, " eigenvalues:", result.kept_eigenvalues)
    print("  success probability:", round(result.success_prob, 6))
    print("  output amplitudes:", np.round(result.output_amps, 4))
    print("  classical reference:", np.round(expected, 4))
    print("  fidelity:", round(result.fidelity, 10))
    print("  eigenvalue histogram after the second read:",
          {k: round(v, 4) for k, v in result.lambda_histogram.items()})

# Raising tau above every eigenvalue leaves nothing to keep; the pipeline
# reports it as a zero-probability post-selection.
try:
    run_qpca(A, QpcaConfig(tau=2.5, n_bits=2))
except Exception as e:
    print("\ntau = 2.5 ->", type(e).__name__, "-", e)
