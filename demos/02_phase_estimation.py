"""
Phase estimation reads eigenvalues into a register
==================================================

For a symmetric matrix with small integer eigenvalues, phase estimation with
an n-bit register maps |0..0>|u_k> exactly to |lambda_k>|u_k>.  Superposed
eigenvectors come out entangled with their eigenvalues, which is what the
filtering pipeline relies on.
"""

import numpy as np

from qpcasim import PhaseEstimationSpec, StateVector, build_phase_estimation, run
from qpcasim.sim import ROUNDOFF

A = np.array([[1.5, 0.5], [0.5, 1.5]])  # eigenvalues 2 and 1
spec = PhaseEstimationSpec(A, eig_bits=2)
print("spectrum:", spec.eigenvalues)

# Register on qubits 0..1, data on qubit 2.
pe = build_phase_estimation(spec, lam_qubits=(0, 1), target_qubits=(2,))

u1 = np.array([1.0, 1.0]) / np.sqrt(2)   # eigenvalue 2
u2 = np.array([1.0, -1.0]) / np.sqrt(2)  # eigenvalue 1


def estimate(u):
    start = StateVector(np.kron([1.0, 0.0, 0.0, 0.0], u))
    final = run(start, pe)
    probs = final.probabilities().reshape(4, 2).sum(axis=1)
    return probs


print("register distribution for u1:", np.round(estimate(u1), 6))
print("register distribution for u2:", np.round(estimate(u2), 6))

# A mixture of eigenvectors entangles the register with the data qubit:
# measuring the register collapses the data onto the matching eigenvector.
mix = 0.6 * u1 + 0.8 * u2
print("register distribution for 0.6*u1 + 0.8*u2:", np.round(estimate(mix), 6))

# Running the inverse brings the input back, eigenvalue register cleared,
# up to round-off.
start = StateVector(np.kron([1.0, 0.0, 0.0, 0.0], mix))
round_trip = run(run(start, pe), pe.inverse())
error = np.max(np.abs(round_trip.amps - start.amps))
print("round trip error:", f"below {ROUNDOFF:g}" if error < ROUNDOFF else error)
