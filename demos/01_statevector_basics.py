"""
Statevector simulator basics
============================

States, gates, block stacks, post-selection, and sampling.  Qubit 0 is the most
significant bit of the basis index, so on three qubits |100> sits at index 4.
"""

import numpy as np

from qpcasim import (
    Circuit,
    GateOp,
    StateVector,
    apply,
    hadamard,
    post_select,
    run,
    ry,
    sample,
)

# A Hadamard puts one qubit into an equal superposition.
state = apply(StateVector.zero(1), hadamard(0))
print("H|0> =", np.round(state.amps, 4))

# A controlled gate is a stack of blocks: the leading target selects the
# block, so this CNOT applies I when qubit 0 reads 0 and X when it reads 1.
X = np.array([[0, 1], [1, 0]])
cnot = GateOp([np.eye(2), X], (0, 1), label="CNOT")
bell = run(StateVector.zero(2), Circuit(2, [hadamard(0), cnot]))
print("Bell state:", np.round(bell.amps, 4))

# Ry rotations are real, which keeps every amplitude in this package real.
theta = 2 * np.arctan2(0.8, 0.6)
state = apply(StateVector.zero(1), ry(theta, 0))
print("Ry gives [0.6, 0.8]:", np.round(state.amps, 4))

# Post-selection projects one qubit onto an outcome and renormalizes.
prob, collapsed = post_select(bell, 0, 1)
print(f"P(qubit 0 = 1) = {prob:.4f}, collapsed =", np.round(collapsed.amps, 4))

# Sampling draws multinomial counts; the seed makes runs reproducible.
counts = sample(bell, shots=8192, seed=1)
print("8192 shots of the Bell state:", counts)
