"""Circuit builders: phase estimation, binary-tree state preparation."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .sim import Circuit, GateOp, _check_unitary

# Largest |A - A^T| entry accepted from a matrix said to be symmetric, by
# every entry point: the CLI parser, HermitianInput and PhaseEstimationSpec.
SYMMETRY_ATOL = 1e-9


def symmetric_matrix(matrix) -> np.ndarray:
    """``matrix`` as a new float64 array, checked square, finite (first: every
    tolerance test is false for NaN) and symmetric within ``SYMMETRY_ATOL``."""
    m = np.array(matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix shape {m.shape} is not square")
    if not np.isfinite(m).all():
        i, j = np.argwhere(~np.isfinite(m))[0]
        raise ValueError(f"matrix entry ({i},{j}) is {float(m[i, j])}, not a finite number")
    if np.max(np.abs(m - m.T)) > SYMMETRY_ATOL:
        raise ValueError("matrix is not symmetric")
    return m


class SpectralPrecisionWarning(UserWarning):
    """Eigenvalues fall outside, or between, exact register values."""


@dataclass(frozen=True, eq=False)
class PhaseEstimationSpec:
    """A real symmetric matrix whose eigenvalues feed an n-bit register.

    Phase estimation with ``eig_bits`` register qubits writes lambda as a
    binary fraction of 2**eig_bits, so integer eigenvalues in
    [0, 2**eig_bits) land exactly on register basis states.
    """

    matrix: np.ndarray
    eig_bits: int

    def __post_init__(self):
        m = symmetric_matrix(self.matrix)
        k = m.shape[0].bit_length() - 1
        if (1 << k) != m.shape[0]:
            raise ValueError(f"matrix dimension {m.shape[0]} is not a power of two")
        if self.eig_bits < 1:
            raise ValueError("eig_bits must be >= 1")
        eigvals, eigvecs = np.linalg.eigh(m)
        if eigvals.min() < -1e-9 or eigvals.max() >= (1 << self.eig_bits):
            warnings.warn(
                f"eigenvalues span [{eigvals.min():.4g}, {eigvals.max():.4g}], outside "
                f"[0, {1 << self.eig_bits}); register readout will wrap",
                SpectralPrecisionWarning,
                stacklevel=2,
            )
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "_eigvals", eigvals)
        object.__setattr__(self, "_eigvecs", eigvecs)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def num_target_qubits(self) -> int:
        return self.dim.bit_length() - 1

    @property
    def scale(self) -> int:
        return 1 << self.eig_bits

    @property
    def eigenvalues(self) -> np.ndarray:
        return self._eigvals.copy()


def build_phase_estimation(
    spec: PhaseEstimationSpec,
    lam_qubits,
    target_qubits,
    num_qubits: int | None = None,
) -> Circuit:
    """Phase estimation writing eigenvalues of ``spec.matrix`` into ``lam_qubits``.

    On input |0...0>|u_k> the circuit produces |lambda_k>|u_k> exactly when
    lambda_k is an integer in [0, 2**eig_bits); superpositions of eigenvectors
    come out entangled with their eigenvalue register states.  The register
    reads lambda with ``lam_qubits[0]`` as its most significant bit.

    The circuit has 5 gates for any n = eig_bits: the QFT F on the
    register; V^T on the targets, V the eigenvectors of A; one diagonal
    phase gate on register and targets, a (2**(n+k), 1, 1) block stack
    whose entry (b, k) is exp(2 pi i b lambda_k / 2**n); V; and F's dagger,
    the inverse QFT.  The middle three are sum_b |b><b| (x) U**b with
    U = exp(2 pi i A / 2**n), the n controlled powers of textbook phase
    estimation in one pass.  F takes the zero register to the uniform
    superposition, as the textbook layer of Hadamards does, so the two
    circuits agree on every input whose register is |0...0>; they differ
    elsewhere.  The register, then the targets, must be consecutive qubits
    in ascending order, as the phase gate acts on both.

    Each call builds F, a sign that needs no unitarity test, and checks
    V^T and the phase gate; V and F's dagger reuse their checked matrices.
    """
    lam_qubits = tuple(int(q) for q in lam_qubits)
    target_qubits = tuple(int(q) for q in target_qubits)
    if len(lam_qubits) != spec.eig_bits:
        raise ValueError(
            f"{len(lam_qubits)} register qubits given but spec asks for {spec.eig_bits}"
        )
    if (1 << len(target_qubits)) != spec.dim:
        raise ValueError(
            f"{len(target_qubits)} target qubits cannot hold a dimension-{spec.dim} matrix"
        )
    if set(lam_qubits) & set(target_qubits):
        raise ValueError("register and target qubits overlap")
    if num_qubits is None:
        num_qubits = max(lam_qubits + target_qubits) + 1

    fourier = GateOp(1, lam_qubits, label="QFT")
    to_eigenbasis = GateOp(spec._eigvecs.T, target_qubits, label="V^T")
    phases = np.exp(2j * np.pi * np.outer(np.arange(spec.scale), spec._eigvals) / spec.scale)
    powers = GateOp(phases.reshape(-1, 1, 1), lam_qubits + target_qubits, label="c-U^b")
    gates = (fourier, to_eigenbasis, powers, to_eigenbasis.dagger(), fourier.dagger())
    return Circuit(num_qubits, gates)


@dataclass(eq=False)
class StatePrepTree:
    """Masses and rotation angles of the amplitude binary tree.

    ``node_masses[l]`` holds the 2**l subtree masses at depth l (depth 0 is
    the root, depth m the squared leaf amplitudes).  ``level_angles[l]``
    drives the rotations splitting depth-l nodes; the deepest level carries
    signed angles so negative leaf amplitudes come out of real rotations.
    """

    leaf_values: np.ndarray
    node_masses: list[np.ndarray]
    level_angles: list[np.ndarray]


def state_prep_tree(vector) -> StatePrepTree:
    v = np.array(vector, dtype=np.float64).reshape(-1)
    m = v.size.bit_length() - 1
    if v.size < 2 or (1 << m) != v.size:
        raise ValueError(f"vector length {v.size} is not a power of two >= 2")
    if not np.isfinite(v).all():
        i = int(np.flatnonzero(~np.isfinite(v))[0])
        raise ValueError(f"vector entry {i} is {v[i]}, not a finite number")
    nrm = float(np.linalg.norm(v))
    if nrm < 1e-12:
        raise ValueError("cannot prepare the zero vector")
    v = v / nrm

    masses = [v * v]
    for _ in range(m):
        masses.append(masses[-1][0::2] + masses[-1][1::2])
    masses.reverse()  # masses[l] now has 2**l entries

    angles = []
    for level in range(m):
        child = masses[level + 1]
        if level < m - 1:
            theta = 2.0 * np.arctan2(np.sqrt(child[1::2]), np.sqrt(child[0::2]))
        else:
            theta = 2.0 * np.arctan2(v[1::2], v[0::2])
        angles.append(theta)
    return StatePrepTree(leaf_values=v, node_masses=masses, level_angles=angles)


def build_state_prep(vector, qubits=None, num_qubits: int | None = None) -> Circuit:
    """Circuit taking |0...0> to the normalized ``vector`` on ``qubits``.

    One uniformly controlled Ry per binary-tree level (Mottonen et al.,
    quant-ph/0407010): the level-l gate targets ``qubits[:l+1]`` and holds
    one 2x2 rotation block per value of the first l qubits, the path from
    the root.  Levels whose angles are all zero are dropped, so preparing a
    basis state costs no gates.  The 2**m - 1 blocks of all levels are built
    in one pass and checked by one unitarity test.
    """
    tree = state_prep_tree(vector)
    m = len(tree.level_angles)
    if qubits is None:
        qubits = tuple(range(m))
    else:
        qubits = tuple(int(q) for q in qubits)
        if len(qubits) != m:
            raise ValueError(f"need {m} qubits for {1 << m} amplitudes, got {len(qubits)}")
    if num_qubits is None:
        num_qubits = max(qubits) + 1

    half = np.concatenate(tree.level_angles) / 2  # level l: blocks 2**l - 1 .. 2**(l+1) - 2
    c, s = np.cos(half), np.sin(half)
    blocks = np.stack([c, -s, s, c], axis=-1).reshape(-1, 2, 2)
    _check_unitary(blocks)
    circ = Circuit(num_qubits)
    for level, thetas in enumerate(tree.level_angles):
        if np.any(thetas):
            gate_blocks = blocks[(1 << level) - 1 : (2 << level) - 1]
            label = f"UCRy(level {level})"
            circ.append(GateOp._trusted(gate_blocks, qubits[: level + 1], label))
    return circ
