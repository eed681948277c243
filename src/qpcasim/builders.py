"""Circuit builders: phase estimation, binary-tree state preparation."""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .sim import Circuit, GateOp, hadamard

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


def _exp_matrices(spec: PhaseEstimationSpec, powers) -> np.ndarray:
    """exp(2*pi*i * A * 2**p / 2**eig_bits) for each p in ``powers``, as one
    (len(powers), dim, dim) stack from one batched product over the
    eigendecomposition."""
    weights = np.left_shift(1, np.asarray(powers, dtype=np.int64))[:, None]
    phases = np.exp(2j * np.pi * spec._eigvals * weights / spec.scale)
    return (spec._eigvecs * phases[:, None, :]) @ spec._eigvecs.T


@functools.lru_cache
def _register_gates(qubits: tuple[int, ...]) -> tuple[tuple[GateOp, ...], tuple[GateOp, ...]]:
    """The gates that depend only on a register, wired onto ``qubits``: a
    Hadamard per qubit, and the semiclassical QFT (Griffiths & Niu,
    quant-ph/9511007) without its output bit reversal.

    Qubit i of the QFT gets one uniformly controlled single-qubit gate on
    targets (i+1, ..., n-1, i): its block for the value c of qubits
    i+1 .. n-1 is the Hadamard fused with every controlled phase those
    qubits apply to qubit i, diag(1, e^(2 pi i c / 2**(n-i))) H.  The n
    block stacks together hold 2**n - 1 2x2 matrices; applied in order they
    are the Fourier transform followed by a reversal of the register's bits.

    Built and checked once per register placement, each with its inverse
    kept (H is its own), so phase estimation's inverse QFT is the kept
    daggers and a circuit's ``inverse`` reuses them.  The circuit width is
    not part of the key: a gate keeps a kernel plan per width it runs at.
    """
    n = len(qubits)
    s = 1 / math.sqrt(2)
    h = hadamard(0)
    hadamards = tuple(h.remap((q,)) for q in qubits)
    qft = []
    for i in range(n):
        # block c, c spelled by qubits i+1 .. n-1, is diag(1, e^(i phi(c))) H
        # with phi(c) = 2 pi c / 2**(n-i): the sum of the controlled phases
        # 2 pi / 2**(j-i+1) of every qubit j > i that reads 1 in c
        phases = np.exp(2j * math.pi * np.arange(1 << (n - 1 - i)) / (1 << (n - i)))
        blocks = np.empty((phases.size, 2, 2), dtype=np.complex128)
        blocks[:, 0, :] = s
        blocks[:, 1, 0] = s * phases
        blocks[:, 1, 1] = -s * phases
        qft.append(GateOp(blocks, qubits[i + 1 :] + qubits[i : i + 1], label=f"QFT(qubit {i})"))
    for op in hadamards + tuple(qft):
        op.keep_inverse()
    return hadamards, tuple(qft)


def build_phase_estimation(
    spec: PhaseEstimationSpec,
    lam_qubits,
    target_qubits,
    num_qubits: int | None = None,
) -> Circuit:
    """Phase estimation writing eigenvalues of ``spec.matrix`` into ``lam_qubits``.

    On input |0...0>|u_k> the circuit produces |lambda_k>|u_k> exactly when
    lambda_k is an integer in [0, 2**eig_bits); superpositions of eigenvectors
    come out entangled with their eigenvalue register states.

    The circuit has 3n gates for n = eig_bits: a Hadamard per register
    qubit, one controlled exp(2 pi i A 2**i / 2**n) per register qubit i,
    and the inverse of the QFT's n uniformly controlled gates, taken as
    their kept daggers in reverse order.  Qubit i carries weight 2**i as a
    control: that labelling absorbs the QFT's output bit reversal, so the
    inverse QFT needs none, and the register still reads lambda with qubit
    0 as its most significant bit.  As a unitary the circuit is textbook
    phase estimation after a reversal of the register's bits, which leaves
    |0...0> unchanged.  The Hadamards and the QFT gates depend only on the register; they are
    built, checked and inverted once per register placement and shared, so
    the circuit's ``inverse`` reuses them.  Each call builds only the n
    controlled exponentials, from one batched product, checked together by
    one unitarity test.
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

    n = spec.eig_bits
    hadamards, qft = _register_gates(lam_qubits)
    # register qubit p controls power p.  The powers in descending order and
    # the Hadamards in reverse make the same floating-point operations as the
    # textbook order (qubit i controlling power n-1-i, then the reversal) on
    # relabelled qubits, so the results agree with it bit for bit
    powers = range(n - 1, -1, -1)
    exps = GateOp.stack(
        _exp_matrices(spec, powers),
        target_qubits,
        [((lam_qubits[p], 1),) for p in powers],
        [f"c-exp(2pi.i.A.2^{p}/{spec.scale})" for p in powers],
    )
    inverse_qft = tuple(op.dagger() for op in reversed(qft))
    return Circuit(num_qubits, hadamards[::-1] + exps + inverse_qft)


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
    basis state costs no gates.
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

    circ = Circuit(num_qubits)
    for level, thetas in enumerate(tree.level_angles):
        if not np.any(thetas):
            continue
        c, s = np.cos(thetas / 2), np.sin(thetas / 2)
        blocks = np.stack([c, -s, s, c], axis=-1).reshape(-1, 2, 2)
        circ.append(GateOp(blocks, qubits[: level + 1], label=f"UCRy(level {level})"))
    return circ
