"""Circuit builders: phase estimation, its register-shift form for integer
spectra, binary-tree state preparation."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .filtering import SPECTRUM_ATOL
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
        # the register reads lambda within SPECTRUM_ATOL of an integer as that
        # integer, as FilterParams.keeps does, and any other lambda as itself
        near = np.rint(eigvals)
        read = np.where(np.abs(eigvals - near) <= SPECTRUM_ATOL, near, eigvals)
        if read.min() < 0 or read.max() >= (1 << self.eig_bits):
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


def _pe_wiring(spec: PhaseEstimationSpec, lam_qubits, target_qubits, num_qubits):
    """The register and target qubits as int tuples, checked against
    ``spec`` and each other, and the circuit width (default: one past the
    highest qubit)."""
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
    return lam_qubits, target_qubits, num_qubits


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

    The circuit has 5 gates for any n = eig_bits: V^T on the targets, V the
    eigenvectors of A; the QFT F on the register; one diagonal phase gate
    on register and targets, a (2**(n+k), 1, 1) block stack whose entry
    (b, k) is exp(2 pi i b lambda_k / 2**n); F's dagger, the inverse QFT;
    and V.  V^T, the phase gate and V are sum_b |b><b| (x) U**b with
    U = exp(2 pi i A / 2**n), the n controlled powers of textbook phase
    estimation in one pass; F and F's dagger act on the register alone and
    commute with V^T and V, so the circuit is F^dagger (V D V^T) F.  F
    takes the zero register to the uniform superposition, as the textbook
    layer of Hadamards does, so the two circuits agree on every input whose
    register is |0...0>; they differ elsewhere.  The register, then the
    targets, must be consecutive qubits in ascending order, as the phase
    gate acts on both.  V is the last gate, as in ``build_register_shift``,
    so a caller that applies only gates on other qubits before the inverse
    can leave V and the inverse's opening V^T out: they cancel.

    This is the general form; the pipeline runs it for spectra that are not
    integer, and ``build_register_shift``, the same unitary in three gates,
    for integer ones.

    Each call builds F, a sign that needs no unitarity test, and checks
    V^T and the phase gate; V and F's dagger reuse their checked matrices.
    """
    lam_qubits, target_qubits, num_qubits = _pe_wiring(spec, lam_qubits, target_qubits, num_qubits)
    to_eigenbasis = GateOp(spec._eigvecs.T, target_qubits, label="V^T")
    fourier = GateOp(1, lam_qubits, label="QFT")
    phases = np.exp(2j * np.pi * np.outer(np.arange(spec.scale), spec._eigvals) / spec.scale)
    powers = GateOp(phases.reshape(-1, 1, 1), lam_qubits + target_qubits, label="c-U^b")
    gates = (to_eigenbasis, fourier, powers, fourier.dagger(), to_eigenbasis.dagger())
    return Circuit(num_qubits, gates)


def build_register_shift(
    spec: PhaseEstimationSpec,
    lam_qubits,
    target_qubits,
    num_qubits: int | None = None,
) -> Circuit:
    """Phase estimation of an integer spectrum in three gates: V^T on the
    targets, a table add of round(lambda_k) mod 2**n into the register
    keyed by the eigen-index k on the targets, and V.

    ``build_phase_estimation``'s V^T, F, D, F^dagger, V is
    V (F^dagger D F) V^T, as F acts on the register and V on the targets;
    for eigen-index k, F^dagger D_k F maps |j> to |j + lambda_k mod 2**n>
    when lambda_k is an integer, since phase estimation of an integer phase
    is exact (Cleve, Ekert, Macchiavello and Mosca, quant-ph/9708016).  So
    the two circuits are one unitary, on every register value, for a
    spectrum of integers; this one does no arithmetic on amplitudes in the
    register and keeps a state's register values as few as its distinct
    eigenvalues.  The wiring is ``build_phase_estimation``'s, and so is
    the closing V.

    Raises ``ValueError`` unless every eigenvalue is within
    ``SPECTRUM_ATOL`` of an integer, the register value it is read as.
    """
    lam_qubits, target_qubits, num_qubits = _pe_wiring(spec, lam_qubits, target_qubits, num_qubits)
    shifts = np.rint(spec._eigvals)
    off = np.max(np.abs(spec._eigvals - shifts))
    if not off <= SPECTRUM_ATOL:
        raise ValueError(
            f"an eigenvalue lies {off:.3g} from the nearest integer, more than {SPECTRUM_ATOL:g}"
        )
    to_eigenbasis = GateOp(spec._eigvecs.T, target_qubits, label="V^T")
    shift = GateOp(shifts.astype(np.int64), lam_qubits + target_qubits, label="+lambda")
    return Circuit(num_qubits, (to_eigenbasis, shift, to_eigenbasis.dagger()))


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
