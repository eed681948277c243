"""End-to-end principal component filtering on the statevector simulator.

The pipeline encodes a real symmetric matrix A = sum_k lambda_k u_k u_k^T as
the state sum_k sigma_k |u_k>|u_k> (sigma_k = lambda_k / ||A||_F), estimates
eigenvalues into a register, writes a shrinkage coefficient y(lambda) into a
second register, flips an ancilla wherever y != 0, uncomputes both registers,
and post-selects the ancilla.  What survives is the eigenvalue-thresholded
state  sum_{k kept} sigma_k |u_k>|u_k>  up to normalization, kept meaning
``FilterParams.keeps``.  With S the state after the flip, W the filter and P
the projection onto ancilla 1, the post-selected state is
P PE^dagger W^dagger S = PE^dagger W^dagger P S, as P commutes with gates that
do not touch the ancilla.  So every call post-selects S and uncomputes the
ancilla-1 branch alone; the ancilla-0 branch, which post-selection discards,
is never uncomputed, and its work registers are not checked.  The mode
decides only how the output is reported (``run_qpca``).  The histogram of
the kept eigenvalues, which a second phase estimation of the post-selected
state would read, is read off the register before uncomputing:
PE P PE^dagger W^dagger S = P W^dagger S, and W^dagger moves y alone, so the
histogram is the lambda marginal of P S: the ancilla-1 rows after the flip,
renormalized.

Phase estimation takes one of two forms, picked by
``HermitianInput.integer_spectrum``, the rule ``keeps`` and the oracle read
eigenvalues by.  An integer spectrum runs ``build_register_shift``: V^T, a
table add of round(lambda_k) into the register, V, which writes exactly the
register values ``keeps`` assumes and keeps the state on one row per
distinct eigenvalue.  Any other spectrum runs ``build_phase_estimation``'s
Fourier form, V^T, F, D, F^dagger, V, which spreads each eigenvalue over the
register.  Both end with V, on the targets alone, and the inverse that
``uncompute`` runs begins with V^T; between them the filter and the flip
act on the work registers alone, so the pair cancels and is never run.

A ``HermitianInput`` is immutable and keeps one slot for its latest register
width: phase estimation without its closing V, the ancilla flip, and the
state after state preparation and that circuit, which depend on the input
and that width alone.  A first call, or a call at another width, builds the
circuits and the flip, runs them from |0>, and replaces the slot; the
state-preparation circuit is dropped.  Every call continues from the slot's
state, so a sweep of tau at one width simulates the filter, the flip and
``uncompute`` only: 5 gates for an integer spectrum (the filter, the flip,
the filter's dagger, the inverse shift and V) and 7 for the Fourier form.
It builds only the filter table and gate, which its config selects, and the
daggers of the kept circuit that ``uncompute`` runs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .builders import (
    PhaseEstimationSpec,
    SpectralPrecisionWarning,
    build_phase_estimation,
    build_register_shift,
    build_state_prep,
    symmetric_matrix,
)
from .complexity import cost_proposed
from .filtering import (
    SPECTRUM_ATOL,
    FilterParams,
    FilterTable,
    build_filter_table,
    build_filter_unitary,
)
from .layout import RegisterLayout
from .sim import (
    ROUNDOFF,
    Circuit,
    GateOp,
    SimulationError,
    StateVector,
    ZeroProbabilityOutcome,
    apply,
    post_select,
    run,
    sample,
)

UNCOMPUTE_ATOL = 1e-9

# Largest block of 2**(n+m) amplitudes that run_qpca simulates.  From phase
# estimation on a state holds at most two such blocks for any spectrum; the
# filter and flip tables (2**n entries) and the phase gate (2**(n+k)) are
# smaller, and basis indices stay under 44 bits.  Either mode uncomputes the
# ancilla-1 branch alone.  For a spectrum that is not integer, a first call
# at a width peaks at 3.9 blocks of 16 * 2**(n+m) bytes (dim 16 at n = 8),
# and at 5.8 where its row keys are as large as its rows (dim 2 at n = 16
# and at n = 20): about 370 MiB at this limit.  A later call, which starts
# at the filter, peaks 1.2 to 1.9 blocks lower than a first: 2.7 and 4.0
# blocks.  An integer spectrum's register shift fills one row of 2**m
# amplitudes per distinct eigenvalue, not the block, and its calls peak at a
# fraction of a block (dim 16 at n = 12: 0.02 cold and warm); at dim 2 and
# n = 20 the 2**n entries of the filter and flip tables dominate, 1.21 to
# 1.33 blocks cold and 1.21 warm (tracemalloc, numpy 2.4).
# Between calls an input holds at most 1.625 blocks: its estimated state of
# one register width (one block), that width's flip table, 8 * 2**n bytes,
# at most an eighth of a block as m >= 2, and, for a spectrum that is not
# integer, that width's phase gate, 16 * 2**(n+m/2) bytes, at most half a
# block.
MAX_LIVE_AMPS = 2**22


class AllComponentsFiltered(Exception):
    """No eigenvalue exceeds the threshold; the filtered state is empty."""


class NoShotAccepted(ZeroProbabilityOutcome):
    """Sampled mode drew no shot with the ancilla at 1."""


class PipelineInvariantError(SimulationError):
    """An internal consistency check failed (work registers not restored,
    stray population outside the post-selected block, and the like)."""


@dataclass(frozen=True, eq=False)
class _Compiled:
    """What one register width's calls share and the input alone fixes:
    ``pe``, phase estimation without its closing V; the state after state
    preparation and ``pe``, stored split at or below the work registers
    (``RegisterLayout.work_qubits``) that the filter reads; the ancilla
    flip, which depends on the width alone; and the warnings the build
    gave, which every call repeats."""

    n_bits: int
    estimated: StateVector
    pe: Circuit
    flip: GateOp
    warned: tuple[Warning, ...]


@dataclass(frozen=True, eq=False)
class HermitianInput:
    """A real symmetric matrix with its eigendecomposition attached.

    ``eigenvectors[:, k]`` pairs with ``eigenvalues[k]``; eigenvalues are
    sorted descending.  ``integer_spectrum`` says whether every eigenvalue
    is within ``SPECTRUM_ATOL`` of an integer.  Use ``from_matrix`` to
    construct: its arrays are read-only, so an input never changes and the
    state and circuit ``run_qpca`` keeps on it never go stale.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    rank: int
    integer_spectrum: bool
    _slot: _Compiled | None = field(default=None, init=False, repr=False)

    @classmethod
    def from_matrix(cls, matrix) -> "HermitianInput":
        m = symmetric_matrix(matrix)
        eigvals, eigvecs = np.linalg.eigh(m)
        order = np.argsort(eigvals)[::-1]
        eigvals = eigvals[order]
        eigvecs = eigvecs[:, order]
        recon = (eigvecs * eigvals) @ eigvecs.T
        # eigh's error grows with the entries: 1e-9 per unit of the largest
        if np.max(np.abs(recon - m)) > 1e-9 * max(1.0, float(np.max(np.abs(m)))):
            raise PipelineInvariantError("eigendecomposition failed to reproduce the matrix")
        rank = int(np.sum(np.abs(eigvals) > 1e-12))
        integer = bool(np.all(np.abs(eigvals - np.rint(eigvals)) <= SPECTRUM_ATOL))
        for a in (m, eigvals, eigvecs):
            a.setflags(write=False)
        return cls(m, eigvals, eigvecs, rank, integer)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def amplitude_encoding(self) -> np.ndarray:
        """Row-major flattening of the matrix over its Frobenius norm.

        Equal to sum_k sigma_k (u_k tensor u_k) with sigma_k the normalized
        eigenvalues, which is the state the pipeline starts from.
        """
        nrm = float(np.linalg.norm(self.matrix))
        if nrm < 1e-12:
            raise ValueError("cannot encode the zero matrix")
        return self.matrix.reshape(-1) / nrm


@dataclass(frozen=True)
class QpcaConfig:
    """Pipeline settings: threshold, register width, and measurement mode."""

    tau: float
    n_bits: int
    mode: str = "exact"
    shots: int = 8192
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.tau < math.inf:
            raise ValueError(f"tau must be positive and finite, got {self.tau}")
        if self.n_bits < 1:
            raise ValueError(f"n_bits must be >= 1, got {self.n_bits}")
        # the smallest input, 2x2 on m = 2 data qubits, fits 2**(n+2) amplitudes
        widest = MAX_LIVE_AMPS.bit_length() - 3
        if self.n_bits > widest:
            raise ValueError(
                f"n_bits must be <= {widest}, the widest register any input can run "
                f"within {MAX_LIVE_AMPS} live amplitudes, got {self.n_bits}"
            )
        if self.mode not in ("exact", "sampled"):
            raise ValueError(f"mode must be 'exact' or 'sampled', got {self.mode!r}")
        if not 1 <= self.shots < 2**63:  # the draw counts shots in int64
            raise ValueError(f"shots must be >= 1 and <= 2**63 - 1, got {self.shots}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(eq=False)
class QpcaResult:
    """Everything the pipeline reports for one run.

    ``output_amps`` holds the post-selected data-register amplitudes (exact
    mode) or their sampled magnitude estimates; ``lambda_histogram`` maps
    eigenvalue-register integers to their probability mass in the
    post-selected state, as a second phase estimation would read it (see the
    module docstring).
    """

    success_prob: float
    output_amps: np.ndarray
    kept_count: int
    kept_eigenvalues: tuple[float, ...]
    lambda_histogram: dict[int, float]
    fidelity: float
    total_gates: int
    layout: RegisterLayout
    shots: int | None = None
    counts: dict[int, int] | None = None


def classical_pca_oracle(hin: HermitianInput, params: FilterParams) -> tuple[int, np.ndarray]:
    """Brute-force reference: keep eigenpairs ``params.keeps``, renormalize.

    Returns (number kept, expected data-register state).  Raises
    ``AllComponentsFiltered`` when nothing survives.
    """
    kept = params.keeps(hin.eigenvalues)
    if not kept.any():
        raise AllComponentsFiltered(f"no eigenvalue exceeds tau={params.tau}")
    lam, u = hin.eigenvalues[kept], hin.eigenvectors[:, kept]
    # sum_k lam_k (u_k tensor u_k) is the row-major flattening of sum_k lam_k u_k u_k^T
    vec = ((u * lam) @ u.T).reshape(-1)
    vec /= np.sqrt(sum(lam**2))
    return lam.size, vec


def fidelity(a, b) -> float:
    """|<a|b>| for unit vectors or StateVectors of equal dimension."""
    av = a.amps if isinstance(a, StateVector) else np.asarray(a, dtype=np.complex128)
    bv = b.amps if isinstance(b, StateVector) else np.asarray(b, dtype=np.complex128)
    if av.shape != bv.shape:
        raise ValueError(f"dimension mismatch: {av.shape} vs {bv.shape}")
    return float(np.abs(np.vdot(av, bv)))


def ancilla_flip_gate(layout: RegisterLayout) -> GateOp:
    """X on the ancilla for every nonzero y-register value (OR over y bits).

    A table add of (y != 0) onto the ancilla, mod 2; the flip is its own
    inverse.
    """
    flips = np.arange(1 << layout.eig_bits) != 0
    return GateOp(flips.astype(np.intp), (layout.ancilla,) + layout.y_reg, label="CU_flip")


def _work_rows(state: StateVector, layout: RegisterLayout):
    """The live rows of ``state``, read at its split or, if that is above
    the work registers, re-keyed to them: the ancilla, y and lambda values
    of each row, and the rows."""
    top = max(state._top, layout.work_qubits)
    keys, block = state.rows(top)
    anc, y, lam, _ = layout.split(keys << (state.num_qubits - top))
    return anc, y, lam, block


def _row_masses(block: np.ndarray) -> np.ndarray:
    """Probability mass of each row of a complex block, summed from its real
    and imaginary views without a block-sized temporary."""
    re, im = block.real, block.imag
    return np.einsum("ij,ij->i", re, re) + np.einsum("ij,ij->i", im, im)


def _work_register_residual(state: StateVector, layout: RegisterLayout) -> float:
    """Probability mass with y or lambda register away from |0>."""
    _, y, lam, block = _work_rows(state, layout)
    return float(np.sum(_row_masses(block)[(y != 0) | (lam != 0)]))


def uncompute(
    state: StateVector,
    layout: RegisterLayout,
    filter_op: GateOp,
    pe_circuit: Circuit,
    atol: float | None = UNCOMPUTE_ATOL,
) -> StateVector:
    """Undo the filter write and the phase estimation.

    For register-exact spectra both work registers must return to |0> (the
    ancilla has already absorbed the kept/discarded distinction); residual
    mass beyond ``atol`` means the pipeline is broken.  Pass ``atol=None``
    to skip the check, e.g. for spectra the register can only approximate.
    """
    state = apply(state, filter_op.dagger())
    state = run(state, pe_circuit.inverse())
    if atol is not None:
        residual = _work_register_residual(state, layout)
        if residual > atol:
            raise PipelineInvariantError(
                f"work registers failed to uncompute: residual mass {residual:.3e}"
            )
    return state


def _histogram(lam: np.ndarray, mass: np.ndarray, eig_bits: int) -> dict[int, float]:
    """``mass`` summed per lambda-register value ``lam``, values at or
    below ``ROUNDOFF`` dropped."""
    mass = np.bincount(lam, weights=mass, minlength=1 << eig_bits)
    values = np.flatnonzero(mass > ROUNDOFF)
    return dict(zip(values.tolist(), mass[values].tolist()))


def lambda_register_histogram(state: StateVector, layout: RegisterLayout) -> dict[int, float]:
    """Marginal probability of each lambda-register value, zeros dropped."""
    _, _, lam, block = _work_rows(state, layout)
    return _histogram(lam, _row_masses(block), layout.eig_bits)


def make_layout(hin: HermitianInput, n_bits: int) -> RegisterLayout:
    k = hin.dim.bit_length() - 1
    if (1 << k) != hin.dim:
        raise ValueError(f"matrix dimension {hin.dim} is not a power of two")
    return RegisterLayout(eig_bits=n_bits, data_qubits=2 * k)


def _compiled(hin: HermitianInput, layout: RegisterLayout) -> _Compiled:
    """``hin``'s slot at ``layout``'s register width: the input's own, or
    built, run from |0> and put in the slot in place of another width's.
    Phase estimation is a register shift for an integer spectrum and the
    Fourier form for any other.
    Warnings the build gives are kept in the slot, for the caller to repeat
    on every call; warnings of the runs are not."""
    slot = hin._slot
    if slot is None or slot.n_bits != layout.eig_bits:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            pe_spec = PhaseEstimationSpec(hin.matrix, layout.eig_bits)
            prep = build_state_prep(
                hin.amplitude_encoding, qubits=layout.data_reg, num_qubits=layout.num_qubits
            )
            build_pe = build_register_shift if hin.integer_spectrum else build_phase_estimation
            pe = build_pe(pe_spec, layout.lambda_reg, layout.u_reg, layout.num_qubits)
        # without V: it and the V^T that the inverse would open with cancel
        pe = Circuit(layout.num_qubits, pe.ops[:-1])
        # two runs, not one circuit: a run of gates works from its lowest
        # qubit, where prep would act on 2**n copies of the data register
        state = run(run(StateVector.zero(layout.num_qubits), prep), pe)
        # split at or below the work registers: the shift form's state is
        # split after the targets already, the Fourier form's at its
        # register, and that is split finer
        top = max(state._top, layout.work_qubits)
        estimated = StateVector._owned(layout.num_qubits, top, *state.rows(top))
        flip = ancilla_flip_gate(layout)
        slot = _Compiled(layout.eig_bits, estimated, pe, flip, tuple(w.message for w in caught))
        object.__setattr__(hin, "_slot", slot)
    return slot


def _readout(collapsed: StateVector, layout: RegisterLayout, integer_spectrum: bool) -> np.ndarray:
    """The post-selected data-register amplitudes: the row with the ancilla
    at 1 and clean work registers, renormalized and real.

    ``collapsed`` is uncomputed, so split at or above the work registers,
    and read with one row per work-register value.  For an integer spectrum
    mass outside the clean row is what ``uncompute`` failed to restore, an
    error beyond ``UNCOMPUTE_ATOL``; approximate spectra leak some, and the
    row is renormalized either way."""
    anc, y, lam, block = _work_rows(collapsed, layout)
    clean = np.flatnonzero((anc == 1) & (y == 0) & (lam == 0))
    amps = block[clean[0]] if clean.size else np.zeros(block.shape[1], dtype=np.complex128)
    block_mass = float(np.sum(np.abs(amps) ** 2))
    if integer_spectrum and 1.0 - block_mass > UNCOMPUTE_ATOL:
        raise PipelineInvariantError(
            f"stray population outside data block: {1.0 - block_mass:.3e}"
        )
    if block_mass < ROUNDOFF:
        raise ZeroProbabilityOutcome("no population left on clean work registers")
    amps = amps / np.sqrt(block_mass)
    if np.max(np.abs(amps.imag)) > UNCOMPUTE_ATOL:
        raise PipelineInvariantError("post-selected amplitudes should be real")
    return amps.real.copy()


def run_qpca(
    hin: HermitianInput,
    config: QpcaConfig,
    filter_table: FilterTable | None = None,
) -> QpcaResult:
    """Simulate the full filtering pipeline on ``hin``.

    ``filter_table`` overrides the Newton-built table (its tau and n_bits
    must match ``config``); used to check that reciprocal rounding never leaks
    into the output.  Exact mode reports the post-selected amplitudes.
    Sampled mode draws how many of ``config.shots`` land on ancilla 1, a
    binomial of the success probability rounded as ``sample`` rounds, then
    their outcomes from the uncomputed branch: the law of one draw over the
    whole uncomputed state.  It estimates magnitudes as sqrt(count / accepted).

    Non-integer spectra are accepted with a warning: phase estimation then
    runs in its Fourier form, not as a register shift (see the module
    docstring), and spreads each eigenvalue over nearby register values;
    the filter acts on that spread, and the work registers cannot be
    uncomputed exactly.  The reported output is the renormalized
    clean-register branch, a soft approximation of the thresholded state.

    Raises ``ZeroProbabilityOutcome`` when every component is filtered out,
    its subclass ``NoShotAccepted`` when no sampled shot lands on the
    post-selected ancilla, and ``ValueError`` before any state is built when
    a block of 2**(n_bits + m) amplitudes, m the data qubits, exceeds
    ``MAX_LIVE_AMPS``, or when ``filter_table`` does not match.

    Every call continues from the input's slot (see ``_compiled``): the
    state after state preparation and the first phase estimation, without
    its closing V.
    """
    layout = make_layout(hin, config.n_bits)
    live = 1 << (layout.eig_bits + layout.data_qubits)
    if live > MAX_LIVE_AMPS:
        block_bytes = live * np.dtype(np.complex128).itemsize
        raise ValueError(
            f"{layout.num_qubits} qubits hold {live} live amplitudes, {block_bytes} bytes "
            f"({block_bytes >> 20} MiB) per block; the limit is {MAX_LIVE_AMPS} amplitudes"
        )

    if not hin.integer_spectrum:
        warnings.warn(
            "spectrum is not integer; register readout is approximate and the "
            "threshold acts on the spread register values",
            SpectralPrecisionWarning,
            stacklevel=2,
        )
    if filter_table is None:
        filter_table = build_filter_table(FilterParams(config.tau, config.n_bits))
    params = filter_table.params
    if (params.tau, params.n_bits) != (config.tau, config.n_bits):
        raise ValueError(
            f"filter table is for tau={params.tau}, n_bits={params.n_bits}; "
            f"config has tau={config.tau}, n_bits={config.n_bits}"
        )
    compiled = _compiled(hin, layout)
    for message in compiled.warned:
        warnings.warn(message, stacklevel=2)
    kept_eigenvalues = tuple(hin.eigenvalues[params.keeps(hin.eigenvalues)].tolist())

    filt = build_filter_unitary(filter_table, layout)

    # the filter and the flip, both table adds, in one pass over the keys
    state = run(compiled.estimated, Circuit(layout.num_qubits, (filt, compiled.flip)))
    # the histogram is that of the ancilla-1 rows here (module docstring);
    # only their lambda values and masses are kept through uncompute
    anc, y, lam, block = _work_rows(state, layout)
    kept_lam, kept_mass = lam[anc == 1], _row_masses(block)[anc == 1]
    del anc, y, lam, block
    # post-selection commutes with uncompute (module docstring); the ancilla
    # is in the key, so this selects rows, and the state after the flip is
    # freed before the branch is uncomputed
    success_prob, state = post_select(state, layout.ancilla, 1)
    success_prob = min(success_prob, 1.0)
    # on this branch uncompute's residual is _readout's stray population
    collapsed = uncompute(state, layout, filt, compiled.pe, atol=None)
    del state
    output_amps = _readout(collapsed, layout, hin.integer_spectrum)
    histogram = _histogram(kept_lam, kept_mass / kept_mass.sum(), layout.eig_bits)

    try:
        _, expected = classical_pca_oracle(hin, params)
    except AllComponentsFiltered:
        expected = None

    shots = counts = None
    if config.mode == "sampled":
        # the shots that land on ancilla 1, then their draw from the branch
        rng = np.random.default_rng(config.seed)
        accepted = int(rng.binomial(config.shots, np.rint(success_prob / ROUNDOFF) * ROUNDOFF))
        if accepted == 0:
            raise NoShotAccepted(
                f"none of {config.shots} shots landed on the post-selected ancilla "
                f"(success probability {success_prob:.3e})"
            )
        raw = sample(collapsed, accepted, rng)
        # shots per data value, whatever the work registers read, in int64
        x = layout.split(np.fromiter(raw, dtype=np.intp, count=len(raw)))[3]
        per_data = np.zeros(1 << layout.data_qubits, dtype=np.int64)
        np.add.at(per_data, x, np.fromiter(raw.values(), dtype=np.int64, count=len(raw)))
        hit = np.flatnonzero(per_data)
        counts = dict(zip(hit.tolist(), per_data[hit].tolist()))
        output_amps = np.sqrt(per_data / accepted)
        shots = config.shots

    fid = 0.0 if expected is None else fidelity(output_amps, expected)

    result = QpcaResult(
        success_prob=success_prob,
        output_amps=output_amps,
        kept_count=len(kept_eigenvalues),
        kept_eigenvalues=kept_eigenvalues,
        lambda_histogram=histogram,
        fidelity=fid,
        total_gates=cost_proposed(config.n_bits, layout.data_qubits).total,
        layout=layout,
        shots=shots,
        counts=counts,
    )
    if not 0.0 < result.success_prob <= 1.0:
        raise PipelineInvariantError(f"success probability {result.success_prob} out of range")
    if result.kept_count > hin.rank:
        raise PipelineInvariantError("kept more components than the matrix rank")
    return result
