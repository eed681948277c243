"""Statevector simulator that stores only the live rows of a state.

Conventions
-----------
Qubit 0 is the most significant bit of a basis-state index: with Q qubits,
basis state |b0 b1 ... b_{Q-1}> lives at index sum_i b_i * 2**(Q-1-i).  This
matches circuit diagrams read top to bottom, with qubit 0 on the top wire.

States are immutable at the API: every operation returns a fresh
``StateVector`` and never writes its input.

Live rows.  Split at a qubit ``top``, a state is the (2**top, 2**(Q-top))
array of its rows: row r holds the amplitudes whose qubits 0 .. top-1 spell
r.  A ``StateVector`` stores ``(top, keys, block)``: ``keys`` lists, in
ascending (basis) order, the rows that may hold a nonzero amplitude, and
``block`` holds those rows; every other row is zero, or was dropped as
round-off.  Memory and the finiteness and norm checks therefore cost
O(live amplitudes), not O(2**Q).

* ``run`` takes its circuit in runs of gates of one kind.  It re-keys the
  state to a run's ``top``, the lowest qubit the run touches.  Going coarser
  merges rows; going finer drops sub-rows whose every amplitude has
  magnitude at or below ``ROUNDOFF``, the round-off floor (a row holding
  NaN fails that test and stays live).  A unit-norm state loses at most
  ``ROUNDOFF**2`` of probability per dropped amplitude, far inside
  ``NORM_ATOL``, and ``sample`` draws no shot on such an amplitude either
  way.  Gates that leave qubits 0 .. top-1 untouched act as I (x) U on the
  rows, so a zero row stays zero, and each gate is applied to the block
  alone through ``_apply_into``.
* A run of table adds (the eigenvalue filter, the ancilla flip) instead
  moves every qubit it touches into the key and maps the keys: O(live rows)
  of index arithmetic, no arithmetic on amplitudes.  The block's rows are
  reordered only to keep the keys ascending.
* ``post_select``, ``probabilities`` and ``sample`` read the live rows only;
  ``amps`` builds the dense array on demand.

In the pipeline, phase estimation touches only the lambda register and the
row half of the data register, while the ancilla and y register hold one or
two values.  For an integer spectrum it is a table add between V^T and V,
so the lambda register holds one value per distinct eigenvalue, and every
stage works on about that many rows of 2**m amplitudes.  The Fourier form
that other spectra need fills every lambda value: one or two times
2**(n+m) amplitudes.

Targets are a range.  A gate acts on k consecutive qubits, given in
ascending order, and stores them as (first qubit, count); any other wiring
is refused.  So a block of rows, viewed as (pre, 2**k, post) with the
targets in the middle axis, needs no transpose: ``_apply_into`` works on
that view of the row-major block.  A stack, a stack of 1 x 1 blocks (a
phase per value) included, multiplies its (pre, B, d, post) view with one
batched ``matmul`` into a spare buffer of the run, and the two buffers
swap; a Fourier gate runs the FFT along the middle axis.  A real stack
multiplies the float64 view of the complex block, whose last axis pairs
each amplitude's real and imaginary parts, so a real gate costs real
arithmetic.  A table add reads its target value from a row key with one
shift and one mask.

A gate acts on its k target qubits alone and holds one of three forms in
``GateOp.matrix``:

* a (B, d, d) stack of unitary blocks with B * d = 2**k, the block-diagonal
  matrix diag(M_0, ..., M_{B-1}): the leading log2(B) targets select the
  block, which acts on the remaining targets.  A dense unitary is the stack
  of one block.  A uniformly controlled rotation, one rotation per value of
  its control qubits, is one such gate, and so is a controlled-U: I in every
  block but U in the one its controls select.  A real input is kept as
  float64, any other as complex128.  State preparation emits one real stack
  per level of its binary tree, and phase estimation the real V^T and V and
  one diagonal of 1 x 1 blocks, a phase per register value and eigenvector;
* a sign s = 1 or -1 (a 0-d integer array), the unitary DFT with kernel
  e^(s 2 pi i jk / 2**k), j and k read with the first target as the top
  bit, applied as ``np.fft.ifft`` (s = 1) or ``np.fft.fft`` (s = -1) along
  the targets, with ``norm="ortho"``; the inverse is -s.  Phase
  estimation's Fourier form applies the gate of sign 1 to its register
  after V^T and its inverse before V;
* a length-2**r integer table T with r < k, the table-controlled add
  (c, lam) -> ((c + T[lam]) mod 2**(k-r), lam): the leading k - r targets
  hold c and the trailing r targets hold lam.  Any integer table is a
  bijection, and the inverse adds -T.  Table-compiled classical blocks (the
  eigenvalue filter, the ancilla flip) use this form, so a 2n-qubit filter
  costs 2**n integers.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Sequence

import numpy as np

UNITARY_ATOL = 1e-10      # max |M^dag M - I| allowed for a gate matrix
NORM_ATOL = 1e-9          # statevector norm drift tolerated after an operation
ROUNDOFF = 1e-12          # round-off floor of a unit-norm state's amplitudes and probabilities


class SimulationError(Exception):
    """Base class for simulator errors."""


class NonUnitaryMatrixError(SimulationError):
    """Gate matrix failed the unitarity check."""


class ZeroProbabilityOutcome(SimulationError):
    """Requested measurement outcome has numerically zero probability."""


class StateVector:
    """Normalized vector of 2**num_qubits complex amplitudes, stored as its
    live rows (see the module docstring).

    The stored rows are validated (finite entries, unit norm within
    ``NORM_ATOL``) and frozen at construction; the rows left out are zero by
    construction, so this checks the whole state.
    """

    __slots__ = ("num_qubits", "_top", "_keys", "_block")

    def __init__(self, amps: Iterable[complex]):
        arr = np.array(amps, dtype=np.complex128).reshape(-1)
        q = arr.size.bit_length() - 1
        if arr.size < 2 or (1 << q) != arr.size:
            raise ValueError(f"amplitude count {arr.size} is not a power of two >= 2")
        self._adopt(q, 0, np.zeros(1, dtype=np.intp), arr.reshape(1, -1))

    @classmethod
    def _owned(cls, num_qubits: int, top: int, keys: np.ndarray, block: np.ndarray) -> "StateVector":
        """Wrap live rows without copying them.  The caller hands ``keys`` and
        ``block`` over: nothing may write them afterwards."""
        self = cls.__new__(cls)
        self._adopt(num_qubits, top, keys, block)
        return self

    def _adopt(self, num_qubits: int, top: int, keys: np.ndarray, block: np.ndarray) -> None:
        if block.shape != (keys.size, 1 << (num_qubits - top)):
            raise ValueError(f"rows of shape {block.shape} do not match {keys.size} keys at qubit {top}")
        if keys.size and (keys[0] < 0 or keys[-1] >= 1 << top or np.any(keys[1:] <= keys[:-1])):
            raise ValueError("row keys are not ascending row indices")
        nrm = float(np.linalg.norm(block))  # NaN or inf if any amplitude is
        if not abs(nrm - 1.0) <= NORM_ATOL:
            off = f"differs from 1 by more than {NORM_ATOL}"
            raise ValueError(f"state norm {nrm!r} {off if math.isfinite(nrm) else 'is non-finite'}")
        keys.setflags(write=False)
        block.setflags(write=False)
        self.num_qubits = num_qubits
        self._top = top
        self._keys = keys
        self._block = block

    def rows(self, top: int) -> tuple[np.ndarray, np.ndarray]:
        """The state split at qubit ``top``: the ascending indices, over
        qubits 0 .. top-1, of its live rows, and the (L, 2**(num_qubits-top))
        array of those rows.  Both are read-only; every other row is zero."""
        keys, block = self._rekey(top)
        keys.setflags(write=False)
        block.setflags(write=False)
        return keys, block

    def _rekey(self, top: int) -> tuple[np.ndarray, np.ndarray]:
        """``rows(top)``: the stored, read-only rows at the stored split, a
        new, writable block at any other."""
        if not 0 <= top <= self.num_qubits:
            raise ValueError(f"cannot split {self.num_qubits} qubits at qubit {top}")
        keys, block, shift = self._keys, self._block, top - self._top
        if shift == 0:
            return keys, block
        if shift < 0:  # coarser: sub-rows merge into their row
            shift = -shift
            coarse = keys >> shift  # ascending, as the keys are
            starts = np.empty(keys.size, dtype=bool)
            starts[:1] = True
            np.not_equal(coarse[1:], coarse[:-1], out=starts[1:])
            merged = coarse[starts]
            out = np.zeros((merged.size, 1 << shift, block.shape[1]), dtype=np.complex128)
            out[np.cumsum(starts) - 1, keys & ((1 << shift) - 1)] = block
            return merged, out.reshape(merged.size, -1)
        # finer: each row splits into 2**shift sub-rows, and the round-off
        # ones, every |amplitude| at or below ROUNDOFF, are dropped (NaN
        # compares false, so its sub-row stays live)
        sub = block.reshape(keys.size << shift, -1)
        live = ~(np.abs(sub).max(axis=1) <= ROUNDOFF)
        split = ((keys[:, None] << shift) | np.arange(1 << shift)).reshape(-1)
        return split[live], sub[live]

    @property
    def amps(self) -> np.ndarray:
        """Dense read-only amplitude array, indexed by basis state, built on
        each call: O(2**num_qubits), for tests and small states."""
        out = np.zeros((1 << self._top, self._block.shape[1]), dtype=np.complex128)
        out[self._keys] = self._block
        out.setflags(write=False)
        return out.reshape(-1)

    @classmethod
    def zero(cls, num_qubits: int) -> "StateVector":
        """|00...0> on ``num_qubits`` qubits."""
        return cls.basis(num_qubits, 0)

    @classmethod
    def basis(cls, num_qubits: int, index: int) -> "StateVector":
        """|index>, stored as its one nonzero amplitude."""
        if num_qubits < 1:
            raise ValueError("need at least one qubit")
        if not 0 <= index < (1 << num_qubits):
            raise ValueError(f"basis index {index} out of range for {num_qubits} qubits")
        keys = np.array([index], dtype=np.intp)
        return cls._owned(num_qubits, num_qubits, keys, np.ones((1, 1), dtype=np.complex128))

    def probabilities(self) -> np.ndarray:
        """Dense array of basis-state probabilities, computed on the live rows."""
        out = np.zeros((1 << self._top, self._block.shape[1]))
        out[self._keys] = np.abs(self._block) ** 2
        return out.reshape(-1)

    def __repr__(self) -> str:
        return f"StateVector(num_qubits={self.num_qubits})"


def _span(targets) -> tuple[int, int]:
    """(first qubit, count) of a gate's targets, which must be consecutive
    qubits in ascending order."""
    if isinstance(targets, (int, np.integer)):
        targets = (int(targets),)
    targets = tuple(int(t) for t in targets)
    if not targets:
        raise ValueError("gate needs at least one target qubit")
    if targets[0] < 0:
        raise ValueError(f"negative qubit index in {targets}")
    if targets != tuple(range(targets[0], targets[0] + len(targets))):
        raise ValueError(f"targets {targets} are not consecutive qubits in ascending order")
    return targets[0], len(targets)


def _conj_transpose(m: np.ndarray) -> np.ndarray:
    """M^dag of each block of a (B, d, d) stack."""
    return np.swapaxes(m.conj(), -1, -2)


def _unitarity_defect(m: np.ndarray) -> float:
    with np.errstate(invalid="ignore"):  # inf * 0 is NaN, refused by the caller
        gram = _conj_transpose(m) @ m
    return float(np.max(np.abs(gram - np.eye(m.shape[-1]))))


def _check_unitary(m: np.ndarray) -> None:
    """Raise unless every block of a (B, d, d) stack is unitary."""
    defect = _unitarity_defect(m)
    if not defect <= UNITARY_ATOL:  # NaN compares false either way
        raise NonUnitaryMatrixError(f"matrix deviates from unitarity by {defect:.3e}")


class GateOp:
    """A k-qubit unitary acting on the consecutive qubits ``targets``.

    ``matrix`` is a (B, d, d) stack of unitary blocks with B * d = 2**k,
    selected by the leading targets, and a 2-D 2**k x 2**k unitary is
    stored as the stack of one block; for a table-controlled add, a
    length-2**r integer table T with r < k, adding T[lam] of the trailing r
    targets into the leading k - r modulo 2**(k-r); or, for a Fourier gate,
    the sign 1 or -1 of the DFT's exponent (see the module docstring).  A
    one-dimensional integer array selects the table form; only its length
    is checked, and it is stored reduced modulo 2**(k-r).  An integer scalar
    selects the Fourier form; it must be 1 or -1.  A stack is kept as
    float64 when its input is real, as complex128 otherwise, and each of its
    blocks is checked to be unitary at construction, in the arithmetic of
    its dtype.  ``dagger`` reuses the checked matrix.

    ``targets`` must be ascending and consecutive; the gate stores them as
    ``first`` and ``count``.
    """

    __slots__ = ("matrix", "first", "count", "label")

    def __init__(self, matrix, targets, label: str | None = None):
        first, k = _span(targets)
        m = np.asarray(matrix)
        if m.ndim == 0 and m.dtype.kind in "iu":
            if m not in (-1, 1):
                raise ValueError(f"Fourier sign {m} is not 1 or -1")
            m = m.astype(np.intp)
        elif m.ndim == 1 and m.dtype.kind in "iu":
            if m.size & (m.size - 1) or not 0 < m.size < 1 << k:
                raise ValueError(f"table length {m.size} is not a power of two below 2**{k}")
            m = np.mod(m, (1 << k) // m.size).astype(np.intp, copy=False)
        else:
            m = np.array(matrix, dtype=np.complex128 if np.iscomplexobj(m) else np.float64)
            if m.ndim == 2:
                m = m[None]
            if m.ndim != 3 or m.shape[1] != m.shape[2] or m.shape[0] * m.shape[1] != 1 << k:
                raise ValueError(f"matrix shape {m.shape} does not match {k} target qubit(s)")
            _check_unitary(m)
        self._set(m, first, k, label)

    @classmethod
    def _trusted(cls, matrix: np.ndarray, targets, label) -> "GateOp":
        """A gate on ``matrix``, already checked: the targets are checked,
        the matrix is not checked again."""
        self = cls.__new__(cls)
        self._set(matrix, *_span(targets), label)
        return self

    def _set(self, matrix: np.ndarray, first: int, count: int, label) -> None:
        matrix.setflags(write=False)
        self.matrix = matrix
        self.first = first
        self.count = count
        self.label = label

    @property
    def targets(self) -> tuple[int, ...]:
        return tuple(range(self.first, self.first + self.count))

    def dagger(self) -> "GateOp":
        """Inverse gate, same targets: the conjugate transpose of each block,
        the add of -T for a table T, the Fourier gate of the opposite sign.
        Built on each call from this gate's checked matrix and span."""
        m = self.matrix
        if m.ndim == 0:
            inverse = np.array(-m)  # a 0-d array, as the sign it negates
        elif m.ndim == 1:
            inverse = np.mod(-m, (1 << self.count) // m.size)
        else:
            inverse = _conj_transpose(m)
        gate = GateOp.__new__(GateOp)
        gate._set(inverse, self.first, self.count, self.label)
        return gate

    def max_qubit(self) -> int:
        return self.first + self.count - 1

    def __repr__(self) -> str:
        name = self.label or f"{1 << self.count}x{1 << self.count}"
        return f"GateOp({name}, targets={self.targets})"


class Circuit:
    """Ordered gate list on a fixed number of qubits."""

    __slots__ = ("num_qubits", "_ops")

    def __init__(self, num_qubits: int, ops: Iterable[GateOp] = ()):
        if num_qubits < 1:
            raise ValueError("circuit needs at least one qubit")
        self.num_qubits = int(num_qubits)
        self._ops: list[GateOp] = []
        self.extend(ops)

    @property
    def ops(self) -> tuple[GateOp, ...]:
        return tuple(self._ops)

    def append(self, op: GateOp) -> "Circuit":
        if op.max_qubit() >= self.num_qubits:
            raise ValueError(
                f"gate touches qubit {op.max_qubit()} but circuit has {self.num_qubits} qubits"
            )
        self._ops.append(op)
        return self

    def extend(self, ops: Iterable[GateOp]) -> "Circuit":
        for op in ops:
            self.append(op)
        return self

    def inverse(self) -> "Circuit":
        """Adjoint circuit: reversed order, each gate replaced by its dagger."""
        return Circuit(self.num_qubits, [op.dagger() for op in reversed(self._ops)])

    def __len__(self) -> int:
        return len(self._ops)

    def __iter__(self):
        return iter(self._ops)


def _apply_into(rows: np.ndarray, spare: np.ndarray | None, num_qubits: int, top: int, op: GateOp):
    """Apply ``op``, not a table add, to every row of ``rows``.

    ``rows`` is a C-contiguous (R, 2**(num_qubits - top)) complex128 array
    whose columns index qubits top .. num_qubits-1; ``op`` touches none of
    the qubits 0 .. top-1.  ``spare`` is None or a writable array of the
    same shape whose values do not matter.  Returns (result, spare): the
    array that now holds the rows, and None or an array the next call may
    take as ``spare``.  ``rows`` is never written: a stack writes ``spare``
    (allocated if None), a Fourier gate a new array.

    A stack of 1 x 1 blocks goes through ``matmul`` as well: a ufunc
    multiply broadcasting the phases allocates an iterator buffer of up to
    128 KiB, as large as two whole blocks at 2**12 amplitudes.
    """
    gate, post = op.matrix, 1 << (num_qubits - op.first - op.count)
    free = rows if rows.flags.writeable else None
    if gate.ndim == 0:
        view = rows.reshape(-1, 1 << op.count, post)
        new = (np.fft.ifft if gate > 0 else np.fft.fft)(view, axis=1, norm="ortho")
        return new.reshape(rows.shape), free
    out = np.empty_like(rows) if spare is None else spare
    src, dst = rows, out
    if gate.dtype == np.float64:  # a real gate on the real and imaginary parts alike
        src, dst, post = rows.view(np.float64), out.view(np.float64), 2 * post
    blocks, d = gate.shape[:2]
    np.matmul(gate, src.reshape(-1, blocks, d, post), out=dst.reshape(-1, blocks, d, post))
    return out, free


def _permute_keys(keys: np.ndarray, top: int, op: GateOp) -> np.ndarray:
    """Row keys after the table add ``op``, all of whose qubits lie in
    qubits 0 .. top-1: a row moves from target value c * 2**r + lam to
    (c + T[lam]) * 2**r + lam, modulo 2**k.  O(len(keys)) of shifts and
    masks; no amplitude moves."""
    table, shift, mask = op.matrix, top - op.first - op.count, (1 << op.count) - 1
    value = (keys >> shift) & mask
    # the carry out of the k target bits is masked off: the sum is mod 2**(k-r)
    value += table[value & (table.size - 1)] * table.size
    return (keys & ~(mask << shift)) | ((value & mask) << shift)


def _evolve(state: StateVector, ops: Sequence[GateOp]) -> StateVector:
    """The state after ``ops``, applied in order to ``state``.

    The gates go in runs of one kind.  A run of table adds moves every
    qubit it touches into the key and maps the keys; any other run is
    re-keyed to its lowest qubit and applied to the block, through two
    buffers that swap.  ``state`` is never written.
    """
    q = state.num_qubits
    for table_adds, run_ops in itertools.groupby(ops, lambda op: op.matrix.ndim == 1):
        run_ops = list(run_ops)
        if table_adds:
            top = max([state._top] + [op.first + op.count for op in run_ops])
            keys, block = state.rows(top)
            for op in run_ops:
                keys = _permute_keys(keys, top, op)
            if np.any(keys[1:] < keys[:-1]):
                order = np.argsort(keys)
                keys, block = keys[order], block[order]
        else:
            top = min(op.first for op in run_ops)
            keys, block = state._rekey(top)
            spare = None
            for op in run_ops:
                if op.matrix.ndim == 0:
                    spare = None  # freed before the FFT allocates its output
                block, spare = _apply_into(block, spare, q, top, op)
        state = StateVector._owned(q, top, keys, block)
    return state


def apply(state: StateVector, op: GateOp) -> StateVector:
    """Apply one gate and return the new state."""
    q = state.num_qubits
    if op.max_qubit() >= q:
        raise ValueError(f"gate touches qubit {op.max_qubit()} but state has {q} qubits")
    return _evolve(state, (op,))


def run(state: StateVector, circuit: Circuit) -> StateVector:
    """Apply every gate of ``circuit`` in order; the state is checked once, at the end."""
    if circuit.num_qubits != state.num_qubits:
        raise ValueError(
            f"circuit width {circuit.num_qubits} does not match state width {state.num_qubits}"
        )
    return _evolve(state, circuit.ops)


def post_select(state: StateVector, qubit: int, outcome: int) -> tuple[float, StateVector]:
    """Project onto ``qubit == outcome`` and renormalize.

    Returns (probability of the outcome, collapsed state).  Raises
    ``ZeroProbabilityOutcome`` when the outcome probability is below
    ``ROUNDOFF``.
    """
    if outcome not in (0, 1):
        raise ValueError(f"outcome must be 0 or 1, got {outcome}")
    if not 0 <= qubit < state.num_qubits:
        raise ValueError(f"qubit {qubit} out of range")
    # with the measured qubit in the key, the outcome selects whole rows
    top = max(state._top, qubit + 1)
    keys, block = state.rows(top)
    hit = ((keys >> (top - 1 - qubit)) & 1) == outcome
    kept = block[hit]  # a copy
    prob = float(np.sum(np.abs(kept) ** 2))
    if prob < ROUNDOFF:
        raise ZeroProbabilityOutcome(
            f"outcome {outcome} on qubit {qubit} has probability below {ROUNDOFF:g}"
        )
    kept /= math.sqrt(prob)
    return prob, StateVector._owned(state.num_qubits, top, keys[hit], kept)


def sample(state: StateVector, shots: int, seed: int) -> dict[int, int]:
    """Multinomial measurement counts over basis states; deterministic per seed.

    ``seed`` is anything ``np.random.default_rng`` takes: an int, or a
    ``Generator``, whose stream the draw continues.  The draw runs over the
    live amplitudes in ascending basis order, with each probability rounded
    to a multiple of ``ROUNDOFF`` first.  A zero-probability outcome draws
    no random numbers, so round-off amplitudes and amplitudes left out draw
    none, and an ulp-level change of the state cannot flip a count.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    keys, block = state._keys, state._block
    p = np.rint((np.abs(block) ** 2).reshape(-1) / ROUNDOFF)
    p = p / p.sum()
    counts = np.random.default_rng(seed).multinomial(shots, p)
    hit = np.flatnonzero(counts)
    width = block.shape[1]
    index = keys[hit // width] * width + hit % width
    return {int(i): int(c) for i, c in zip(index, counts[hit])}


# -- standard gates ----------------------------------------------------------

_H = np.array([[1, 1], [1, -1]]) / math.sqrt(2)


def hadamard(qubit: int) -> GateOp:
    return GateOp(_H, (qubit,), label="H")


def ry(theta: float, qubit: int) -> GateOp:
    """Real rotation [[cos(t/2), -sin(t/2)], [sin(t/2), cos(t/2)]]."""
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return GateOp([[c, -s], [s, c]], (qubit,), label=f"Ry({theta:.4f})")
