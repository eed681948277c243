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
``block`` holds those rows; every other row is exactly zero.  Memory and the
finiteness and norm checks therefore cost O(live amplitudes), not O(2**Q).

* ``run`` re-keys the state to its circuit's ``top``, the lowest qubit any
  gate touches.  Going coarser merges rows; going finer drops sub-rows that
  are exactly zero (an exact test, so a row holding NaN stays live).  A
  circuit whose gates leave qubits 0 .. top-1 untouched acts as I (x) U on
  the rows, so a zero row stays zero, and every gate is applied to the
  block alone through ``_apply_into``.
* A circuit of table adds only (the eigenvalue filter, the ancilla flip)
  instead moves every qubit it touches into the key and maps the keys:
  O(live rows) of index arithmetic, no arithmetic on amplitudes.  The block's
  rows are reordered only to keep the keys ascending.
* ``post_select``, ``probabilities`` and ``sample`` read the live rows only;
  ``amps`` builds the dense array on demand, for tests and small states.

In the pipeline, phase estimation touches only the lambda register and the
row half of the data register while the ancilla and y register hold one or
two values, so every stage works on one or two times 2**(n+m) amplitudes.

Fixed cost per gate.  At those sizes a gate costs mostly its set-up, so a
gate computes its kernel plan once per split and keeps it
(``GateOp._plans``): for ``_apply_into`` the index fixing its controls, the
transpose bringing its targets forward and the shapes, keyed by
(num_qubits, top); for ``_permute_keys`` its bit positions and control
masks in a row key, keyed by top.  ``_permute_keys`` reads the target
values through one bit matrix of the keys, so it makes a fixed number of
numpy calls for any wiring.  Gates built once and shared (the Hadamards
and the Fourier gate of a register, one set per register placement) also
keep their inverse (``GateOp.keep_inverse``), so ``dagger`` and
``Circuit.inverse`` return it instead of building it again.

A gate on k target qubits holds one of four forms in ``GateOp.matrix``:

* a dense (2**k x 2**k) complex unitary M, applied as ``M @ amps``;
* a (B, d, d) stack of unitary blocks with B * d = 2**k, the block-diagonal
  matrix diag(M_0, ..., M_{B-1}): the leading log2(B) targets select the
  block, which acts on the remaining targets.  A uniformly controlled
  rotation, one rotation per value of its control qubits, is one such gate;
  state preparation emits one per level of its binary tree, and phase
  estimation one diagonal of 1 x 1 blocks, a phase per register value and
  eigenvector;
* a sign s = 1 or -1 (a 0-d integer array), the unitary DFT with kernel
  e^(s 2 pi i jk / 2**k), j and k read with targets[0] as the top bit,
  applied as ``np.fft.ifft`` (s = 1) or ``np.fft.fft`` (s = -1) along the
  targets, with ``norm="ortho"``; the inverse is -s.  Phase estimation's
  inverse QFT is the gate of sign -1 on its register;
* a length-2**r integer table T with r < k, the table-controlled add
  (c, lam) -> ((c + T[lam]) mod 2**(k-r), lam): the leading k - r targets
  hold c and the trailing r targets hold lam.  Any integer table is a
  bijection, and the inverse adds -T.  Table-compiled classical blocks (the
  eigenvalue filter, the ancilla flip) use this form, so a 2n-qubit filter
  costs 2**n integers.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

UNITARY_ATOL = 1e-10      # max |M^dag M - I| allowed for a gate matrix
NORM_ATOL = 1e-9          # statevector norm drift tolerated after an operation
MIN_OUTCOME_PROB = 1e-12  # below this a post-selection outcome counts as impossible
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
        if top == self._top:
            return self._keys, self._block
        keys, block = self._rekey(top)
        keys.setflags(write=False)
        block.setflags(write=False)
        return keys, block

    def _rekey(self, top: int) -> tuple[np.ndarray, np.ndarray]:
        """``rows(top)`` with a new, writable block."""
        if not 0 <= top <= self.num_qubits:
            raise ValueError(f"cannot split {self.num_qubits} qubits at qubit {top}")
        keys, block, shift = self._keys, self._block, top - self._top
        if shift == 0:
            return keys, block.copy()
        if shift < 0:  # coarser: sub-rows merge into their row
            shift = -shift
            merged, row = np.unique(keys >> shift, return_inverse=True)
            out = np.zeros((merged.size, 1 << shift, block.shape[1]), dtype=np.complex128)
            out[row, keys & ((1 << shift) - 1)] = block
            return merged, out.reshape(merged.size, -1)
        # finer: each row splits into 2**shift sub-rows, and the exactly-zero
        # ones are dropped (NaN is not zero, so its sub-row stays live)
        sub = block.reshape(keys.size << shift, -1)
        live = np.any(sub, axis=1)
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


def _normalize_controls(controls) -> tuple[tuple[int, int], ...]:
    out = []
    for c in controls:
        if isinstance(c, (int, np.integer)):
            q, pol = int(c), 1
        else:
            q, pol = int(c[0]), int(c[1])
        if pol not in (0, 1):
            raise ValueError(f"control polarity must be 0 or 1, got {pol}")
        out.append((q, pol))
    return tuple(out)


def _wiring(targets, controls) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """Checked (targets, controls) tuples of a gate."""
    if isinstance(targets, (int, np.integer)):
        targets = (int(targets),)
    targets = tuple(int(t) for t in targets)
    controls = _normalize_controls(controls)
    if not targets:
        raise ValueError("gate needs at least one target qubit")
    touched = list(targets) + [q for q, _ in controls]
    if len(set(touched)) != len(touched):
        raise ValueError(f"targets and controls overlap: {touched}")
    if min(touched) < 0:
        raise ValueError(f"negative qubit index in {touched}")
    return targets, controls


def _conj_transpose(m: np.ndarray) -> np.ndarray:
    """M^dag of a dense matrix, or of each block of a (B, d, d) stack."""
    return np.swapaxes(m.conj(), -1, -2)


def _unitarity_defect(m: np.ndarray) -> float:
    with np.errstate(invalid="ignore"):  # inf * 0 is NaN, refused by the caller
        gram = _conj_transpose(m) @ m
    return float(np.max(np.abs(gram - np.eye(m.shape[-1]))))


def _check_unitary(m: np.ndarray) -> None:
    """Raise unless the dense matrix, or every matrix of a stack, is unitary."""
    defect = _unitarity_defect(m)
    if not defect <= UNITARY_ATOL:  # NaN compares false either way
        raise NonUnitaryMatrixError(f"matrix deviates from unitarity by {defect:.3e}")


class GateOp:
    """A k-qubit unitary acting on ``targets``, optionally controlled.

    ``matrix`` is a dense 2**k x 2**k unitary; for a block-diagonal gate, a
    (B, d, d) stack of blocks with B * d = 2**k, selected by the leading
    targets; for a table-controlled add, a length-2**r integer table T
    with r < k, adding T[lam] of the trailing r targets into the leading
    k - r modulo 2**(k-r); or, for a Fourier gate, the sign 1 or -1 of the
    DFT's exponent (see the module docstring).  A one-dimensional integer
    array selects the table form; only its length is checked, and it is
    stored reduced modulo 2**(k-r).  An integer scalar selects the Fourier
    form; it must be 1 or -1.  A dense matrix or each block is
    checked to be unitary at construction.  ``dagger`` and ``remap`` reuse
    the checked matrix and check only the wiring.

    ``controls`` is a sequence of (qubit, polarity) pairs; polarity 1 fires
    on |1>, polarity 0 on |0>.  Bare qubit indices mean polarity 1.

    A gate keeps its kernel plans, one per split of the state it has been
    applied at, shared with every inverse it builds (same wiring, same
    plans), and, after ``keep_inverse``, its inverse.
    """

    __slots__ = ("matrix", "targets", "controls", "label", "_lo", "_hi", "_inverse", "_plans")

    def __init__(self, matrix, targets, controls=(), label: str | None = None):
        targets, controls = _wiring(targets, controls)
        k = len(targets)
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
            m = np.array(matrix, dtype=np.complex128)
            if m.ndim == 3:
                fits = m.shape[1] == m.shape[2] and m.shape[0] * m.shape[1] == 1 << k
            else:
                fits = m.shape == (1 << k, 1 << k)
            if not fits:
                raise ValueError(f"matrix shape {m.shape} does not match {k} target qubit(s)")
            _check_unitary(m)
        self._set(m, targets, controls, label)

    @classmethod
    def _trusted(cls, matrix: np.ndarray, targets, controls, label) -> "GateOp":
        """A gate on ``matrix`` taken from an already checked gate, or its
        inverse: the wiring is checked, the matrix is not checked again."""
        self = cls.__new__(cls)
        self._set(matrix, *_wiring(targets, controls), label)
        return self

    def _set(self, matrix: np.ndarray, targets, controls, label) -> None:
        matrix.setflags(write=False)
        self.matrix = matrix
        self.targets = targets
        self.controls = controls
        self.label = label
        touched = targets + tuple(q for q, _ in controls)
        self._lo, self._hi = min(touched), max(touched)
        self._inverse = None
        self._plans = {}

    def _build_inverse(self) -> "GateOp":
        if self.matrix.ndim == 0:
            inverse = -self.matrix
        elif self.matrix.ndim == 1:
            inverse = np.mod(-self.matrix, (1 << len(self.targets)) // self.matrix.size)
        else:
            inverse = _conj_transpose(self.matrix)
        inverse = GateOp._trusted(inverse, self.targets, self.controls, self.label)
        inverse._plans = self._plans
        return inverse

    def dagger(self) -> "GateOp":
        """Inverse gate, same wiring: the conjugate transpose of a dense
        matrix or of each block, the add of -T for a table T.  Built
        anew on each call, unless the gate keeps its inverse."""
        if self._inverse is not None:
            return self._inverse
        return self._build_inverse()

    def keep_inverse(self) -> "GateOp":
        """Build the inverse once and keep it: from now on ``dagger`` returns
        it, and its ``dagger`` returns this gate.  A self-inverse gate keeps
        itself.  For gates built once and shared, and for per-call gates
        small next to the state: a gate that keeps its inverse holds both
        matrices for as long as either lives.  Returns the inverse."""
        if self._inverse is None:
            inverse = self._build_inverse()
            if np.array_equal(inverse.matrix, self.matrix):
                inverse = self
            self._inverse, inverse._inverse = inverse, self
        return self._inverse

    def remap(self, qubit_map: Sequence[int]) -> "GateOp":
        """Rewire the gate through ``qubit_map`` (old index -> new index)."""
        return GateOp._trusted(
            self.matrix,
            tuple(qubit_map[t] for t in self.targets),
            tuple((qubit_map[q], pol) for q, pol in self.controls),
            self.label,
        )

    def max_qubit(self) -> int:
        return self._hi

    def min_qubit(self) -> int:
        return self._lo

    def __repr__(self) -> str:
        name = self.label or f"{1 << len(self.targets)}x{1 << len(self.targets)}"
        return f"GateOp({name}, targets={self.targets}, controls={self.controls})"


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

    def remap(self, qubit_map: Sequence[int], num_qubits: int) -> "Circuit":
        """Embed into a wider register, sending old qubit i to qubit_map[i]."""
        if len(qubit_map) != self.num_qubits:
            raise ValueError("qubit_map length must match circuit width")
        return Circuit(num_qubits, [op.remap(qubit_map) for op in self._ops])

    def __len__(self) -> int:
        return len(self._ops)

    def __iter__(self):
        return iter(self._ops)


def _rows_plan(op: GateOp, num_qubits: int, top: int) -> tuple:
    """How ``_apply_into`` views a block for ``op``, computed once per gate and
    split and kept on the gate: the per-qubit shape of the rows, the index
    fixing the controls, the transpose moving the targets to the front, and
    the shape the gate multiplies."""
    key = ("rows", num_qubits, top)
    plan = op._plans.get(key)
    if plan is None:
        index = [slice(None)] * (num_qubits - top + 1)
        for cq, pol in op.controls:
            index[cq - top + 1] = pol
        # axis 0 is the row; each fixed control before a target removes one axis ahead of it
        axes = [t - top + 1 - sum(cq < t for cq, _ in op.controls) for t in op.targets]
        ndim = num_qubits - top + 1 - len(op.controls)
        order = tuple(axes + [a for a in range(ndim) if a not in axes])
        gate = op.matrix
        if gate.ndim == 3:  # (block, row in block, rest)
            flat = gate.shape[:2] + (-1,)
        elif gate.ndim == 1:  # (c, lam, rest)
            flat = ((1 << len(axes)) // gate.size, gate.size, -1)
        else:
            flat = (1 << len(axes), -1)
        plan = op._plans[key] = ((-1,) + (2,) * (num_qubits - top), tuple(index), order, flat)
    return plan


def _apply_into(rows: np.ndarray, num_qubits: int, top: int, op: GateOp) -> None:
    """Apply ``op`` in place to every row of ``rows``.

    ``rows`` is a writable (R, 2**(num_qubits - top)) complex128 array whose
    columns index qubits top .. num_qubits-1; ``op`` touches none of the
    qubits 0 .. top-1.  Fixing the controls by basic indexing and moving
    the targets to the front are both views of ``rows``, so only the
    controlled subspace is copied, once, into the (2**k, rest) block the
    gate acts on.
    """
    shape, index, order, flat = _rows_plan(op, num_qubits, top)
    sub = rows.reshape(shape)[index].transpose(order)
    gate = op.matrix
    if gate.ndim == 1:
        # the amplitude at (c, lam) moves to (c + T[lam], lam)
        src = sub.reshape(flat)
        c = np.arange(src.shape[0])[:, None]
        new = src[(c - gate) % src.shape[0], np.arange(gate.size)]
    elif gate.ndim == 0:
        new = (np.fft.ifft if gate > 0 else np.fft.fft)(sub.reshape(flat), axis=0, norm="ortho")
    else:
        new = gate @ sub.reshape(flat)
    sub[...] = new.reshape(sub.shape)


def _keys_plan(op: GateOp, top: int) -> tuple:
    """How ``_permute_keys`` reads and writes ``op``'s qubits in a row key,
    computed once per gate and ``top`` and kept on the gate: the targets'
    bit positions, their weights in the target value, their bits in the key,
    the mask that clears them, and the mask and value the controls must
    read."""
    key = ("keys", top)
    plan = op._plans.get(key)
    if plan is None:
        shifts = top - 1 - np.array(op.targets, dtype=np.intp)
        weights = 1 << np.arange(len(op.targets) - 1, -1, -1, dtype=np.intp)
        fire_mask = sum(1 << (top - 1 - q) for q, _ in op.controls)
        fire_value = sum(pol << (top - 1 - q) for q, pol in op.controls)
        places = 1 << shifts
        plan = op._plans[key] = (shifts, weights, places, ~int(places.sum()), fire_mask, fire_value)
    return plan


def _permute_keys(keys: np.ndarray, top: int, op: GateOp) -> np.ndarray:
    """Row keys after the table add ``op``, all of whose qubits lie in
    qubits 0 .. top-1: a row whose controls fire moves from target value
    c * 2**r + lam to (c + T[lam]) * 2**r + lam, modulo 2**k.  O(len(keys))
    in a fixed number of numpy calls, through the (len(keys), k) matrix of
    the target bits; no amplitude moves."""
    shifts, weights, places, clear, fire_mask, fire_value = _keys_plan(op, top)
    table = op.matrix
    value = ((keys[:, None] >> shifts) & 1) @ weights
    # the carry out of the k target bits is dropped below: the sum is mod 2**(k-r)
    value = value + table[value & (table.size - 1)] * table.size
    moved = (keys & clear) | (((value[:, None] & weights) != 0) @ places)
    if fire_mask:
        moved = np.where((keys & fire_mask) == fire_value, moved, keys)
    return moved


def _evolve(state: StateVector, ops: Sequence[GateOp]) -> StateVector:
    """A new state holding ``ops`` applied in order to ``state``.

    A circuit of table adds only moves every qubit it touches into the key
    and maps the keys; any other circuit is re-keyed to its lowest
    qubit and applied to the block.  ``state`` is never written.
    """
    q = state.num_qubits
    if all(op.matrix.ndim == 1 for op in ops):
        top = max([state._top] + [op.max_qubit() + 1 for op in ops])
        keys, block = state.rows(top)
        for op in ops:
            keys = _permute_keys(keys, top, op)
        if np.any(keys[1:] < keys[:-1]):
            order = np.argsort(keys)
            keys, block = keys[order], block[order]
        return StateVector._owned(q, top, keys, block)
    top = min(op.min_qubit() for op in ops)
    keys, block = state._rekey(top)
    for op in ops:
        _apply_into(block, q, top, op)
    return StateVector._owned(q, top, keys, block)


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
    ``MIN_OUTCOME_PROB``.
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
    if prob < MIN_OUTCOME_PROB:
        raise ZeroProbabilityOutcome(
            f"outcome {outcome} on qubit {qubit} has probability {prob:.3e}"
        )
    kept /= math.sqrt(prob)
    return prob, StateVector._owned(state.num_qubits, top, keys[hit], kept)


def sample(state: StateVector, shots: int, seed: int) -> dict[int, int]:
    """Multinomial measurement counts over basis states; deterministic per seed.

    The draw runs over the live amplitudes in ascending basis order, with
    each probability rounded to a multiple of ``ROUNDOFF`` first.  A
    zero-probability outcome draws no random numbers, so round-off amplitudes
    and amplitudes left out draw none, and an ulp-level change of the state
    cannot flip a count.
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


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Full 2**Q x 2**Q matrix of a circuit, built column by column."""
    dim = 1 << circuit.num_qubits
    cols = [run(StateVector.basis(circuit.num_qubits, i), circuit).amps for i in range(dim)]
    return np.column_stack(cols)


# -- standard gates ----------------------------------------------------------

_H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2)
_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)


def hadamard(qubit: int) -> GateOp:
    return GateOp(_H, (qubit,), label="H")


def pauli_x(qubit: int, controls=()) -> GateOp:
    return GateOp(_X, (qubit,), controls, label="X")


def ry(theta: float, qubit: int, controls=()) -> GateOp:
    """Real rotation [[cos(t/2), -sin(t/2)], [sin(t/2), cos(t/2)]]."""
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return GateOp([[c, -s], [s, c]], (qubit,), controls, label=f"Ry({theta:.4f})")


def phase(theta: float, qubit: int, controls=()) -> GateOp:
    return GateOp([[1, 0], [0, np.exp(1j * theta)]], (qubit,), controls, label=f"P({theta:.4f})")
