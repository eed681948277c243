import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    cphase,
    dense_operator,
    dft_matrix,
    gate_matrix,
    random_state,
    random_unitary,
    swap,
)
from qpcasim import (
    Circuit,
    GateOp,
    NonUnitaryMatrixError,
    StateVector,
    ZeroProbabilityOutcome,
    apply,
    build_state_prep,
    circuit_unitary,
    hadamard,
    pauli_x,
    post_select,
    run,
    ry,
    sample,
    sim,
)
from qpcasim.sim import ROUNDOFF


class TestStateVector:
    def test_zero_state(self):
        s = StateVector.zero(3)
        assert s.num_qubits == 3
        assert s.amps[0] == 1.0
        assert np.all(s.amps[1:] == 0.0)

    def test_basis_state_index(self):
        s = StateVector.basis(3, 5)
        assert s.amps[5] == 1.0

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            StateVector([1.0, 0.0, 0.0])

    def test_rejects_bad_norm(self):
        with pytest.raises(ValueError, match="norm"):
            StateVector([1.0, 1.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            StateVector([np.nan, 0.0])

    def test_owned_buffer_is_checked_not_copied(self):
        keys = np.array([1, 3])
        block = np.zeros((2, 2), dtype=np.complex128)
        block[1, 0] = 1.0
        s = StateVector._owned(3, 2, keys, block)
        got_keys, got_block = s.rows(2)
        assert np.shares_memory(got_block, block) and not got_block.flags.writeable
        assert np.shares_memory(got_keys, keys) and not got_keys.flags.writeable
        for bad in ([[1.0, 1.0], [0.0, 0.0]], [[np.nan, 0.0], [0.0, 0.0]], [[1.0, 0.0, 0.0]]):
            with pytest.raises(ValueError):
                StateVector._owned(3, 2, np.array([0, 1]), np.array(bad, dtype=np.complex128))

    def test_amps_frozen(self):
        s = StateVector.zero(2)
        with pytest.raises(ValueError):
            s.amps[0] = 0.5

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(11)
        s = StateVector(random_state(rng, 4))
        assert abs(s.probabilities().sum() - 1.0) < 1e-12

    def test_basis_index_out_of_range(self):
        with pytest.raises(ValueError):
            StateVector.basis(2, 4)


class TestGateOp:
    def test_rejects_non_unitary(self):
        with pytest.raises(NonUnitaryMatrixError):
            GateOp([[1, 0], [0, 2]], (0,))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            GateOp(np.eye(4), (0,))

    def test_rejects_target_control_overlap(self):
        with pytest.raises(ValueError, match="overlap"):
            GateOp(np.eye(2), (0,), controls=((0, 1),))

    def test_rejects_bad_polarity(self):
        with pytest.raises(ValueError, match="polarity"):
            GateOp(np.eye(2), (0,), controls=((1, 2),))

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError, match="negative"):
            GateOp(np.eye(2), (-1,))

    def test_accepts_tiny_unitarity_defect(self):
        m = np.eye(2) + 1e-12
        GateOp(m, (0,))  # defect well under tolerance

    def test_non_finite_matrix_rejected(self):
        # NaN and infinity fail every tolerance comparison, so they must not pass as small
        with pytest.raises(NonUnitaryMatrixError):
            GateOp([[np.nan, 0], [0, 1]], 0)
        with pytest.raises(NonUnitaryMatrixError):
            GateOp(np.full((2, 2, 2), np.inf), (0, 1))
        with pytest.raises(NonUnitaryMatrixError):
            GateOp(np.array([1.0, np.nan]).reshape(2, 1, 1), (0,))
        with pytest.raises(ValueError, match="entry 0 is nan"):
            build_state_prep([np.nan, 1.0])

    def test_large_permutation_accepted(self):
        # cyclic shift on 6 qubits, given as a dense matrix
        size = 64
        perm = np.zeros((size, size))
        for i in range(size):
            perm[(i + 5) % size, i] = 1.0
        op = GateOp(perm, tuple(range(6)))
        assert op.matrix.shape == (size, size)

    def test_permutation_with_duplicate_column_rejected(self):
        m = np.zeros((4, 4))
        m[0, 0] = m[0, 1] = 1.0
        m[1, 2] = m[2, 3] = 1.0
        with pytest.raises(NonUnitaryMatrixError):
            GateOp(m, (0, 1))

    def test_dagger_inverts(self):
        rng = np.random.default_rng(5)
        op = GateOp(random_unitary(rng, 4), (0, 1))
        prod = op.matrix @ op.dagger().matrix
        assert np.max(np.abs(prod - np.eye(4))) < 1e-12

    def test_gather_map_is_stored_as_integers(self):
        # the table [1, 0] adds 1 to qubit 0 where qubit 1 reads 0: an X on
        # qubit 0 controlled by qubit 1 at polarity 0.  Any integer is a
        # valid entry; it is stored modulo 2**(k-r)
        op = GateOp([-3, 4], (0, 1))
        assert op.matrix.ndim == 1 and op.matrix.dtype.kind == "i"
        assert op.matrix.tolist() == [1, 0]
        assert np.array_equal(gate_matrix(op), dense_operator(pauli_x(0, controls=((1, 0),)), 2))
        with pytest.raises(ValueError):
            op.matrix[0] = 0

    def test_gather_map_wrong_length_rejected(self):
        # the table needs 2**r entries with r < k: at least one target holds the sum
        for size, targets in ((8, (0, 1)), (4, (0, 1)), (3, (0, 1, 2)), (0, (0,))):
            with pytest.raises(ValueError, match="length"):
                GateOp(np.arange(size), targets)

    def test_one_dimensional_float_array_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            GateOp(np.array([1.0, 0.0, 3.0, 2.0]), (0, 1))

    def test_gather_map_dagger_inverts(self):
        rng = np.random.default_rng(6)
        op = GateOp(rng.integers(-20, 20, size=4), (0, 1, 2, 3), controls=((4, 0),))
        inv = op.dagger()
        assert inv.controls == op.controls and inv.targets == op.targets
        assert np.array_equal((op.matrix + inv.matrix) % 4, np.zeros(4))
        assert np.array_equal(gate_matrix(op) @ gate_matrix(inv), np.eye(16))

    def test_block_gate_expands_to_block_diagonal(self):
        x = np.array([[0, 1], [1, 0]])
        h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        op = GateOp(np.stack([x, h]), (0, 1))
        want = np.zeros((4, 4))
        want[:2, :2], want[2:, 2:] = x, h
        assert op.matrix.shape == (2, 2, 2)
        assert np.max(np.abs(gate_matrix(op) - want)) < 1e-15

    def test_block_gate_and_dagger_match_dense_operator(self):
        # random block stacks of every split of k targets into (block
        # selectors, acted-on qubits), controlled with mixed polarities
        rng = np.random.default_rng(59)
        for _ in range(40):
            q = int(rng.integers(1, 6))
            k = int(rng.integers(1, min(3, q) + 1))
            d = 1 << int(rng.integers(0, k + 1))
            wires = [int(w) for w in rng.permutation(q)]
            n_ctrl = int(rng.integers(0, q - k + 1))
            controls = tuple((w, int(rng.integers(0, 2))) for w in wires[k : k + n_ctrl])
            blocks = np.stack([random_unitary(rng, d) for _ in range((1 << k) // d)])
            op = GateOp(blocks, tuple(wires[:k]), controls)
            inv = op.dagger()
            assert inv.matrix.shape == blocks.shape
            vec = random_state(rng, q)
            full = dense_operator(op, q)
            assert np.max(np.abs(apply(StateVector(vec), op).amps - full @ vec)) < 1e-12
            assert np.max(np.abs(dense_operator(inv, q) - full.conj().T)) < 1e-12
            assert np.max(np.abs(apply(StateVector(vec), inv).amps - full.conj().T @ vec)) < 1e-12

    def test_non_unitary_block_rejected(self):
        blocks = np.stack([np.eye(2), [[1, 0], [0, 2]]])
        with pytest.raises(NonUnitaryMatrixError):
            GateOp(blocks, (0, 1))

    def test_block_shape_mismatch_rejected(self):
        # the blocks must be square and together span exactly the targets
        for blocks, targets in (
            (np.stack([np.eye(2)] * 2), (0,)),
            (np.stack([np.eye(2)] * 4), (0, 1)),
            (np.ones((1, 2, 4)), (0, 1)),
        ):
            with pytest.raises(ValueError, match="shape"):
                GateOp(blocks, targets)

    def test_dagger_and_remap_check_the_matrix_no_more(self, monkeypatch):
        checks = []
        defect = sim._unitarity_defect
        monkeypatch.setattr(sim, "_unitarity_defect", lambda m: checks.append(1) or defect(m))
        rng = np.random.default_rng(7)
        op = GateOp(random_unitary(rng, 4), (0, 1), controls=((2, 0),))
        inv = op.dagger().remap([3, 1, 0])
        assert len(checks) == 1
        assert inv.targets == (3, 1) and inv.controls == ((0, 0),)
        assert not inv.matrix.flags.writeable
        assert np.max(np.abs(inv.matrix @ op.matrix - np.eye(4))) < 1e-12
        # the wiring of a remapped gate is still checked
        with pytest.raises(ValueError, match="overlap"):
            op.remap([1, 1, 0])
        with pytest.raises(ValueError, match="negative"):
            op.remap([0, 1, -1])

    def test_bare_int_control_means_polarity_one(self):
        op = pauli_x(1, controls=(0,))
        assert op.controls == ((0, 1),)

    def test_dagger_is_built_anew_unless_kept(self):
        # a per-call gate holds no inverse: it would keep both matrices alive
        rng = np.random.default_rng(11)
        for gate in (random_unitary(rng, 4), np.array([1]), np.stack([np.eye(2)] * 2)):
            op = GateOp(gate, (0, 1))
            assert op.dagger() is not op.dagger()
            inv = op.keep_inverse()
            assert op.dagger() is inv and inv.dagger() is op and op.keep_inverse() is inv
            if gate.ndim == 1:
                assert inv.matrix.tolist() == [3]
            else:
                assert np.array_equal(inv.matrix, np.swapaxes(op.matrix.conj(), -1, -2))
            assert (inv.targets, inv.controls, inv.label) == (op.targets, op.controls, op.label)

    def test_self_inverse_gate_keeps_itself(self):
        h = hadamard(0)
        assert h.keep_inverse() is h and h.dagger() is h
        flip = GateOp(np.array([0, 1]), (0, 1))
        assert flip.keep_inverse() is flip

    def test_fourier_sign_is_one_or_minus_one(self):
        for sign in (0, 2, -3):
            with pytest.raises(ValueError, match="Fourier sign"):
                GateOp(sign, (0, 1))
        op = GateOp(-1, (0, 1))
        assert op.matrix == -1 and op.dagger().matrix == 1 and op.matrix.nbytes > 0


class TestApply:
    def test_hadamard_on_zero(self):
        s = apply(StateVector.zero(1), hadamard(0))
        assert np.allclose(s.amps, [1 / math.sqrt(2), 1 / math.sqrt(2)])

    def test_x_targets_msb_convention(self):
        # qubit 0 is the most significant bit: X on qubit 0 of |000> -> index 4
        s = apply(StateVector.zero(3), pauli_x(0))
        assert s.amps[4] == 1.0
        s = apply(StateVector.zero(3), pauli_x(2))
        assert s.amps[1] == 1.0

    def test_control_blocks_gate(self):
        s = apply(StateVector.zero(2), pauli_x(1, controls=((0, 1),)))
        assert s.amps[0] == 1.0  # control qubit is |0>, nothing happens

    def test_control_fires(self):
        s = apply(StateVector.basis(2, 2), pauli_x(1, controls=((0, 1),)))
        assert s.amps[3] == 1.0

    def test_negative_polarity_control(self):
        s = apply(StateVector.zero(2), pauli_x(1, controls=((0, 0),)))
        assert s.amps[1] == 1.0

    def test_ry_rotation(self):
        theta = 0.7365
        s = apply(StateVector.zero(1), ry(theta, 0))
        assert np.allclose(s.amps, [math.cos(theta / 2), math.sin(theta / 2)])

    def test_gate_out_of_range(self):
        with pytest.raises(ValueError, match="qubit"):
            apply(StateVector.zero(2), pauli_x(2))

    def test_matches_dense_operator(self):
        # random gates (multi-target, mixed-polarity controls) against the
        # explicit matrix built by basis enumeration
        rng = np.random.default_rng(42)
        for _ in range(40):
            q = int(rng.integers(1, 6))
            k = int(rng.integers(1, min(3, q) + 1))
            wires = list(rng.permutation(q))
            targets = tuple(wires[:k])
            n_ctrl = int(rng.integers(0, len(wires[k:]) + 1))
            controls = tuple((w, int(rng.integers(0, 2))) for w in wires[k : k + n_ctrl])
            op = GateOp(random_unitary(rng, 1 << k), targets, controls)
            vec = random_state(rng, q)
            got = apply(StateVector(vec), op).amps
            want = dense_operator(op, q) @ vec
            assert np.max(np.abs(got - want)) < 1e-12

    def test_gather_map_matches_dense_operator(self):
        # random table adds, controlled with mixed polarities, against the
        # add's matrix expanded by basis enumeration
        rng = np.random.default_rng(43)
        for _ in range(40):
            q = int(rng.integers(1, 6))
            k = int(rng.integers(1, min(3, q) + 1))
            wires = list(rng.permutation(q))
            targets = tuple(wires[:k])
            n_ctrl = int(rng.integers(0, len(wires[k:]) + 1))
            controls = tuple((w, int(rng.integers(0, 2))) for w in wires[k : k + n_ctrl])
            op = GateOp(_random_table(rng, k), targets, controls)
            vec = random_state(rng, q)
            got = apply(StateVector(vec), op).amps
            want = dense_operator(op, q) @ vec
            assert np.max(np.abs(got - want)) < 1e-12

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_table_add_matches_its_definition(self, data):
        # k >= 2 targets, r < k, entries negative and at or past 2**(k-r);
        # the gate alone (keys) and after a dense gate (block), against the
        # dense add built entry by entry, and undone by its dagger
        k = data.draw(st.integers(2, 4), label="k")
        r = data.draw(st.integers(0, k - 1), label="r")
        mod = 1 << (k - r)
        entries = st.integers(-3 * mod, 3 * mod)
        table = data.draw(st.lists(entries, min_size=1 << r, max_size=1 << r), label="table")
        q = data.draw(st.integers(k, k + 2), label="qubits")
        wires = data.draw(st.permutations(range(q)))
        n_ctrl = data.draw(st.integers(0, q - k))
        controls = tuple((w, data.draw(st.integers(0, 1))) for w in wires[k : k + n_ctrl])
        op = GateOp(np.array(table), tuple(wires[:k]), controls)
        full = dense_operator(op, q)
        vec = random_state(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))), q)
        h = hadamard(wires[-1])
        assert np.max(np.abs(apply(StateVector(vec), op).amps - full @ vec)) < 1e-12
        got = run(StateVector(vec), Circuit(q, [h, op])).amps
        assert np.max(np.abs(got - full @ dense_operator(h, q) @ vec)) < 1e-12
        assert np.array_equal(gate_matrix(op.dagger()) @ gate_matrix(op), np.eye(1 << k))
        for ops in ([op, op.dagger()], [h, op, op.dagger(), h]):
            assert np.max(np.abs(run(StateVector(vec), Circuit(q, ops)).amps - vec)) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_fourier_gate_matches_the_dft(self, data):
        # k = 1-6 targets on shuffled wires, with and without controls: the
        # gate is the unitary DFT with kernel e^(-2 pi i jk / 2**k), targets[0]
        # the top bit of j and k, and its dagger the forward DFT, against the
        # DFT written out element by element; alone and after a dense gate
        k = data.draw(st.integers(1, 6), label="k")
        q = data.draw(st.integers(k, k + 2), label="qubits")
        wires = data.draw(st.permutations(range(q)))
        n_ctrl = data.draw(st.integers(0, q - k))
        controls = tuple((w, data.draw(st.integers(0, 1))) for w in wires[k : k + n_ctrl])
        op = GateOp(-1, tuple(wires[:k]), controls)
        vec = random_state(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))), q)
        h = hadamard(wires[-1])
        for gate, dft in ((op, dft_matrix(k).conj()), (op.dagger(), dft_matrix(k))):
            full = dense_operator(GateOp(dft, gate.targets, gate.controls), q)
            assert np.max(np.abs(apply(StateVector(vec), gate).amps - full @ vec)) < 1e-12
            got = run(StateVector(vec), Circuit(q, [h, gate])).amps
            assert np.max(np.abs(got - full @ dense_operator(h, q) @ vec)) < 1e-12
        back = run(StateVector(vec), Circuit(q, [op, op.dagger()])).amps
        assert np.max(np.abs(back - vec)) < 1e-12

    def test_norm_preserved(self):
        rng = np.random.default_rng(17)
        start = s = StateVector(random_state(rng, 5))
        ops = []
        for _ in range(30):
            t = int(rng.integers(0, 5))
            ops.append(GateOp(random_unitary(rng, 2), (t,)))
            s = apply(s, ops[-1])
        assert abs(np.linalg.norm(s.amps) - 1.0) < 1e-12
        whole = run(start, Circuit(5, ops))
        assert abs(np.linalg.norm(whole.amps) - 1.0) < 1e-12

    def test_input_state_untouched(self):
        rng = np.random.default_rng(19)
        vec = random_state(rng, 4)
        s = StateVector(vec)
        op = GateOp(random_unitary(rng, 4), (2, 0), controls=((1, 0),))
        apply(s, op)
        run(s, Circuit(4, [op, pauli_x(3, controls=((2, 1),)), op.dagger()]))
        assert np.array_equal(s.amps, vec)
        assert not s.amps.flags.writeable


def _store_unchecked(state, top, keys, block):
    """Overwrite the rows ``state`` stores, bypassing every check, to build
    states ``StateVector`` would refuse."""
    state._top = top
    state._keys = np.asarray(keys)
    state._block = np.asarray(block, dtype=np.complex128)


def _random_table(rng, k):
    """A table for an add on k targets: 2**r entries, r < k, anywhere in
    [-2**k, 2**k)."""
    return rng.integers(-(1 << k), 1 << k, size=1 << int(rng.integers(0, k)))


def _random_op(rng, wires):
    """A dense, table-add or block gate on 1-3 of ``wires``, controlled
    with mixed polarities by some of the rest."""
    wires = [int(w) for w in rng.permutation(wires)]
    k = int(rng.integers(1, min(3, len(wires)) + 1))
    n_ctrl = int(rng.integers(0, len(wires) - k + 1))
    controls = tuple((w, int(rng.integers(0, 2))) for w in wires[k : k + n_ctrl])
    kind = int(rng.integers(0, 3))
    if kind == 0:
        gate = random_unitary(rng, 1 << k)
    elif kind == 1:
        gate = _random_table(rng, k)
    else:
        d = 1 << int(rng.integers(0, k + 1))
        gate = np.stack([random_unitary(rng, d) for _ in range((1 << k) // d)])
    return GateOp(gate, tuple(wires[:k]), controls)


class TestLiveRows:
    """``run`` works only on the nonzero rows of the qubits its circuit
    leaves untouched; the result must not depend on which rows those are."""

    @staticmethod
    def _zero_row_sets(rng, num_rows):
        # none; one (an inner row when there is one); a non-contiguous set;
        # every row but one
        inner = int(rng.integers(1, num_rows - 1)) if num_rows > 2 else 0
        spread = [r for r in range(num_rows) if r % 2 == 0 and r != num_rows - 1]
        survivor = int(rng.integers(0, num_rows))
        return (
            [],
            [inner],
            spread,
            [r for r in range(num_rows) if r != survivor],
        )

    def test_matches_dense_product_for_every_zero_row_pattern(self):
        rng = np.random.default_rng(61)
        scattered = 0
        for _ in range(25):
            q = int(rng.integers(3, 7))
            top = int(rng.integers(1, q - 1))
            ops = [_random_op(rng, range(top, q)) for _ in range(int(rng.integers(1, 7)))]
            circuit = Circuit(q, ops)
            unitary = np.eye(1 << q)
            for op in circuit:
                unitary = dense_operator(op, q) @ unitary
            for zero_rows in self._zero_row_sets(rng, 1 << top):
                vec = random_state(rng, q).reshape(1 << top, -1)
                vec[zero_rows] = 0.0
                vec = (vec / np.linalg.norm(vec)).reshape(-1)
                s = StateVector(vec)
                got = run(s, circuit).amps
                assert np.max(np.abs(got - unitary @ vec)) < 1e-12
                assert np.all(got.reshape(1 << top, -1)[zero_rows] == 0)
                assert np.array_equal(s.amps, vec)
                live = np.flatnonzero(np.any(vec.reshape(1 << top, -1), axis=1))
                keys, _ = s.rows(top)
                assert np.array_equal(keys, live)
                scattered += live[-1] - live[0] + 1 != live.size
        assert scattered > 0

    def test_nan_in_a_zero_row_is_rejected(self):
        # a NaN is not zero: its row is live, the NaN survives the gates and
        # the output check rejects it
        s = StateVector.basis(4, 0)
        bad = s.amps.copy()
        bad[13] = np.nan  # row 3 of qubits 0-1, otherwise zero
        _store_unchecked(s, 0, [0], bad.reshape(1, -1))
        circuit = Circuit(4, [hadamard(2), pauli_x(3, controls=((2, 1),))])
        with pytest.raises(ValueError, match="finite"):
            run(s, circuit)
        with pytest.raises(ValueError, match="finite"):
            apply(s, hadamard(3))


def _sparse_state(rng, q):
    """A random state on ``q`` qubits stored at a random split ``top``, with
    a random pattern of zero rows: none, a contiguous run, a scattered set,
    or all but one.  Some stored rows are left all zero, which a stored row
    may be.  Returns (state, dense amplitudes)."""
    top = int(rng.integers(0, q + 1))
    num_rows = 1 << top
    pattern = int(rng.integers(0, 4))
    if pattern == 0:
        live = np.arange(num_rows)
    elif pattern == 1:
        lo = int(rng.integers(0, num_rows))
        live = np.arange(lo, int(rng.integers(lo, num_rows)) + 1)
    elif pattern == 2:
        live = np.flatnonzero(rng.random(num_rows) < 0.4)
        if live.size == 0:
            live = np.array([int(rng.integers(0, num_rows))])
    else:
        live = np.array([int(rng.integers(0, num_rows))])
    block = random_state(rng, q)[: live.size << (q - top)].reshape(live.size, -1)
    if live.size > 2:
        block[int(rng.integers(0, live.size))] = 0.0
    block[:, rng.random(block.shape[1]) < 0.3] = 0.0
    nrm = np.linalg.norm(block)
    if nrm == 0:
        block[0, 0], nrm = 1.0, 1.0
    block = block / nrm
    dense = np.zeros((num_rows, 1 << (q - top)), dtype=complex)
    dense[live] = block
    return StateVector._owned(q, top, live, block), dense.reshape(-1)


class TestLiveRowState:
    """Random sparse states, stored at random splits, against their dense
    amplitudes and ``helpers.dense_operator``."""

    def test_rows_at_every_split_round_trip(self):
        rng = np.random.default_rng(71)
        for _ in range(40):
            q = int(rng.integers(3, 9))
            s, dense = _sparse_state(rng, q)
            assert np.array_equal(s.amps, dense)
            for top in range(q + 1):
                keys, block = s.rows(top)
                assert np.all(np.diff(keys) > 0) and block.shape == (keys.size, 1 << (q - top))
                assert not block.flags.writeable
                rows = dense.reshape(1 << top, -1)
                assert np.array_equal(block, rows[keys])
                others = np.setdiff1d(np.arange(1 << top), keys)
                assert not np.any(rows[others])
                # a split finer than the stored one keeps no zero row
                if top > s._top:
                    assert np.all(np.any(block, axis=1))
                back = StateVector._owned(q, top, keys.copy(), block.copy())
                assert np.array_equal(back.amps, dense)
                for again in range(q + 1):
                    k2, b2 = back.rows(again)
                    k1, b1 = s.rows(again)
                    full1 = np.zeros((1 << again, b1.shape[1]), dtype=complex)
                    full2 = full1.copy()
                    full1[k1], full2[k2] = b1, b2
                    assert np.array_equal(full1, full2)

    def test_circuits_match_dense_operator(self):
        # dense, block and table-add gates together (every gate on the
        # block), and circuits of table adds alone, on qubits inside the
        # stored key, across the key and the block, and inside the block
        rng = np.random.default_rng(73)
        kinds = set()
        for _ in range(60):
            q = int(rng.integers(3, 9))
            s, dense = _sparse_state(rng, q)
            if rng.integers(0, 2):
                ops = [_random_op(rng, range(q)) for _ in range(int(rng.integers(1, 5)))]
            else:
                ops = []
                for _ in range(int(rng.integers(1, 4))):
                    wires = [int(w) for w in rng.permutation(q)]
                    k = int(rng.integers(1, min(3, q) + 1))
                    n_ctrl = int(rng.integers(0, q - k + 1))
                    controls = tuple((w, int(rng.integers(0, 2))) for w in wires[k : k + n_ctrl])
                    ops.append(GateOp(_random_table(rng, k), tuple(wires[:k]), controls))
                hi = max(op.max_qubit() for op in ops)
                lo = min(op.min_qubit() for op in ops)
                kinds.add("key" if hi < s._top else "block" if lo >= s._top else "across")
            want = dense
            for op in ops:
                want = dense_operator(op, q) @ want
            got = run(s, Circuit(q, ops))
            assert np.max(np.abs(got.amps - want)) < 1e-12
            assert np.array_equal(s.amps, dense)
            if len(ops) == 1:
                assert np.max(np.abs(apply(s, ops[0]).amps - want)) < 1e-12
        assert kinds == {"key", "across", "block"}

    def test_one_gate_across_splits_keeps_a_plan_per_split(self):
        # the same gate objects run at several (num_qubits, top) pairs, in
        # both kernels, in alternation: a plan kept from one split must never
        # be used at another
        rng = np.random.default_rng(83)
        dense_op = GateOp(random_unitary(rng, 4), (3, 5), controls=((4, 0),))
        block_op = GateOp(np.stack([random_unitary(rng, 2) for _ in range(2)]), (4, 3))
        map_op = GateOp(np.array([1, -2]), (5, 3, 4))
        for _ in range(2):
            for q in (6, 7, 8):
                for lo in range(3):
                    # a gate on qubit lo sets the circuit's top
                    for op in (dense_op, block_op, map_op):
                        s = StateVector(random_state(rng, q))
                        circ = Circuit(q, [hadamard(lo), op])
                        want = dense_operator(op, q) @ dense_operator(circ.ops[0], q) @ s.amps
                        assert np.max(np.abs(run(s, circ).amps - want)) < 1e-12
                    # the table add alone permutes the keys of a state stored
                    # at qubit 6, 7 or 8
                    top = min(6 + lo, q)
                    keys, block = StateVector(random_state(rng, q)).rows(top)
                    s = StateVector._owned(q, top, keys.copy(), block.copy())
                    want = dense_operator(map_op, q) @ s.amps
                    assert np.max(np.abs(apply(s, map_op).amps - want)) < 1e-12
        assert set(dense_op._plans) == {("rows", q, lo) for q in (6, 7, 8) for lo in range(3)}
        assert {k for k in map_op._plans if k[0] == "keys"} == {("keys", t) for t in (6, 7, 8)}
        # an inverse shares the plans of its gate, and they hold for it too
        for op in (dense_op, block_op, map_op):
            inv = op.dagger()
            assert inv._plans is op._plans
            for q in (6, 7, 8):
                s = StateVector(random_state(rng, q))
                assert np.max(np.abs(run(s, Circuit(q, [op, inv])).amps - s.amps)) < 1e-12

    def test_key_permutation_moves_no_amplitude_value(self):
        # a table add inside the key only relabels rows
        rng = np.random.default_rng(79)
        s, dense = _sparse_state(rng, 6)
        while s._top < 3:
            s, dense = _sparse_state(rng, 6)
        op = GateOp(np.array([1, 0]), (s._top - 1, 0), controls=((1, 0),))
        got = apply(s, op)
        _, block = s.rows(s._top)
        _, new_block = got.rows(s._top)
        assert sorted(map(bytes, new_block)) == sorted(map(bytes, block))
        assert np.array_equal(got.amps, dense_operator(op, 6) @ dense)

    def test_post_select_probabilities_and_sample(self):
        rng = np.random.default_rng(83)
        for trial in range(40):
            q = int(rng.integers(3, 9))
            s, dense = _sparse_state(rng, q)
            assert np.array_equal(s.probabilities(), np.abs(dense) ** 2)
            qubit = int(rng.integers(0, q))
            bits = (np.arange(dense.size) >> (q - 1 - qubit)) & 1
            for outcome in (0, 1):
                mass = float(np.sum(np.abs(dense[bits == outcome]) ** 2))
                if mass < 1e-12:
                    with pytest.raises(ZeroProbabilityOutcome):
                        post_select(s, qubit, outcome)
                    continue
                prob, collapsed = post_select(s, qubit, outcome)
                want = np.where(bits == outcome, dense, 0) / math.sqrt(mass)
                assert abs(prob - mass) < 1e-12
                assert np.max(np.abs(collapsed.amps - want)) < 1e-12
            # the draw over live amplitudes is the dense multinomial, both over
            # probabilities rounded to multiples of ROUNDOFF
            p = np.rint(np.abs(s.amps) ** 2 / ROUNDOFF)
            counts = np.random.default_rng(trial).multinomial(4096, p / p.sum())
            want = {int(i): int(counts[i]) for i in np.flatnonzero(counts)}
            assert sample(s, 4096, seed=trial) == want

    def test_nan_in_a_position_no_stored_row_would_keep_is_rejected(self):
        # a NaN where the rest of its row is zero: splitting finer keeps its
        # sub-row, merging keeps it, and a key permutation keeps its row
        for top, index in ((0, 13), (2, 13), (4, 6), (1, 2)):
            s = StateVector.basis(4, 0)
            rows = np.zeros((1 << top, 1 << (4 - top)), dtype=complex)
            rows.reshape(-1)[0] = 1.0
            rows.reshape(-1)[index] = np.nan
            live = np.flatnonzero(np.any(rows, axis=1))
            _store_unchecked(s, top, live, rows[live])
            for circuit in (
                Circuit(4, [hadamard(3)]),
                Circuit(4, [hadamard(0), hadamard(2)]),
                Circuit(4, [GateOp([1], (0,))]),
                Circuit(4, [GateOp([1, 0], (3, 2))]),
            ):
                with pytest.raises(ValueError, match="finite"):
                    run(s, circuit)
            with pytest.raises(ValueError, match="finite"), np.errstate(invalid="ignore"):
                post_select(s, 3, (index & 1))

    def test_owned_rejects_bad_keys(self):
        block = np.full((2, 2), 0.5, dtype=complex)
        for keys in ([1, 0], [0, 0], [0, 4], [-1, 0]):
            with pytest.raises(ValueError, match="keys"):
                StateVector._owned(3, 2, np.array(keys), block)


class TestCircuit:
    def test_append_validates_width(self):
        with pytest.raises(ValueError, match="qubit"):
            Circuit(2).append(pauli_x(5))

    def test_run_matches_apply_and_dense_product(self):
        # random circuits mixing dense and table-add gates, targets in
        # unsorted order, controls of both polarities between the targets
        rng = np.random.default_rng(47)
        interleaved = 0
        for _ in range(30):
            q = int(rng.integers(2, 7))
            circuit = Circuit(q)
            for _ in range(int(rng.integers(1, 9))):
                k = int(rng.integers(1, min(3, q) + 1))
                wires = [int(w) for w in rng.permutation(q)]
                targets = tuple(wires[:k])
                n_ctrl = int(rng.integers(0, q - k + 1))
                controls = tuple((w, int(rng.integers(0, 2))) for w in wires[k : k + n_ctrl])
                if rng.integers(0, 2):
                    gate = random_unitary(rng, 1 << k)
                else:
                    gate = _random_table(rng, k)
                circuit.append(GateOp(gate, targets, controls))
                interleaved += any(min(targets) < c < max(targets) for c, _ in controls)
            vec = random_state(rng, q)
            got = run(StateVector(vec), circuit).amps
            stepped = StateVector(vec)
            want = vec
            for op in circuit:
                stepped = apply(stepped, op)
                want = dense_operator(op, q) @ want
            assert np.max(np.abs(got - stepped.amps)) < 1e-12
            assert np.max(np.abs(got - want)) < 1e-12
        assert interleaved > 0

    def test_empty_circuit_copies_input(self):
        s = StateVector(random_state(np.random.default_rng(53), 3))
        out = run(s, Circuit(3))
        assert np.array_equal(out.amps, s.amps)
        assert not np.shares_memory(out.amps, s.amps)

    def test_hadamard_squares_to_identity(self):
        c = Circuit(1, [hadamard(0), hadamard(0)])
        s = run(StateVector.zero(1), c)
        assert np.max(np.abs(s.amps - [1, 0])) < 1e-12

    def test_run_width_mismatch(self):
        with pytest.raises(ValueError, match="width"):
            run(StateVector.zero(2), Circuit(3))

    def test_inverse_undoes_random_circuit(self):
        rng = np.random.default_rng(23)
        c = Circuit(4)
        for _ in range(12):
            t = int(rng.integers(0, 4))
            c.append(GateOp(random_unitary(rng, 2), (t,)))
        vec = random_state(rng, 4)
        round_trip = run(run(StateVector(vec), c), c.inverse())
        assert np.max(np.abs(round_trip.amps - vec)) < 1e-9

    def test_concatenation_equals_sequential(self):
        rng = np.random.default_rng(29)
        c1 = Circuit(3, [GateOp(random_unitary(rng, 2), (i,)) for i in range(3)])
        c2 = Circuit(3, [cphase(0.4, 0, 2), hadamard(1)])
        vec = random_state(rng, 3)
        joint = run(StateVector(vec), Circuit(3, c1.ops + c2.ops))
        stepped = run(run(StateVector(vec), c1), c2)
        assert np.array_equal(joint.amps, stepped.amps)

    def test_deterministic_replay(self):
        rng = np.random.default_rng(31)
        c = Circuit(3, [GateOp(random_unitary(rng, 2), (int(rng.integers(0, 3)),)) for _ in range(8)])
        a = run(StateVector.zero(3), c)
        b = run(StateVector.zero(3), c)
        assert np.array_equal(a.amps, b.amps)

    def test_remap_embeds_into_wider_register(self):
        c = Circuit(1, [pauli_x(0)]).remap([2], 3)
        s = run(StateVector.zero(3), c)
        assert s.amps[1] == 1.0

    def test_remap_length_mismatch(self):
        with pytest.raises(ValueError, match="qubit_map"):
            Circuit(2).remap([0], 3)

    def test_circuit_unitary_of_cnot(self):
        c = Circuit(2, [pauli_x(1, controls=((0, 1),))])
        want = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
        assert np.max(np.abs(circuit_unitary(c) - want)) < 1e-12

    def test_swap_gate(self):
        s = run(StateVector.basis(2, 2), Circuit(2, [swap(0, 1)]))
        assert s.amps[1] == 1.0


class TestPostSelect:
    def test_plus_state(self):
        s = apply(StateVector.zero(1), hadamard(0))
        prob, collapsed = post_select(s, 0, 1)
        assert abs(prob - 0.5) < 1e-12
        assert abs(collapsed.amps[1] - 1.0) < 1e-12

    def test_outcome_probabilities_sum(self):
        rng = np.random.default_rng(37)
        s = StateVector(random_state(rng, 3))
        p0, _ = post_select(s, 1, 0)
        p1, _ = post_select(s, 1, 1)
        assert abs(p0 + p1 - 1.0) < 1e-12

    def test_collapsed_state_is_normalized(self):
        rng = np.random.default_rng(41)
        s = StateVector(random_state(rng, 3))
        _, collapsed = post_select(s, 2, 1)
        assert abs(np.linalg.norm(collapsed.amps) - 1.0) < 1e-12

    def test_impossible_outcome_raises(self):
        with pytest.raises(ZeroProbabilityOutcome):
            post_select(StateVector.zero(2), 0, 1)

    def test_bad_outcome_value(self):
        with pytest.raises(ValueError, match="outcome"):
            post_select(StateVector.zero(2), 0, 2)


class TestSample:
    def test_basis_state_all_shots(self):
        assert sample(StateVector.basis(2, 3), 100, seed=0) == {3: 100}

    def test_counts_sum_to_shots(self):
        s = apply(apply(StateVector.zero(2), hadamard(0)), hadamard(1))
        counts = sample(s, 8192, seed=1)
        assert sum(counts.values()) == 8192

    def test_uniform_within_four_sigma(self):
        s = apply(apply(StateVector.zero(2), hadamard(0)), hadamard(1))
        counts = sample(s, 8192, seed=2)
        sigma = math.sqrt(8192 * 0.25 * 0.75)
        for i in range(4):
            assert abs(counts.get(i, 0) - 2048) < 4 * sigma

    def test_deterministic_per_seed(self):
        s = apply(apply(StateVector.zero(2), hadamard(0)), hadamard(1))
        assert sample(s, 500, seed=9) == sample(s, 500, seed=9)

    def test_seed_changes_counts(self):
        s = apply(apply(StateVector.zero(2), hadamard(0)), hadamard(1))
        assert sample(s, 500, seed=0) != sample(s, 500, seed=1)

    def test_rejects_zero_shots(self):
        with pytest.raises(ValueError, match="shots"):
            sample(StateVector.zero(1), 0, seed=0)
