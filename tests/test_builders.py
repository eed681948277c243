import numpy as np
import pytest

from helpers import (
    build_qft,
    dft_matrix,
    exp_matrices,
    gate_matrix,
    matrix_with_spectrum,
    pe_powers,
    phase_estimation_reference,
    qft_reference,
    random_state,
    state_prep_reference,
)
from qpcasim import (
    Circuit,
    PhaseEstimationSpec,
    SpectralPrecisionWarning,
    StateVector,
    builders,
    build_phase_estimation,
    build_state_prep,
    circuit_unitary,
    hadamard,
    run,
    sim,
    state_prep_tree,
)

# 4-decimal amplitude vector published for the symmetric 2x2 input
ENCODED_2X2 = np.array([0.6708, 0.2236, 0.2236, 0.6708])


class TestQft:
    def test_single_qubit_is_hadamard(self):
        got = circuit_unitary(build_qft(1))
        want = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        assert np.max(np.abs(got - want)) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_matches_dft_matrix(self, n):
        got = circuit_unitary(build_qft(n))
        assert np.max(np.abs(got - dft_matrix(n))) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_textbook_reference_matches_dft_matrix(self, n):
        got = circuit_unitary(qft_reference(n))
        assert np.max(np.abs(got - dft_matrix(n))) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_one_uniformly_controlled_gate_per_qubit_then_bit_reversal(self, n):
        ops = build_qft(n).ops
        assert len(ops) == n + (n > 1)
        for i, op in enumerate(ops[:n]):
            assert op.targets == tuple(range(i + 1, n)) + (i,)
            assert op.controls == ()
            assert op.matrix.shape == (1 << (n - 1 - i), 2, 2)
        if n > 1:
            reverse = ops[n]
            assert reverse.targets == tuple(range(n))
            for x in range(1 << n):
                bits = format(x, f"0{n}b")
                assert reverse.matrix[int(bits[::-1], 2), x] == 1

    def test_gates_shared_but_circuit_fresh(self):
        first = build_qft(3)
        first.append(hadamard(0))
        second = build_qft(3)
        assert len(second) == 4 and len(first) == 5
        assert all(a is b for a, b in zip(first, second))

    def test_inverse_is_identity(self):
        c = Circuit(3, build_qft(3).ops + build_qft(3).inverse().ops)
        assert np.max(np.abs(circuit_unitary(c) - np.eye(8))) < 1e-12

    def test_uniform_superposition_from_zero(self):
        s = run(StateVector.zero(2), build_qft(2))
        assert np.max(np.abs(s.amps - 0.25 ** 0.5)) < 1e-12


def pe_exponentials(spec):
    """The exponentials phase estimation applies, V D_b V^T for b = 2**p,
    in the order of their powers p = 0 .. n-1."""
    n, m = spec.eig_bits, spec.num_target_qubits
    pe = build_phase_estimation(spec, range(n), range(n, n + m))
    return list(pe_powers(pe, n)[1 << np.arange(n)])


class TestMatrixExponential:
    def test_zero_matrix_gives_identity(self):
        spec = PhaseEstimationSpec(np.zeros((2, 2)), eig_bits=2)
        for u in pe_exponentials(spec):
            assert np.max(np.abs(u - np.eye(2))) < 1e-12

    def test_diagonal_spectrum_powers(self, matrix_c):
        # exp(2.pi.i.C/4) = diag(1, i, -1, -i); squaring it gives
        # diag(1, -1, 1, -1).  The top-left entry is 1 in both.
        spec = PhaseEstimationSpec(matrix_c, eig_bits=2)
        u0, u1 = pe_exponentials(spec)
        assert np.max(np.abs(u0 - np.diag([1, 1j, -1, -1j]))) < 1e-10
        assert np.max(np.abs(u1 - np.diag([1, -1, 1, -1]))) < 1e-10

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_power_is_repeated_squaring(self):
        rng = np.random.default_rng(3)
        g = rng.standard_normal((4, 4))
        spec = PhaseEstimationSpec(g + g.T, eig_bits=3)
        u0, _, u2 = pe_exponentials(spec)
        assert np.max(np.abs(np.linalg.matrix_power(u0, 4) - u2)) < 1e-9

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_every_power_matches_the_exponential(self):
        # V D_b V^T is exp(2 pi i A b / 2**n) for every register value b,
        # against powers of exp(2 pi i A / 2**n) from an eigh of its own
        rng = np.random.default_rng(5)
        for n in (1, 2, 3, 4):
            for dim in (2, 4):
                g = rng.standard_normal((dim, dim))
                spec = PhaseEstimationSpec(g + g.T + 2 * np.eye(dim), eig_bits=n)
                pe = build_phase_estimation(spec, range(n), range(n, n + dim.bit_length() - 1))
                u = exp_matrices(spec, (0,))[0]
                for b, got in enumerate(pe_powers(pe, n)):
                    assert np.max(np.abs(got - np.linalg.matrix_power(u, b))) < 1e-10, (n, dim, b)

    def test_rejects_asymmetric_matrix(self):
        with pytest.raises(ValueError, match="symmetric"):
            PhaseEstimationSpec(np.array([[1.0, 2.0], [0.0, 1.0]]), eig_bits=2)

    def test_rejects_non_power_of_two_dimension(self):
        with pytest.raises(ValueError, match="power of two"):
            PhaseEstimationSpec(np.eye(3), eig_bits=2)

    def test_warns_when_spectrum_exceeds_register(self):
        with pytest.warns(SpectralPrecisionWarning):
            PhaseEstimationSpec(np.diag([5.0, 1.0]), eig_bits=2)


def pe_input(lam_bits, u):
    """|0..0> on the eigenvalue register tensor a data state."""
    reg = np.zeros(1 << lam_bits)
    reg[0] = 1.0
    return StateVector(np.kron(reg, u))


class TestPhaseEstimation:
    def test_reads_eigenvalue_two(self, matrix_a):
        spec = PhaseEstimationSpec(matrix_a, eig_bits=2)
        pe = build_phase_estimation(spec, (0, 1), (2,))
        u1 = np.array([1.0, 1.0]) / np.sqrt(2)
        got = run(pe_input(2, u1), pe).amps
        want = np.kron(np.eye(4)[2], u1)
        assert np.max(np.abs(got - want)) < 1e-9

    def test_reads_eigenvalue_one(self, matrix_a):
        spec = PhaseEstimationSpec(matrix_a, eig_bits=2)
        pe = build_phase_estimation(spec, (0, 1), (2,))
        u2 = np.array([1.0, -1.0]) / np.sqrt(2)
        got = run(pe_input(2, u2), pe).amps
        want = np.kron(np.eye(4)[1], u2)
        assert np.max(np.abs(got - want)) < 1e-9

    def test_diagonal_matrix_basis_vector(self, matrix_c):
        spec = PhaseEstimationSpec(matrix_c, eig_bits=2)
        pe = build_phase_estimation(spec, (0, 1), (2, 3))
        got = run(pe_input(2, np.eye(4)[3]), pe).amps
        want = np.kron(np.eye(4)[3], np.eye(4)[3])  # eigenvalue 3 on |e3>
        assert np.max(np.abs(got - want)) < 1e-9

    def test_zero_matrix_leaves_register_at_zero(self):
        spec = PhaseEstimationSpec(np.zeros((2, 2)), eig_bits=2)
        pe = build_phase_estimation(spec, (0, 1), (2,))
        u = np.array([0.6, 0.8])
        got = run(pe_input(2, u), pe).amps
        assert np.max(np.abs(got - np.kron(np.eye(4)[0], u))) < 1e-9

    def test_superposition_entangles_register(self, matrix_a):
        spec = PhaseEstimationSpec(matrix_a, eig_bits=2)
        pe = build_phase_estimation(spec, (0, 1), (2,))
        u1 = np.array([1.0, 1.0]) / np.sqrt(2)
        u2 = np.array([1.0, -1.0]) / np.sqrt(2)
        mix = 0.6 * u1 + 0.8 * u2
        got = run(pe_input(2, mix), pe).amps
        want = 0.6 * np.kron(np.eye(4)[2], u1) + 0.8 * np.kron(np.eye(4)[1], u2)
        assert np.max(np.abs(got - want)) < 1e-9

    def test_random_integer_spectra_match_analytic_form(self):
        # PE on a random eigenvector mixture must produce
        # sum_k c_k |lambda_k>|u_k> exactly, for exact register spectra
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(2, 4))
            lams = rng.integers(0, 1 << n, size=4)
            g = rng.standard_normal((4, 4))
            q, r = np.linalg.qr(g)
            q = q * np.sign(np.diagonal(r))
            mat = (q * lams) @ q.T
            spec = PhaseEstimationSpec(0.5 * (mat + mat.T), eig_bits=n)
            pe = build_phase_estimation(spec, tuple(range(n)), (n, n + 1))
            u = np.kron(random_state(rng, 1).real, [0.6, 0.8])
            u /= np.linalg.norm(u)
            got = run(pe_input(n, u), pe).amps
            want = np.zeros_like(got)
            eigvals, eigvecs = np.linalg.eigh(spec.matrix)
            for k in range(4):
                reg = np.zeros(1 << n)
                reg[int(round(eigvals[k]))] = 1.0
                want = want + (eigvecs[:, k] @ u) * np.kron(reg, eigvecs[:, k])
            assert np.max(np.abs(got - want)) < 1e-8

    def test_round_trip_restores_input(self, matrix_a):
        spec = PhaseEstimationSpec(matrix_a, eig_bits=2)
        pe = build_phase_estimation(spec, (0, 1), (2,))
        rng = np.random.default_rng(13)
        vec = np.kron(np.eye(4)[0], random_state(rng, 1))
        out = run(run(StateVector(vec), pe), pe.inverse()).amps
        assert np.max(np.abs(out - vec)) < 1e-9

    def test_matches_textbook_reference(self):
        # H, V^T, the phase gate, V and the Fourier gate against the H /
        # controlled exponential / controlled-phase / SWAP reference, as whole
        # unitaries, with no reversal of the register's bits
        rng = np.random.default_rng(29)
        for n in range(1, 6):
            for dim in (2, 4):
                m = dim.bit_length() - 1
                integer = rng.integers(0, 1 << n, size=dim).astype(float)
                approx = rng.uniform(0, (1 << n) - 1, size=dim)
                for lams in (integer, approx):
                    spec = PhaseEstimationSpec(matrix_with_spectrum(rng, lams), n)
                    lam, target = tuple(range(n)), tuple(range(n, n + m))
                    got = circuit_unitary(build_phase_estimation(spec, lam, target))
                    want = circuit_unitary(phase_estimation_reference(spec, lam, target))
                    assert np.max(np.abs(got - want)) < 1e-12, (n, dim, lams)

    def test_checks_each_matrix_once(self, monkeypatch):
        # the Hadamards and the Fourier gate are kept per register placement:
        # the first build checks the one Hadamard, V^T and the phase stack, a
        # later build V^T and the phase stack only, and the inverse nothing
        checked = []
        defect = sim._unitarity_defect
        monkeypatch.setattr(sim, "_unitarity_defect", lambda m: checked.append(m) or defect(m))
        builders._register_gates.cache_clear()
        for n in (1, 2, 3, 6):
            spec = PhaseEstimationSpec(np.diag([1.0, 0.0]), n)
            checked.clear()
            pe = build_phase_estimation(spec, range(1, n + 1), (0,))
            assert len(pe) == n + 4
            assert [m.shape for m in checked] == [(2, 2), (2, 2), (2 << n, 1, 1)]
            assert np.array_equal(checked[1], pe.ops[n].matrix)
            assert np.array_equal(checked[2], pe.ops[n + 1].matrix)
            checked.clear()
            again = build_phase_estimation(spec, range(1, n + 1), (0,))
            assert [m.shape for m in checked] == [(2, 2), (2 << n, 1, 1)]
            checked.clear()
            pe.inverse()
            assert checked == []
            assert len(again) == len(pe)
            for i, (a, b) in enumerate(zip(pe.ops, again.ops)):
                assert (a is b) == (not n <= i < n + 3)
                assert np.array_equal(a.matrix, b.matrix)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_shared_gates_keep_their_inverses(self, n):
        # every gate keeps its inverse: the Hadamards and the Fourier gate
        # come back from the cache with theirs, the Fourier gate's being the
        # forward QFT, and V^T's is V, so the inverse circuit builds no gate
        lam, q = tuple(range(2, n + 2)), n + 3
        spec = PhaseEstimationSpec(np.diag([1.0, 0.0]), n)
        pe = build_phase_estimation(spec, lam, (0,), q)
        for g in pe.ops:
            d = g.dagger()
            assert d.dagger() is g and g.dagger() is d
            assert (d.targets, d.controls) == (g.targets, g.controls)
        to_eigen, powers, from_eigen = pe.ops[n : n + 3]
        assert to_eigen.dagger() is from_eigen
        assert np.array_equal(powers.dagger().matrix, powers.matrix.conj())
        fourier = pe.ops[-1]
        assert fourier.targets == lam and fourier.controls == ()
        assert np.max(np.abs(gate_matrix(fourier) - dft_matrix(n).conj())) < 1e-12
        assert np.max(np.abs(gate_matrix(fourier.dagger()) - dft_matrix(n))) < 1e-12
        assert all(a is b.dagger() for a, b in zip(pe.inverse().ops, reversed(pe.ops)))
        again = build_phase_estimation(spec, lam, (0,), q)
        shared = pe.ops[:n] + pe.ops[-1:]
        assert all(a is b for a, b in zip(shared, again.ops[:n] + again.ops[-1:]))

    def test_register_size_mismatch(self, matrix_a):
        spec = PhaseEstimationSpec(matrix_a, eig_bits=2)
        with pytest.raises(ValueError, match="register"):
            build_phase_estimation(spec, (0, 1, 2), (3,))

    def test_target_size_mismatch(self, matrix_c):
        spec = PhaseEstimationSpec(matrix_c, eig_bits=2)
        with pytest.raises(ValueError, match="target"):
            build_phase_estimation(spec, (0, 1), (2,))

    def test_overlapping_registers(self, matrix_a):
        spec = PhaseEstimationSpec(matrix_a, eig_bits=2)
        with pytest.raises(ValueError, match="overlap"):
            build_phase_estimation(spec, (0, 1), (1,))


class TestStatePrep:
    def test_basis_vector_costs_no_gates(self):
        circ = build_state_prep([1.0, 0.0, 0.0, 0.0])
        assert len(circ) == 0

    def test_published_2x2_encoding(self):
        circ = build_state_prep(ENCODED_2X2)
        got = run(StateVector.zero(2), circ).amps
        assert np.max(np.abs(got.real - ENCODED_2X2)) < 5e-5
        assert np.max(np.abs(got - ENCODED_2X2 / np.linalg.norm(ENCODED_2X2))) < 1e-9

    def test_diagonal_matrix_encoding(self, matrix_c):
        vec = matrix_c.reshape(-1) / np.linalg.norm(matrix_c)
        got = run(StateVector.zero(4), build_state_prep(vec)).amps
        for idx, val in ((5, 1.0), (10, 2.0), (15, 3.0)):
            assert abs(got[idx] - val / np.sqrt(14)) < 1e-9
        others = np.delete(got, [5, 10, 15])
        assert np.max(np.abs(others)) < 1e-9

    def test_random_signed_vectors(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            m = int(rng.integers(1, 5))
            vec = rng.standard_normal(1 << m)
            vec /= np.linalg.norm(vec)
            got = run(StateVector.zero(m), build_state_prep(vec)).amps
            assert np.max(np.abs(got - vec)) < 1e-8

    def test_matches_per_node_builder(self):
        # one uniformly controlled Ry per level against one multi-controlled
        # Ry per tree node, on signed vectors with zeroed entries and subtrees
        rng = np.random.default_rng(71)
        for m in range(1, 9):
            for zeros in (0, 1 << (m - 1), (1 << m) - 1):
                vec = rng.standard_normal(1 << m)
                vec[rng.permutation(1 << m)[:zeros]] = 0.0
                if m > 2:
                    vec[: 1 << (m - 2)] = 0.0  # a whole zero subtree
                if not np.any(vec):
                    vec[-1] = -0.5
                circ = build_state_prep(vec)
                ref = state_prep_reference(vec)
                assert len(circ) <= m
                for op in circ:
                    level = len(op.targets) - 1
                    assert op.targets == tuple(range(level + 1))
                    assert op.matrix.shape == (1 << level, 2, 2)
                got = run(StateVector.zero(m), circ).amps
                want = run(StateVector.zero(m), ref).amps
                assert np.max(np.abs(got - want)) < 1e-12
                assert np.max(np.abs(got - vec / np.linalg.norm(vec))) < 1e-12
                if m <= 4:
                    assert np.max(np.abs(circuit_unitary(circ) - circuit_unitary(ref))) < 1e-12

    def test_tree_masses_and_angles_consistent(self):
        rng = np.random.default_rng(43)
        vec = rng.standard_normal(16)
        tree = state_prep_tree(vec)
        # parent mass = sum of child masses, at every level
        for level in range(4):
            parent = tree.node_masses[level]
            child = tree.node_masses[level + 1]
            assert np.max(np.abs(parent - (child[0::2] + child[1::2]))) < 1e-12
        # internal rotations split mass as cos^2 / sin^2
        for level in range(3):
            parent = tree.node_masses[level]
            left = tree.node_masses[level + 1][0::2]
            theta = tree.level_angles[level]
            assert np.max(np.abs(left - parent * np.cos(theta / 2) ** 2)) < 1e-12

    def test_tree_walk_reconstructs_leaves(self):
        rng = np.random.default_rng(47)
        vec = rng.standard_normal(8)
        tree = state_prep_tree(vec)
        amp = np.ones(1)
        for theta in tree.level_angles:
            new = np.empty(2 * amp.size)
            new[0::2] = amp * np.cos(theta / 2)
            new[1::2] = amp * np.sin(theta / 2)
            amp = new
        assert np.max(np.abs(amp - tree.leaf_values)) < 1e-12

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError, match="zero"):
            build_state_prep([0.0, 0.0])

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError, match="power of two"):
            build_state_prep([1.0, 2.0, 3.0])

    def test_rejects_non_finite_entry_by_index(self):
        cases = (([np.nan, 1.0], "entry 0 is nan"), ([1.0, 0.0, -np.inf, 2.0], "entry 2 is -inf"))
        for vec, entry in cases:
            with pytest.raises(ValueError, match=entry):
                state_prep_tree(vec)
            with pytest.raises(ValueError, match=entry):
                build_state_prep(vec)

    def test_levels_checked_once(self, monkeypatch):
        # the blocks of every level are checked by one unitarity test, and
        # each level's gate holds its own slice of them
        checked = []
        defect = sim._unitarity_defect
        monkeypatch.setattr(sim, "_unitarity_defect", lambda m: checked.append(m) or defect(m))
        vec = np.random.default_rng(59).standard_normal(16)
        circ = build_state_prep(vec)
        assert [m.shape for m in checked] == [(15, 2, 2)]
        assert [op.matrix.shape for op in circ] == [(1, 2, 2), (2, 2, 2), (4, 2, 2), (8, 2, 2)]
        assert np.array_equal(np.concatenate([op.matrix for op in circ]), checked[0])
        assert not any(op.matrix.flags.writeable for op in circ)

    def test_explicit_qubit_placement(self):
        # prepare on the low half of a 4-qubit register, leaving others alone
        vec = np.array([0.6, 0.8])
        circ = build_state_prep(vec, qubits=(3,), num_qubits=4)
        got = run(StateVector.zero(4), circ).amps
        want = np.zeros(16)
        want[0], want[1] = 0.6, 0.8
        assert np.max(np.abs(got - want)) < 1e-12
