import dataclasses
import gc
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from helpers import (
    flip_permutation_matrix,
    gate_matrix,
    matrix_with_spectrum,
    random_integer_spectrum_matrix,
    reference_pipeline,
    simulated_matrix,
)
from qpcasim import (
    AllComponentsFiltered,
    FilterParams,
    HermitianInput,
    NoShotAccepted,
    PhaseEstimationSpec,
    QpcaConfig,
    RegisterLayout,
    SpectralPrecisionWarning,
    StateVector,
    ZeroProbabilityOutcome,
    ancilla_flip_gate,
    apply,
    build_filter_table,
    build_filter_unitary,
    build_phase_estimation,
    build_register_shift,
    build_state_prep,
    classical_pca_oracle,
    exact_shrink_table,
    fidelity,
    lambda_register_histogram,
    make_layout,
    pipeline,
    post_select,
    run,
    run_qpca,
    sim,
    uncompute,
)
from qpcasim.sim import ROUNDOFF


class TestHermitianInput:
    def test_spectrum_sorted_descending(self, matrix_a):
        hin = HermitianInput.from_matrix(matrix_a)
        assert np.allclose(hin.eigenvalues, [2.0, 1.0])
        assert hin.rank == 2

    def test_eigenvectors_pair_with_eigenvalues(self, matrix_a):
        hin = HermitianInput.from_matrix(matrix_a)
        for k in range(2):
            u = hin.eigenvectors[:, k]
            assert np.allclose(matrix_a @ u, hin.eigenvalues[k] * u)

    def test_rank_ignores_zero_eigenvalues(self, matrix_c):
        assert HermitianInput.from_matrix(matrix_c).rank == 3

    def test_amplitude_encoding_is_flattened_and_normalized(self, matrix_a):
        hin = HermitianInput.from_matrix(matrix_a)
        got = hin.amplitude_encoding
        assert abs(np.linalg.norm(got) - 1.0) < 1e-12
        assert np.allclose(got * np.linalg.norm(matrix_a), matrix_a.reshape(-1))

    def test_encoding_equals_eigen_expansion(self, matrix_a):
        # sum_k sigma_k (u_k tensor u_k) must equal the flattened matrix
        hin = HermitianInput.from_matrix(matrix_a)
        sigma = hin.eigenvalues / np.linalg.norm(hin.eigenvalues)
        expansion = sum(
            sigma[k] * np.kron(hin.eigenvectors[:, k], hin.eigenvectors[:, k])
            for k in range(2)
        )
        assert np.max(np.abs(expansion - hin.amplitude_encoding)) < 1e-12

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            HermitianInput.from_matrix([[1.0, 2.0], [0.0, 1.0]])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            HermitianInput.from_matrix(np.ones((2, 3)))

    def test_one_symmetry_tolerance_from_input_to_phase_estimation(self):
        # an asymmetry the input accepts must not be refused further down
        near = np.array([[1.5, 0.5], [0.5 + 5e-10, 1.5]])
        r = run_qpca(HermitianInput.from_matrix(near), QpcaConfig(tau=1.0, n_bits=2))
        assert r.kept_eigenvalues == pytest.approx((2.0,)) and r.fidelity > 1 - 1e-9
        far = np.array([[1.5, 0.5], [0.5 + 2e-9, 1.5]])
        with pytest.raises(ValueError, match="symmetric"):
            HermitianInput.from_matrix(far)
        with pytest.raises(ValueError, match="symmetric"):
            PhaseEstimationSpec(far, eig_bits=2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entries(self, bad):
        # every tolerance test is false for NaN, so finiteness is checked first
        m = np.array([[1.5, 0.5], [0.5, 1.5]])
        m[0, 1] = m[1, 0] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"entry \(0,1\) is .*not a finite number"):
                HermitianInput.from_matrix(m)
            with pytest.raises(ValueError, match="not a finite number"):
                PhaseEstimationSpec(m, eig_bits=2)

    def test_large_entries_reproduce_within_their_scale(self):
        # eigh reproduces this matrix to 1.4e-9, eps * max|A| being 5.6e-10:
        # an absolute 1e-9 refused a valid input
        m = np.array([[2e6, 2e6], [2e6, 2.5e6]])
        hin = HermitianInput.from_matrix(m)
        recon = (hin.eigenvectors * hin.eigenvalues) @ hin.eigenvectors.T
        assert np.max(np.abs(recon - m)) < 1e-9 * 2.5e6
        rng = np.random.default_rng(4)
        for _ in range(20):
            q, _ = np.linalg.qr(rng.standard_normal((16, 16)))
            big = (q * rng.uniform(0.0, 1e6, 16)) @ q.T
            HermitianInput.from_matrix((big + big.T) / 2)

    def test_zero_matrix_has_no_encoding(self):
        hin = HermitianInput.from_matrix(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="zero"):
            hin.amplitude_encoding


class TestClassicalOracle:
    def test_keeps_top_component(self, matrix_a):
        hin = HermitianInput.from_matrix(matrix_a)
        t, vec = classical_pca_oracle(hin, FilterParams(1.0, 2))
        assert t == 1
        assert np.max(np.abs(vec - 0.5)) < 1e-12

    def test_keeps_both_components(self, matrix_a):
        hin = HermitianInput.from_matrix(matrix_a)
        t, vec = classical_pca_oracle(hin, FilterParams(0.8, 2))
        assert t == 2
        assert np.max(np.abs(vec - hin.amplitude_encoding)) < 1e-12

    def test_diagonal_matrix(self, matrix_c):
        hin = HermitianInput.from_matrix(matrix_c)
        t, vec = classical_pca_oracle(hin, FilterParams(1.8, 2))
        assert t == 2
        want = np.zeros(16)
        want[10], want[15] = 2 / np.sqrt(13), 3 / np.sqrt(13)
        assert np.max(np.abs(vec - want)) < 1e-12

    def test_nothing_survives(self, matrix_c):
        hin = HermitianInput.from_matrix(matrix_c)
        with pytest.raises(AllComponentsFiltered):
            classical_pca_oracle(hin, FilterParams(5.0, 2))


class TestFidelity:
    def test_identical_states(self):
        v = np.array([0.6, 0.8])
        assert abs(fidelity(v, v) - 1.0) < 1e-12

    def test_orthogonal_states(self):
        assert fidelity([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_accepts_state_vectors(self):
        s = StateVector([0.6, 0.8])
        assert abs(fidelity(s, [0.6, 0.8]) - 1.0) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            fidelity([1.0, 0.0], [1.0, 0.0, 0.0, 0.0])


class TestAncillaFlip:
    def test_flips_on_nonzero_y(self):
        layout = RegisterLayout(eig_bits=2, data_qubits=2)
        gate = ancilla_flip_gate(layout)
        # y = 01: ancilla flips 0 -> 1
        start = StateVector.basis(layout.num_qubits, 1 << (2 + layout.data_qubits))
        got = apply(start, gate)
        want = (1 << (layout.num_qubits - 1)) | (1 << (2 + layout.data_qubits))
        assert got.amps[want] == 1.0

    def test_identity_on_zero_y(self):
        layout = RegisterLayout(eig_bits=2, data_qubits=2)
        got = apply(StateVector.basis(layout.num_qubits, 3), ancilla_flip_gate(layout))
        assert got.amps[3] == 1.0

    @pytest.mark.parametrize("n_bits", [1, 2, 3, 4])
    def test_matches_dense_reference(self, n_bits):
        layout = RegisterLayout(eig_bits=n_bits, data_qubits=2)
        gate = ancilla_flip_gate(layout)
        assert gate.targets == (layout.ancilla,) + layout.y_reg
        assert gate.matrix.size == 1 << n_bits
        want = flip_permutation_matrix(n_bits)
        assert np.array_equal(gate_matrix(gate), want)
        assert np.array_equal(gate_matrix(gate.dagger()), want.T)
        assert np.array_equal(simulated_matrix(gate), want)
        assert np.array_equal(simulated_matrix(gate.dagger()), want.T)

    def test_involution(self):
        layout = RegisterLayout(eig_bits=2, data_qubits=2)
        gate = ancilla_flip_gate(layout)
        rng = np.random.default_rng(2)
        vec = rng.standard_normal(1 << layout.num_qubits)
        vec /= np.linalg.norm(vec)
        got = apply(apply(StateVector(vec), gate), gate)
        assert np.max(np.abs(got.amps - vec)) < 1e-12

    def test_dagger_has_its_table(self):
        gate = ancilla_flip_gate(RegisterLayout(eig_bits=3, data_qubits=2))
        assert np.array_equal(gate.dagger().matrix, gate.matrix)


def pipeline_before_measurement(hin, tau, n_bits):
    """Run the circuit up to (not including) the ancilla measurement."""
    layout = make_layout(hin, n_bits)
    spec = PhaseEstimationSpec(hin.matrix, n_bits)
    table = build_filter_table(FilterParams(tau, n_bits))
    pe = build_phase_estimation(spec, layout.lambda_reg, layout.u_reg, layout.num_qubits)
    filt = build_filter_unitary(table, layout)
    state = StateVector.zero(layout.num_qubits)
    state = run(state, build_state_prep(hin.amplitude_encoding, qubits=layout.data_reg, num_qubits=layout.num_qubits))
    state = run(state, pe)
    state = apply(state, filt)
    state = apply(state, ancilla_flip_gate(layout))
    return uncompute(state, layout, filt, pe), layout


class TestPipelineStages:
    def test_uncompute_restores_work_registers(self, matrix_a):
        hin = HermitianInput.from_matrix(matrix_a)
        state, layout = pipeline_before_measurement(hin, tau=1.0, n_bits=2)
        idx = np.arange(state.amps.size)
        work = (idx >> layout.data_qubits) & ((1 << (2 * layout.eig_bits)) - 1)
        assert np.sum(state.probabilities()[work != 0]) < 1e-9

    def test_rejected_branch_holds_discarded_components(self, matrix_a):
        # ancilla 0 carries exactly the below-threshold part of the spectrum
        hin = HermitianInput.from_matrix(matrix_a)
        state, layout = pipeline_before_measurement(hin, tau=1.0, n_bits=2)
        prob, rejected = post_select(state, layout.ancilla, 0)
        assert abs(prob - 1 / 5) < 1e-9
        u2 = hin.eigenvectors[:, 1]
        want = np.kron(u2, u2)  # only the lambda = 1 component remains
        got = rejected.amps[: want.size]
        assert abs(fidelity(got, want) - 1.0) < 1e-9

    def test_second_phase_estimation_reads_kept_eigenvalues(self, matrix_c):
        hin = HermitianInput.from_matrix(matrix_c)
        state, layout = pipeline_before_measurement(hin, tau=1.8, n_bits=2)
        _, kept = post_select(state, layout.ancilla, 1)
        spec = PhaseEstimationSpec(hin.matrix, 2)
        pe = build_phase_estimation(spec, layout.lambda_reg, layout.u_reg, layout.num_qubits)
        hist = lambda_register_histogram(run(kept, pe), layout)
        assert set(hist) == {2, 3}
        assert abs(hist[2] - 4 / 13) < 1e-9
        assert abs(hist[3] - 9 / 13) < 1e-9


class TestRunQpca:
    def test_two_by_two_tau_one(self, matrix_a):
        hin = HermitianInput.from_matrix(matrix_a)
        r = run_qpca(hin, QpcaConfig(tau=1.0, n_bits=2))
        assert abs(r.success_prob - 4 / 5) < 1e-9
        assert np.max(np.abs(r.output_amps - 0.5)) < 1e-6
        assert r.kept_count == 1 and r.kept_eigenvalues == (2.0,)
        assert set(r.lambda_histogram) == {2}
        assert abs(r.lambda_histogram[2] - 1.0) < 1e-9
        assert r.fidelity > 1 - 1e-9

    def test_two_by_two_tau_low(self, matrix_a):
        hin = HermitianInput.from_matrix(matrix_a)
        r = run_qpca(hin, QpcaConfig(tau=0.8, n_bits=2))
        assert abs(r.success_prob - 1.0) < 1e-9
        assert np.max(np.abs(r.output_amps - hin.amplitude_encoding)) < 1e-9
        assert r.kept_count == 2
        assert abs(r.lambda_histogram[1] - 1 / 5) < 1e-9
        assert abs(r.lambda_histogram[2] - 4 / 5) < 1e-9

    def test_four_by_four_tau_high(self, matrix_c):
        hin = HermitianInput.from_matrix(matrix_c)
        r = run_qpca(hin, QpcaConfig(tau=1.8, n_bits=2))
        assert abs(r.success_prob - 13 / 14) < 1e-9
        assert abs(r.output_amps[10] - 2 / np.sqrt(13)) < 1e-9
        assert abs(r.output_amps[15] - 3 / np.sqrt(13)) < 1e-9
        others = np.delete(r.output_amps, [10, 15])
        assert np.max(np.abs(others)) < 1e-6
        assert abs(r.lambda_histogram[2] - 4 / 13) < 1e-9
        assert abs(r.lambda_histogram[3] - 9 / 13) < 1e-9

    def test_four_by_four_tau_low(self, matrix_c):
        hin = HermitianInput.from_matrix(matrix_c)
        r = run_qpca(hin, QpcaConfig(tau=0.5, n_bits=2))
        assert abs(r.success_prob - 1.0) < 1e-9
        for idx, lam in ((5, 1.0), (10, 2.0), (15, 3.0)):
            assert abs(r.output_amps[idx] - lam / np.sqrt(14)) < 1e-9
        assert abs(r.lambda_histogram[1] - 1 / 14) < 1e-9
        assert abs(r.lambda_histogram[2] - 4 / 14) < 1e-9
        assert abs(r.lambda_histogram[3] - 9 / 14) < 1e-9

    def test_everything_filtered_raises(self, matrix_c):
        hin = HermitianInput.from_matrix(matrix_c)
        with pytest.raises(ZeroProbabilityOutcome):
            run_qpca(hin, QpcaConfig(tau=3.5, n_bits=2))

    def test_success_probability_law(self):
        # success = sum of kept lambda^2 over sum of all lambda^2
        rng = np.random.default_rng(61)
        for _ in range(10):
            mat, lams = random_integer_spectrum_matrix(rng, 4, n_bits=3, tau=1.5)
            hin = HermitianInput.from_matrix(mat)
            r = run_qpca(hin, QpcaConfig(tau=1.5, n_bits=3))
            want = np.sum(lams[lams > 1.5] ** 2) / np.sum(lams**2)
            assert abs(r.success_prob - want) < 1e-9

    def test_threshold_monotonicity(self, matrix_c):
        hin = HermitianInput.from_matrix(matrix_c)
        kept_sets = []
        for tau in (0.5, 1.5, 2.5):
            r = run_qpca(hin, QpcaConfig(tau=tau, n_bits=2))
            kept_sets.append(set(r.kept_eigenvalues))
        assert kept_sets[2] <= kept_sets[1] <= kept_sets[0]

    def test_oracle_equivalence_randomized(self):
        rng = np.random.default_rng(89)
        for trial in range(25):
            n = 2 if trial % 2 else 3
            dim = 2 if trial % 3 else 4
            mat, lams = random_integer_spectrum_matrix(rng, dim, n_bits=n, tau=0.5)
            hin = HermitianInput.from_matrix(mat)
            tau = float(rng.integers(0, int(lams.max()))) + 0.5
            try:
                t, expected = classical_pca_oracle(hin, FilterParams(tau, n))
            except AllComponentsFiltered:
                continue
            r = run_qpca(hin, QpcaConfig(tau=tau, n_bits=n))
            assert r.kept_count == t
            assert r.fidelity >= 1 - 1e-6, (trial, tau, lams)

    def test_reciprocal_rounding_never_reaches_output(self, matrix_a, matrix_c):
        # swapping the Newton table for the real-valued shrink table must
        # leave every output amplitude bit-identical
        for mat, tau in ((matrix_a, 1.0), (matrix_a, 0.8), (matrix_c, 1.8), (matrix_c, 0.5)):
            hin = HermitianInput.from_matrix(mat)
            config = QpcaConfig(tau=tau, n_bits=2)
            baseline = run_qpca(hin, config)
            substituted = run_qpca(
                hin, config, filter_table=exact_shrink_table(FilterParams(tau, 2))
            )
            assert np.array_equal(baseline.output_amps, substituted.output_amps)
            assert baseline.success_prob == substituted.success_prob

    def test_deterministic_replay(self, matrix_a):
        hin = HermitianInput.from_matrix(matrix_a)
        r1 = run_qpca(hin, QpcaConfig(tau=1.0, n_bits=2))
        r2 = run_qpca(hin, QpcaConfig(tau=1.0, n_bits=2))
        assert np.array_equal(r1.output_amps, r2.output_amps)
        assert r1.success_prob == r2.success_prob

    def test_gate_budget_reported(self, matrix_a):
        hin = HermitianInput.from_matrix(matrix_a)
        r = run_qpca(hin, QpcaConfig(tau=1.0, n_bits=2))
        assert r.total_gates == 78  # 3n^2 + 33n at n = 2
        assert r.layout.num_qubits == 7  # 1 + 2n + m at n = 2, m = 2

    def test_non_integer_spectrum_warns(self):
        hin = HermitianInput.from_matrix(np.diag([2.3, 1.0]))
        with pytest.warns(SpectralPrecisionWarning):
            run_qpca(hin, QpcaConfig(tau=1.5, n_bits=2))

    def test_non_integer_spectrum_keeps_its_recorded_results(self):
        # spectrum (5.3, 3.7, 2.2, 0.6) at tau 2.9, n = 4, exact mode: the
        # figures recorded when phase estimation opened with a Hadamard
        # layer.  The QFT that replaced it agrees with that layer on the
        # zero register PE1 starts from, and the second read's histogram
        # does not depend on which unitary phase estimation is
        hin = HermitianInput.from_matrix(
            matrix_with_spectrum(np.random.default_rng(7), [5.3, 3.7, 2.2, 0.6])
        )
        with pytest.warns(SpectralPrecisionWarning):
            result = run_qpca(hin, QpcaConfig(tau=2.9, n_bits=4))
        amps = [
            0.05599475997578, -0.03394521719344, 0.0019712575503, -0.1282197119424,
            -0.03394521719344, 0.4299409732916, 0.3791931441007, 0.06188912359843,
            0.001971257550301, 0.3791931441007, 0.4485325582703, -0.1278363082464,
            -0.1282197119424, 0.06188912359843, -0.1278363082464, 0.4977161063093,
        ]
        histogram = {
            3: 0.06088089348227, 4: 0.273174363133, 5: 0.5156065214584,
            6: 0.09745390777769, 7: 0.01879982982097, 8: 0.008539605257064,
            9: 0.005277321944819, 10: 0.003875943244662, 11: 0.003212257003722,
            12: 0.002937038183606, 13: 0.002940385214324, 14: 0.003240973251598,
            15: 0.004060960227856,
        }
        assert abs(result.fidelity - 0.9993502412896594) < 1e-10
        assert abs(result.success_prob - 0.8791955838591201) < 1e-10
        assert np.max(np.abs(result.output_amps - amps)) < 1e-10
        assert result.lambda_histogram.keys() == histogram.keys()
        for value, mass in histogram.items():
            assert abs(result.lambda_histogram[value] - mass) < 1e-10, value

    def test_wide_register_memory(self):
        # dim 4 at n = 6 is 17 qubits, 2 MiB per state copy; the filter and
        # flip are table adds, so no 4096 x 4096 matrix (268 MB) is built
        rng = np.random.default_rng(8)
        mat, _ = random_integer_spectrum_matrix(rng, 4, 6, tau=20.5)
        hin = HermitianInput.from_matrix(mat)
        tracemalloc.start()
        try:
            result = run_qpca(hin, QpcaConfig(tau=20.5, n_bits=6))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64e6
        assert abs(result.fidelity - 1.0) < 1e-9

    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    @pytest.mark.parametrize(
        "dim, n_bits",
        [(8, 8), (2, 12), (4, 12), (16, 8)],
        ids=["8x8-n8", "2x2-n12", "4x4-n12", "16x16-n8"],
    )
    def test_wide_registers_hold_only_live_amplitudes(self, dim, n_bits, mode):
        # 23 to 29 qubits, 128 MiB to 8 GiB per dense state; the live rows
        # are one or two blocks of 2**(n+m) amplitudes, 16 * 2**(n+m) bytes
        rng = np.random.default_rng(9)
        tau = 0.4 * 2**n_bits + 0.5
        mat, _ = random_integer_spectrum_matrix(rng, dim, n_bits, tau=tau)
        hin = HermitianInput.from_matrix(mat)
        tracemalloc.start()
        try:
            result = run_qpca(hin, QpcaConfig(tau=tau, n_bits=n_bits, mode=mode))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        layout = result.layout
        block_bytes = 16 << (layout.eig_bits + layout.data_qubits)
        assert layout.num_qubits == 1 + 2 * n_bits + 2 * (dim.bit_length() - 1)
        assert result.kept_count == classical_pca_oracle(hin, FilterParams(tau, n_bits))[0]
        assert peak < 12 * block_bytes, (peak, block_bytes)
        if mode == "exact":
            assert abs(result.fidelity - 1.0) < 1e-9

    def test_over_the_live_amplitude_budget_builds_no_state(self, monkeypatch):
        # 64x64 at n = 11: 2**23 live amplitudes, twice the limit
        def zero(*_):
            raise AssertionError("state built")

        monkeypatch.setattr(StateVector, "zero", zero)
        hin = HermitianInput.from_matrix(np.diag(np.arange(64.0) % 8))
        assert 1 << (11 + 12) > pipeline.MAX_LIVE_AMPS
        message = r"35 qubits hold 8388608 live amplitudes, 134217728 bytes"
        with pytest.raises(ValueError, match=message):
            run_qpca(hin, QpcaConfig(tau=0.5, n_bits=11))

    def test_never_builds_the_dense_state(self, monkeypatch):
        def dense(_):
            raise AssertionError("dense state built")

        monkeypatch.setattr(StateVector, "amps", property(dense))
        monkeypatch.setattr(StateVector, "probabilities", dense)
        hin = HermitianInput.from_matrix(np.diag([0.0, 1.0, 2.0, 3.0]))
        for mode in ("exact", "sampled"):
            r = run_qpca(hin, QpcaConfig(tau=1.8, n_bits=3, mode=mode))
            assert r.kept_eigenvalues == (3.0, 2.0)
        with pytest.warns(SpectralPrecisionWarning):
            run_qpca(HermitianInput.from_matrix(np.diag([2.3, 1.0])), QpcaConfig(tau=1.5, n_bits=2))

    def test_warm_call_tables_hold_one_entry_per_register_value(self, monkeypatch):
        # the filter and the flip are table adds of 2**n entries: a warm call
        # builds the filter and uncompute's filter^dagger, and the inverse
        # phase estimation's register shift of one entry per eigen-index;
        # the flip is the slot's, built once per width; no table over the
        # joint y+lambda register (4096 entries at n = 6)
        rng = np.random.default_rng(8)
        mat, _ = random_integer_spectrum_matrix(rng, 4, 6, tau=20.5)
        hin, config = HermitianInput.from_matrix(mat), QpcaConfig(tau=20.5, n_bits=6)
        run_qpca(hin, config)
        sizes = []
        set_gate = sim.GateOp._set

        def record(op, matrix, *args):
            if matrix.ndim == 1:
                sizes.append(matrix.size)
            set_gate(op, matrix, *args)

        monkeypatch.setattr(sim.GateOp, "_set", record)
        assert abs(run_qpca(hin, config).fidelity - 1.0) < 1e-9
        assert sorted(sizes) == [4, 64, 64]

    @pytest.mark.parametrize(
        "lams, labels",
        [
            ([6.0, 5.0, 3.0, 1.0], ["+lambda", "V^T"]),
            ([5.3, 3.7, 2.2, 0.6], ["QFT", "c-U^b", "QFT", "V^T"]),
        ],
        ids=["integer", "fourier"],
    )
    def test_warm_call_simulates_no_cancelling_gates(self, lams, labels, monkeypatch):
        # filter, flip, filter^dagger and the inverse of phase estimation
        # without its closing V: the register shift's inverse and V (5
        # gates), or the Fourier form's F, D^dagger, F^dagger and V (7);
        # no V^T, and no second phase estimation
        hin = HermitianInput.from_matrix(matrix_with_spectrum(np.random.default_rng(3), lams))
        config = QpcaConfig(tau=2.5, n_bits=3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SpectralPrecisionWarning)
            run_qpca(hin, config)
            ran = []
            evolve = sim._evolve

            def recorded(state, ops):
                ran.extend(ops)
                return evolve(state, ops)

            monkeypatch.setattr(sim, "_evolve", recorded)
            assert run_qpca(hin, config).fidelity > 0.99
        assert [op.label for op in ran] == ["U_lambda_tau", "CU_flip", "U_lambda_tau"] + labels
        v = ran[-1].matrix  # V keeps V^T's label
        assert ran[-1].targets == make_layout(hin, 3).u_reg
        assert not np.array_equal(v, np.swapaxes(v, 1, 2))
        stacks = [op.matrix for op in ran if op.matrix.shape == v.shape]
        assert not any(np.array_equal(m, np.swapaxes(v, 1, 2)) for m in stacks)

    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    def test_exact_call_uncomputes_the_ancilla_one_branch_alone(self, mode, monkeypatch):
        # both modes post-select right after the flip, so the filter^dagger
        # and the inverse phase estimation see only ancilla-1 rows; sampled
        # mode draws its shots from that branch after uncompute
        hin = HermitianInput.from_matrix(
            matrix_with_spectrum(np.random.default_rng(3), [5.3, 3.7, 2.2, 0.6])
        )
        config = QpcaConfig(tau=2.5, n_bits=3, mode=mode)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SpectralPrecisionWarning)
            run_qpca(hin, config)
            seen = []
            evolve = sim._evolve

            def recorded(state, ops):
                seen.append((ops[0].label, (state._keys >> (state._top - 1)) & 1))
                return evolve(state, ops)

            monkeypatch.setattr(sim, "_evolve", recorded)
            run_qpca(hin, config)
        assert [label for label, _ in seen] == ["U_lambda_tau", "U_lambda_tau", "QFT"]
        assert not seen[0][1].any()  # the filter and flip start from the slot
        ancillas = np.concatenate([anc for _, anc in seen[1:]])
        assert ancillas.all()

    def test_warm_non_integer_call_peak_stays_at_its_measured_level(self):
        # A warm call on this non-integer input peaked at 4.08 blocks of
        # 16 * 2**(n+m) bytes (tracemalloc, numpy 2.4) while uncompute ran on
        # both ancilla branches; post-selecting first, it measured 2.67, in
        # either mode.  The bound is that measure plus 0.1 block.
        rng = np.random.default_rng(9)
        tau = 0.4 * 2**8 + 0.5
        mat, _ = random_integer_spectrum_matrix(rng, 16, 8, tau=tau)
        hin = HermitianInput.from_matrix(mat + 0.3 * np.eye(16))
        for mode in ("exact", "sampled"):
            config = QpcaConfig(tau=tau, n_bits=8, mode=mode)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", SpectralPrecisionWarning)
                run_qpca(hin, config)
                tracemalloc.start()
                try:
                    result = run_qpca(hin, config)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            assert peak / (16 << (8 + 8)) < 2.67 + 0.1, mode
            # sampled fidelity compares magnitudes with signed amplitudes
            assert result.fidelity > (0.999 if mode == "exact" else 0.8), mode

    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    def test_broken_uncompute_raises(self, mode):
        # an inverse phase estimation that shifts the register by the wrong
        # table leaves mass on lambda != 0; either mode refuses the result
        hin = HermitianInput.from_matrix(np.diag([3.0, 1.0]))
        config = QpcaConfig(tau=1.5, n_bits=2, mode=mode)
        run_qpca(hin, config)
        slot = hin._slot
        v_t, shift = slot.pe.ops
        wrong = sim.GateOp(shift.matrix + 1, shift.targets, label=shift.label)
        pe = sim.Circuit(slot.pe.num_qubits, (v_t, wrong))
        object.__setattr__(hin, "_slot", dataclasses.replace(slot, pe=pe))
        with pytest.raises(pipeline.PipelineInvariantError, match="uncompute|stray population"):
            run_qpca(hin, config)

    def test_rejects_non_power_of_two_dimension(self):
        hin = HermitianInput.from_matrix(np.eye(3))
        with pytest.raises(ValueError, match="power of two"):
            run_qpca(hin, QpcaConfig(tau=0.5, n_bits=2))

    def test_off_grid_tau_keeps_integer_eigenvalue(self):
        # tau = 2.9 rounds to 3.0 on the 2-bit grid; lambda = 3 is still kept
        hin = HermitianInput.from_matrix(np.diag([3.0, 1.0]))
        r = run_qpca(hin, QpcaConfig(tau=2.9, n_bits=2))
        assert r.kept_eigenvalues == (3.0,)
        assert abs(r.success_prob - 0.9) < 1e-9
        assert abs(r.fidelity - 1.0) < 1e-9

    def test_tau_at_eigenvalue_read_above_the_integer(self):
        # eigh reads this input's lambda = 1 as 1 + 2.4e-15; at tau = 1 the
        # filter drops it, and the oracle behind the fidelity must drop it too
        rng = np.random.default_rng(20101009)
        mat = matrix_with_spectrum(rng, [7.0, 5.0, 4.0, 3.0, 2.0, 1.0, 0.0, 6.0])
        result = run_qpca(HermitianInput.from_matrix(mat), QpcaConfig(tau=1.0, n_bits=4))
        assert result.kept_count == 6
        assert abs(result.fidelity - 1.0) < 1e-9

    def test_rejects_mismatched_filter_table(self, matrix_a, monkeypatch):
        class StateBuilt(Exception):
            pass

        def no_state(*_):
            raise StateBuilt

        monkeypatch.setattr(StateVector, "zero", no_state)
        hin = HermitianInput.from_matrix(matrix_a)
        config = QpcaConfig(tau=1.0, n_bits=2)
        for tau, n_bits in ((1.5, 2), (1.0, 3)):
            table = build_filter_table(FilterParams(tau, n_bits))
            with pytest.raises(ValueError, match="filter table"):
                run_qpca(hin, config, filter_table=table)
        # a table built another way for the same parameters is accepted
        table = exact_shrink_table(FilterParams(1.0, 2))
        with pytest.raises(StateBuilt):
            run_qpca(hin, config, filter_table=table)


class TestCompileSlot:
    """An input keeps, for the register width of its latest call, the state
    after state preparation and phase estimation and the phase-estimation
    circuit; it builds and runs them again only for another width."""

    @pytest.fixture
    def builds(self, monkeypatch):
        # either phase-estimation builder counts as the one build of the
        # phase-estimation circuit
        keys = {
            "PhaseEstimationSpec": "PhaseEstimationSpec",
            "build_state_prep": "build_state_prep",
            "build_phase_estimation": "build_phase_estimation",
            "build_register_shift": "build_phase_estimation",
        }
        counts = dict.fromkeys(keys.values(), 0)
        for name, key in keys.items():
            original = getattr(pipeline, name)

            def counted(*args, _key=key, _original=original, **kwargs):
                counts[_key] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(pipeline, name, counted)
        return counts

    def test_second_call_builds_nothing(self, matrix_c, builds):
        hin = HermitianInput.from_matrix(matrix_c)
        run_qpca(hin, QpcaConfig(tau=1.5, n_bits=2))
        assert set(builds.values()) == {1}
        for tau, mode in ((1.5, "exact"), (0.5, "sampled"), (2.5, "exact")):
            run_qpca(hin, QpcaConfig(tau=tau, n_bits=2, mode=mode))
        assert set(builds.values()) == {1}

    def test_new_width_rebuilds_and_replaces_the_slot(self, matrix_c, builds):
        hin = HermitianInput.from_matrix(matrix_c)
        for n_bits in (2, 3, 3, 2):
            run_qpca(hin, QpcaConfig(tau=1.5, n_bits=n_bits))
            slot = hin._slot
            assert slot.n_bits == n_bits
            assert slot.estimated.num_qubits == slot.pe.num_qubits == make_layout(hin, n_bits).num_qubits
        # a width comes back only by a rebuild: the slot holds one width
        assert set(builds.values()) == {3}

    def test_gates_are_freed_with_their_last_reference(self, matrix_c, monkeypatch):
        # with the cycle collector off, a replaced slot's gates and a
        # finished call's filter gate go as soon as nothing refers to them:
        # no gate is kept elsewhere, and no gate refers back to itself
        filter_tables = []
        build = pipeline.build_filter_unitary

        def recorded(*args):
            gate = build(*args)
            filter_tables.append(weakref.ref(gate.matrix))
            return gate

        monkeypatch.setattr(pipeline, "build_filter_unitary", recorded)
        hin = HermitianInput.from_matrix(matrix_c)
        gc.disable()
        try:
            run_qpca(hin, QpcaConfig(tau=1.5, n_bits=2))
            old = [weakref.ref(op.matrix) for op in hin._slot.pe]
            run_qpca(hin, QpcaConfig(tau=1.5, n_bits=3))
            assert [ref() for ref in old] == [None] * len(old)
            assert [ref() for ref in filter_tables] == [None, None]
        finally:
            gc.enable()

    def test_replaced_state_is_freed_at_a_width_change(self, matrix_c):
        hin = HermitianInput.from_matrix(matrix_c)
        gc.disable()
        try:
            run_qpca(hin, QpcaConfig(tau=1.5, n_bits=2))
            top = hin._slot.estimated._top
            assert top >= make_layout(hin, 2).work_qubits
            keys, block = (weakref.ref(a) for a in hin._slot.estimated.rows(top))
            run_qpca(hin, QpcaConfig(tau=1.5, n_bits=2))
            assert block() is not None
            run_qpca(hin, QpcaConfig(tau=1.5, n_bits=3))
            assert (keys(), block()) == (None, None)
        finally:
            gc.enable()

    def test_slot_rows_are_read_only_and_kept_unchanged(self, matrix_c):
        # stored split at or below the work registers, the rows the filter
        # run reads and shares: no call may write them, an all-filtered call
        # included
        hin = HermitianInput.from_matrix(matrix_c)
        run_qpca(hin, QpcaConfig(tau=1.5, n_bits=3))
        slot, layout = hin._slot, make_layout(hin, 3)
        top = slot.estimated._top
        assert top >= layout.work_qubits
        keys, block = slot.estimated.rows(top)
        assert not keys.flags.writeable and not block.flags.writeable
        before = keys.tobytes(), block.tobytes()
        for tau, mode in ((0.5, "exact"), (1.5, "sampled"), (2.5, "exact")):
            run_qpca(hin, QpcaConfig(tau=tau, n_bits=3, mode=mode))
        with pytest.raises(ZeroProbabilityOutcome):
            run_qpca(hin, QpcaConfig(tau=3.5, n_bits=3))
        assert hin._slot is slot
        again = slot.estimated.rows(top)
        assert again[0] is keys and again[1] is block
        assert (keys.tobytes(), block.tobytes()) == before
        with pytest.raises(ValueError, match="read-only"):
            block[0, 0] = 0.0

    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    def test_cold_call_peak_stays_at_its_former_level(self, mode):
        # Before the slot kept the estimated state, a cold call on this input
        # peaked at 5.28 blocks of 16 * 2**(n+m) bytes (tracemalloc, numpy
        # 2.4); the margin is 0.1 block.  The state the slot keeps alive
        # through the call is offset by freeing the filter and flip states,
        # the pre-selection state and the readout's rows before the second
        # phase estimation.  Phase estimation of this integer spectrum is a
        # register shift, which keeps the state on its few register values,
        # so neither call holds a whole block: a cold call measured 0.20
        # (exact) and 0.22 (sampled) blocks, a warm call, which skips the
        # build, 0.12 and 0.16.  The warm bound is its measure plus 0.1 block.
        rng = np.random.default_rng(9)
        tau = 0.4 * 2**8 + 0.5
        mat, _ = random_integer_spectrum_matrix(rng, 16, 8, tau=tau)
        hin, config = HermitianInput.from_matrix(mat), QpcaConfig(tau=tau, n_bits=8, mode=mode)
        block_bytes = 16 << (8 + 8)
        peaks = []
        for _ in ("cold", "warm"):
            tracemalloc.start()
            try:
                run_qpca(hin, config)
                peaks.append(tracemalloc.get_traced_memory()[1] / block_bytes)
            finally:
                tracemalloc.stop()
        cold, warm = peaks
        assert cold < 5.28 + 0.1, peaks
        assert warm < {"exact": 0.12, "sampled": 0.16}[mode] + 0.1, peaks

    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    def test_warm_cold_and_switched_calls_match_a_fresh_input(self, mode):
        rng = np.random.default_rng(11)
        mat = matrix_with_spectrum(rng, [6.0, 5.0, 3.0, 1.0])
        hin = HermitianInput.from_matrix(mat)
        # a tau sweep at one width, the use a prepared input is for, with an
        # all-filtered call in it; then another width and back
        sweep = [(3, tau) for tau in (2.5, 4.5, 0.5, 6.5, 5.5, 1.5)]
        for n_bits, tau in sweep + [(4, 2.5), (3, 2.5)]:
            config = QpcaConfig(tau=tau, n_bits=n_bits, mode=mode, shots=2000, seed=5)
            if tau > 6.0:
                for h in (hin, HermitianInput.from_matrix(mat)):
                    with pytest.raises(ZeroProbabilityOutcome):
                        run_qpca(h, config)
                continue
            got = run_qpca(hin, config)
            fresh = run_qpca(HermitianInput.from_matrix(mat), config)
            assert np.array_equal(got.output_amps, fresh.output_amps)
            assert (got.success_prob, got.fidelity) == (fresh.success_prob, fresh.fidelity)
            assert got.kept_eigenvalues == fresh.kept_eigenvalues
            assert got.lambda_histogram == fresh.lambda_histogram
            assert got.counts == fresh.counts

    def test_every_call_repeats_the_build_warnings(self):
        # non-integer, and past the 2-bit register: the pipeline's warning and
        # PhaseEstimationSpec's "register readout will wrap", on every call
        mat = np.diag([5.3, 1.0, 2.0, 0.0])
        hin = HermitianInput.from_matrix(mat)

        def messages(h, n_bits):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                run_qpca(h, QpcaConfig(tau=1.5, n_bits=n_bits))
            assert all(w.category is SpectralPrecisionWarning for w in caught)
            return [str(w.message) for w in caught]

        wrap = "eigenvalues span [0, 5.3], outside [0, 4); register readout will wrap"
        for n_bits in (2, 2, 3, 2):
            got = messages(hin, n_bits)
            assert got == messages(HermitianInput.from_matrix(mat), n_bits)
            assert got[0].startswith("spectrum is not integer")
            assert got[1:] == ([wrap] if n_bits == 2 else [])

    def test_input_is_immutable(self, matrix_a):
        given = np.array(matrix_a)
        hin = HermitianInput.from_matrix(given)
        given[0, 0] = 7.0  # the caller's array stays theirs
        assert hin.matrix[0, 0] == matrix_a[0, 0]
        for array in (hin.matrix, hin.eigenvalues, hin.eigenvectors):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0
        for name in ("matrix", "eigenvalues", "eigenvectors", "rank", "integer_spectrum"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(hin, name, getattr(hin, name))

    @pytest.mark.parametrize(
        "lams, integer",
        [([2.0, 1.0], True), ([3.0 + 5e-7, 0.0 - 5e-7], True), ([2.3, 1.0], False)],
    )
    def test_integer_spectrum_reads_spectrum_atol(self, lams, integer):
        assert HermitianInput.from_matrix(np.diag(lams)).integer_spectrum is integer


@st.composite
def threshold_cases(draw):
    """(eigenvalues, tau, n_bits, seed): integer spectrum with repeats in
    [0, 2**n), tau on the register grid, off it, or equal to an eigenvalue,
    and always below the largest eigenvalue."""
    n = draw(st.integers(2, 5))
    dim = 1 << draw(st.integers(1, 4))
    lams = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=dim, max_size=dim))
    top = max(lams)
    assume(top > 0)
    tau = draw_tau(draw, top, n, sorted({lam for lam in lams if 0 < lam < top}))
    return lams, tau, n, draw(st.integers(0, 2**32 - 1))


def draw_tau(draw, top, n, eigenvalues):
    """A tau in (0, top) on the n-bit register grid, off it, or one of
    ``eigenvalues``."""
    kind = draw(st.sampled_from(["grid", "off-grid", "eigenvalue"]))
    if kind == "grid":
        return draw(st.integers(1, (top << n) - 1)) / (1 << n)
    if kind == "off-grid":
        tau = draw(st.integers(0, top - 1)) + draw(
            st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
        )
        assume(tau * (1 << n) != round(tau * (1 << n)))
        return tau
    assume(eigenvalues)
    return float(draw(st.sampled_from(eigenvalues)))


class TestThresholdProperty:
    # one dim-16, n = 5 call takes about 40 ms
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(threshold_cases())
    def test_table_result_and_oracle_agree(self, case):
        lams, tau, n, seed = case
        hin = HermitianInput.from_matrix(matrix_with_spectrum(np.random.default_rng(seed), lams))
        params = FilterParams(tau, n)
        kept = sorted((lam for lam in lams if lam > tau), reverse=True)

        table = build_filter_table(params)
        assert sorted((lam for lam in lams if lam in table.kept_values), reverse=True) == kept
        r = run_qpca(hin, QpcaConfig(tau=tau, n_bits=n))
        assert [round(lam) for lam in r.kept_eigenvalues] == kept
        assert classical_pca_oracle(hin, params)[0] == r.kept_count == len(kept)
        assert r.fidelity >= 1 - 1e-9
        want = sum(lam * lam for lam in kept) / sum(lam * lam for lam in lams)
        assert abs(r.success_prob - want) < 1e-9


@st.composite
def near_integer_cases(draw):
    """(eigenvalues, tau, n_bits, seed): each eigenvalue within 9e-7 of an
    integer in [0, 2**n), dims 2 to 8, n 2 to 4, and a half-integer tau,
    half the time just above the largest, where nothing is kept."""
    n = draw(st.integers(2, 4))
    dim = 1 << draw(st.integers(1, 3))
    ints = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=dim, max_size=dim))
    assume(max(ints) > 0)
    # in steps of 1e-7, so the largest distance, 9e-7, comes up often
    offsets = draw(st.lists(st.integers(-9, 9), min_size=dim, max_size=dim))
    if draw(st.booleans()):
        tau = max(ints) + 0.5
    else:
        tau = draw(st.integers(1, (1 << n) - 1)) - 0.5
    lams = [lam + off * 1e-7 for lam, off in zip(ints, offsets)]
    return lams, tau, n, draw(st.integers(0, 2**32 - 1))


class TestNearIntegerProperty:
    # A spectrum within SPECTRUM_ATOL of integers is read as those integers
    # by the filter and the oracle alike, so no round-off mass may reach a
    # kept register value.  About one draw in a hundred failed when phase
    # estimation spread such an eigenvalue over nearby values.
    @settings(max_examples=300, deadline=None)
    @given(near_integer_cases())
    def test_all_filtered_exactly_when_the_oracle_keeps_nothing(self, case):
        lams, tau, n, seed = case
        hin = HermitianInput.from_matrix(matrix_with_spectrum(np.random.default_rng(seed), lams))
        assume(hin.integer_spectrum)
        params, config = FilterParams(tau, n), QpcaConfig(tau=tau, n_bits=n)
        try:
            kept = classical_pca_oracle(hin, params)[0]
        except AllComponentsFiltered:
            kept = 0
        with warnings.catch_warnings():
            # an eigenvalue just below 0 is reported as wrapping
            warnings.simplefilter("ignore", SpectralPrecisionWarning)
            if kept == 0:
                with pytest.raises(ZeroProbabilityOutcome):
                    run_qpca(hin, config)
            else:
                assert run_qpca(hin, config).kept_count == kept


@st.composite
def reference_cases(draw):
    """(eigenvalues, tau, n_bits, seed) within 16 qubits, 1 + 2n + m with
    dims 2 to 16 and n 1 to 5: an integer spectrum in [0, 2**n) with
    repeats, one that wraps (negative, or 2**n and above), or a non-integer
    one; tau on the register grid, off it, or at an eigenvalue."""
    k = draw(st.integers(1, 4))
    n = draw(st.integers(1, min(5, (15 - 2 * k) // 2)))
    dim, top = 1 << k, 1 << n
    kind = draw(st.sampled_from(["integer", "wrapping", "non-integer"]))
    if kind == "integer":
        lams = draw(st.lists(st.integers(0, top - 1), min_size=dim, max_size=dim))
    elif kind == "wrapping":
        lams = draw(st.lists(st.integers(-top, 2 * top - 1), min_size=dim, max_size=dim))
        assume(min(lams) < 0 or max(lams) >= top)
    else:
        reals = st.floats(-1.0, top, allow_nan=False).map(lambda x: round(x, 3))
        lams = draw(st.lists(reals, min_size=dim, max_size=dim))
        assume(max(abs(lam - round(lam)) for lam in lams) > 1e-3)
    assume(any(lams))
    tau = draw_tau(draw, top, n, sorted({lam for lam in lams if lam > 0}))
    return lams, tau, n, draw(st.integers(0, 2**32 - 1))


class TestReferencePipeline:
    """``run_qpca`` against ``reference_pipeline``, the paper's stages on a
    dense vector with numpy alone (``tests/helpers.py``)."""

    SHOTS = 4000

    @classmethod
    def run_both(cls, case, mode):
        lams, tau, n, seed = case
        hin = HermitianInput.from_matrix(matrix_with_spectrum(np.random.default_rng(seed), lams))
        config = QpcaConfig(tau=tau, n_bits=n, mode=mode, shots=cls.SHOTS, seed=seed)
        ref = reference_pipeline(hin.matrix, build_filter_table(FilterParams(tau, n)))
        with warnings.catch_warnings():
            # spectra that wrap, or are not integer, are run with a warning
            warnings.simplefilter("ignore", SpectralPrecisionWarning)
            if ref.amps is None:
                with pytest.raises(ZeroProbabilityOutcome):
                    run_qpca(hin, config)
                return None, ref
            try:
                return run_qpca(hin, config), ref
            except NoShotAccepted:
                if mode != "sampled":
                    raise
                return None, ref  # a measurement outcome: no shot accepted

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(reference_cases())
    def test_exact_mode_matches_the_reference(self, case):
        got, ref = self.run_both(case, "exact")
        if got is None:
            return
        assert np.max(np.abs(got.output_amps - ref.amps)) < 1e-12
        assert abs(got.success_prob - min(ref.success, 1.0)) < 1e-12
        for value, mass in enumerate(ref.histogram):
            if value in got.lambda_histogram:
                assert abs(got.lambda_histogram[value] - mass) < 1e-12, value
            else:  # dropped as round-off
                assert mass < ROUNDOFF + 1e-12, value

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(reference_cases())
    # success probability 1.48e-4: 4000 shots may accept none, which run_qpca
    # reports as NoShotAccepted, and which is checked here as 0 accepted shots
    @example(([2.0, 0.125], 0.5, 1, 2))
    def test_sampled_counts_lie_within_eight_sigma(self, case):
        got, ref = self.run_both(case, "sampled")
        if ref.amps is None:  # all filtered, checked by run_both
            return
        shots = self.SHOTS
        counts = {} if got is None else got.counts

        def within(count, p):
            p = min(p, 1.0)  # a sum of squares can pass 1 by an ulp
            return abs(count - shots * p) <= 8 * np.sqrt(shots * p * (1 - p)) + 1

        assert within(sum(counts.values()), ref.success)
        for value, p in enumerate(ref.data_probs):
            assert within(counts.get(value, 0), p), value


class TestHistogramWithoutSecondEstimation:
    """``run_qpca`` reads the lambda histogram off the ancilla-1 rows after
    the flip; the textbook route post-selects the uncomputed state and runs
    the whole phase estimation on it again."""

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(reference_cases())
    def test_matches_a_second_phase_estimation(self, case):
        lams, tau, n, seed = case
        hin = HermitianInput.from_matrix(matrix_with_spectrum(np.random.default_rng(seed), lams))
        layout, q = make_layout(hin, n), make_layout(hin, n).num_qubits
        with warnings.catch_warnings():
            # spectra that wrap, or are not integer, are run with a warning
            warnings.simplefilter("ignore", SpectralPrecisionWarning)
            spec = PhaseEstimationSpec(hin.matrix, n)
            build = build_register_shift if hin.integer_spectrum else build_phase_estimation
            full_pe = build(spec, layout.lambda_reg, layout.u_reg, q)
            filt = build_filter_unitary(build_filter_table(FilterParams(tau, n)), layout)
            prep = build_state_prep(hin.amplitude_encoding, qubits=layout.data_reg, num_qubits=q)
            state = run(run(StateVector.zero(q), prep), full_pe)
            state = apply(apply(state, filt), ancilla_flip_gate(layout))
            state = uncompute(state, layout, filt, full_pe, atol=None)
            try:
                _, collapsed = post_select(state, layout.ancilla, 1)
            except ZeroProbabilityOutcome:
                with pytest.raises(ZeroProbabilityOutcome):
                    run_qpca(hin, QpcaConfig(tau=tau, n_bits=n))
                return
            want = lambda_register_histogram(run(collapsed, full_pe), layout)
            got = run_qpca(hin, QpcaConfig(tau=tau, n_bits=n)).lambda_histogram
        for value in got.keys() | want.keys():
            # a value missing on one side was dropped there as round-off
            tol = 1e-12 if value in got and value in want else ROUNDOFF + 1e-12
            assert abs(got.get(value, 0.0) - want.get(value, 0.0)) < tol, value


class TestSampledMode:
    def test_estimates_close_to_exact(self, matrix_c):
        hin = HermitianInput.from_matrix(matrix_c)
        exact = run_qpca(hin, QpcaConfig(tau=1.8, n_bits=2))
        for seed in (0, 1, 2):
            r = run_qpca(hin, QpcaConfig(tau=1.8, n_bits=2, mode="sampled", shots=8192, seed=seed))
            assert np.max(np.abs(r.output_amps - np.abs(exact.output_amps))) < 0.03

    def test_counts_land_in_kept_subspace(self, matrix_c):
        hin = HermitianInput.from_matrix(matrix_c)
        r = run_qpca(hin, QpcaConfig(tau=1.8, n_bits=2, mode="sampled", shots=4096, seed=5))
        assert set(r.counts) <= {10, 15}
        assert sum(r.counts.values()) <= 4096
        assert r.shots == 4096

    def test_deterministic_per_seed(self, matrix_a):
        hin = HermitianInput.from_matrix(matrix_a)
        cfg = QpcaConfig(tau=1.0, n_bits=2, mode="sampled", shots=2048, seed=11)
        r1, r2 = run_qpca(hin, cfg), run_qpca(hin, cfg)
        assert r1.counts == r2.counts
        assert np.array_equal(r1.output_amps, r2.output_amps)

    def test_largest_shot_count_completes(self, matrix_a):
        # shots are counted in int64 from the draw to the per-value sums
        shots = 2**63 - 1
        hin = HermitianInput.from_matrix(matrix_a)
        r = run_qpca(hin, QpcaConfig(tau=1.0, n_bits=2, mode="sampled", shots=shots, seed=3))
        accepted = sum(r.counts.values())
        assert r.shots == shots and accepted < shots
        assert abs(accepted / shots - 0.8) < 1e-6
        assert np.max(np.abs(r.output_amps - 0.5)) < 1e-6

    def test_acceptance_rate_tracks_success_probability(self, matrix_a):
        hin = HermitianInput.from_matrix(matrix_a)
        r = run_qpca(hin, QpcaConfig(tau=1.0, n_bits=2, mode="sampled", shots=8192, seed=3))
        accepted = sum(r.counts.values())
        sigma = np.sqrt(8192 * 0.8 * 0.2)
        assert abs(accepted - 8192 * 0.8) < 4 * sigma


class TestConfigValidation:
    def test_tau_positive(self):
        with pytest.raises(ValueError, match="tau"):
            QpcaConfig(tau=0.0, n_bits=2)

    @pytest.mark.parametrize("tau", [float("inf"), float("nan")])
    def test_tau_finite(self, tau):
        with pytest.raises(ValueError, match=f"tau must be positive and finite, got {tau}"):
            QpcaConfig(tau=tau, n_bits=2)

    def test_mode_checked(self):
        with pytest.raises(ValueError, match="mode"):
            QpcaConfig(tau=1.0, n_bits=2, mode="fast")

    def test_shots_positive(self):
        with pytest.raises(ValueError, match="shots"):
            QpcaConfig(tau=1.0, n_bits=2, shots=0)

    @pytest.mark.parametrize("shots", [2**63, 10**20])
    def test_shots_fit_a_64_bit_count(self, shots):
        with pytest.raises(ValueError, match=rf"shots must be >= 1 and <= 2\*\*63 - 1, got {shots}"):
            QpcaConfig(tau=1.0, n_bits=2, shots=shots)
        assert QpcaConfig(tau=1.0, n_bits=2, shots=2**63 - 1).shots == 2**63 - 1

    def test_seed_non_negative(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            QpcaConfig(tau=1.0, n_bits=2, seed=-1)
        assert QpcaConfig(tau=1.0, n_bits=2, seed=0).seed == 0

    @pytest.mark.parametrize("n_bits", [21, 5000, 100_000_000])
    def test_n_bits_within_the_widest_runnable_register(self, n_bits):
        # a 2x2 input, m = 2, is the smallest: 2**(n+2) live amplitudes must
        # fit MAX_LIVE_AMPS = 2**22, so n = 20 is the widest any input runs
        assert 1 << (20 + 2) == pipeline.MAX_LIVE_AMPS
        with pytest.raises(ValueError, match=rf"n_bits must be <= 20, .* got {n_bits}$"):
            QpcaConfig(tau=1.0, n_bits=n_bits)
        assert QpcaConfig(tau=1.0, n_bits=20).n_bits == 20
