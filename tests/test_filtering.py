from fractions import Fraction

import numpy as np
import pytest

from helpers import (
    circuit_unitary,
    filter_permutation_matrix,
    gate_matrix,
    newton_reciprocal_fraction,
    simulated_matrix,
)
from qpcasim import (
    Circuit,
    FilterParams,
    FilterTable,
    FixedPoint,
    RegisterLayout,
    StateVector,
    ZeroEigenvalue,
    apply,
    build_filter_table,
    build_filter_unitary,
    cost_proposed,
    default_newton_iters,
    exact_shrink_table,
    newton_reciprocal,
    shrink,
)


class TestFixedPoint:
    def test_value(self):
        assert FixedPoint(raw=7, bits=4, frac=2).value == 1.75

    def test_integer_constructor(self):
        fx = FixedPoint.integer(3, bits=2)
        assert fx.value == 3.0 and fx.frac == 0

    def test_from_real_rounds_to_grid(self):
        fx = FixedPoint.from_real(1.8, frac=2)
        assert fx.raw == 7 and fx.value == 1.75

    def test_raw_must_fit(self):
        with pytest.raises(ValueError, match="fit"):
            FixedPoint(raw=4, bits=2)

    def test_frac_within_bits(self):
        with pytest.raises(ValueError, match="frac"):
            FixedPoint(raw=0, bits=2, frac=3)


class TestNewtonReciprocal:
    def test_reciprocal_of_two_is_exact(self):
        z = newton_reciprocal(FixedPoint.integer(2, bits=3), iters=4)
        assert z.value == 0.5

    def test_reciprocal_of_one_is_one(self):
        # needs the extra integer bit: raw 2**frac with frac fractional bits
        z = newton_reciprocal(FixedPoint.integer(1, bits=3), iters=4)
        assert z.value == 1.0 and z.raw == 8

    def test_eight_bit_example(self):
        # 1/3 at 8 fractional bits after 5 iterations rounds to 85/256
        z = newton_reciprocal(FixedPoint.integer(3, bits=8), iters=5)
        assert z.raw == 85 and z.frac == 8

    def test_matches_rational_oracle_exhaustively(self):
        for n in range(1, 7):
            iters = default_newton_iters(n)
            for lam in range(1, 1 << n):
                got = newton_reciprocal(FixedPoint.integer(lam, bits=n), iters)
                assert got.raw == newton_reciprocal_fraction(lam, iters, n), (n, lam)

    def test_accuracy_within_one_ulp(self):
        for n in range(1, 9):
            iters = default_newton_iters(n)
            for lam in range(1, 1 << n):
                z = newton_reciprocal(FixedPoint.integer(lam, bits=n), iters)
                assert abs(z.value - 1.0 / lam) <= 2.0 ** -n, (n, lam)

    def test_quadratic_convergence_on_rational_oracle(self):
        # e_{i+1} = lam * e_i**2 exactly, for the error e_i = |z_i - 1/lam|
        for lam in range(1, 16):
            z = Fraction(1, 1 << (lam - 1).bit_length())
            err = abs(z - Fraction(1, lam))
            for _ in range(6):
                z = 2 * z - z * z * lam
                new_err = abs(z - Fraction(1, lam))
                assert new_err == lam * err * err
                err = new_err

    def test_zero_eigenvalue_rejected(self):
        with pytest.raises(ZeroEigenvalue):
            newton_reciprocal(FixedPoint.integer(0, bits=2), iters=3)

    def test_iteration_count_validated(self):
        with pytest.raises(ValueError, match="iters"):
            newton_reciprocal(FixedPoint.integer(2, bits=2), iters=0)

    def test_plain_number_needs_frac_bits(self):
        with pytest.raises(ValueError, match="frac_bits"):
            newton_reciprocal(3.0, iters=4)
        z = newton_reciprocal(3.0, iters=5, frac_bits=8)
        assert z.raw == 85

    def test_default_iteration_counts(self):
        assert default_newton_iters(1) == 2
        assert default_newton_iters(2) == 3
        assert default_newton_iters(8) == 5


class TestShrink:
    def test_values(self):
        assert shrink(2.0, 1.0) == 0.5
        assert shrink(1.0, 1.0) == 0.0
        assert abs(shrink(3.0, 1.8) - 0.4) < 1e-15

    def test_below_threshold_clamps_to_zero(self):
        assert shrink(0.5, 1.0) == 0.0

    def test_zero_eigenvalue_maps_to_zero(self):
        assert shrink(0.0, 1.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError, match="tau"):
            shrink(1.0, 0.0)
        with pytest.raises(ValueError, match="lam"):
            shrink(-1.0, 1.0)


class TestFilterParams:
    def test_tau_rounds_to_register_grid(self):
        p = FilterParams(tau=1.8, n_bits=2)
        assert p.tau_fixed.value == 1.75

    def test_default_iterations(self):
        assert FilterParams(tau=1.0, n_bits=2).iterations == 3

    def test_keeps_compares_register_values_with_exact_tau(self):
        p = FilterParams(tau=2.9, n_bits=2)  # tau_fixed rounds up to 3.0
        assert p.keeps(3) and p.keeps(3.0 - 1e-9) and not p.keeps(2)
        assert not FilterParams(tau=1.0, n_bits=4).keeps(1.0 + 2.4e-15)
        assert FilterParams(tau=1.0, n_bits=4).keeps(1.0 + 2e-6)  # not integer: as is

    def test_keeps_wraps_integers_onto_the_register(self):
        p = FilterParams(tau=0.5, n_bits=2)
        assert [p.keeps(lam) for lam in (4, 5, -1, -3.0)] == [False, True, True, True]
        assert not p.keeps(-0.2)

    def test_keeps_an_array_elementwise(self):
        lams = np.array([[4, 5, -1, -3.0], [-0.2, 3.0 - 1e-9, 2.0, 1.0 + 2e-6]])
        for p in (FilterParams(tau=0.5, n_bits=2), FilterParams(tau=2.9, n_bits=2)):
            got = p.keeps(lams)
            assert got.shape == lams.shape
            assert got.tolist() == [[bool(p.keeps(float(x))) for x in row] for row in lams]

    def test_validation(self):
        # an infinite tau has no fixed-point value: round(inf) raises
        for tau in (0.0, float("inf"), float("-inf"), float("nan")):
            with pytest.raises(ValueError, match="tau must be positive and finite"):
                FilterParams(tau=tau, n_bits=2)
        with pytest.raises(ValueError, match="n_bits"):
            FilterParams(tau=1.0, n_bits=0)


def tau_grid(n_bits, tau_max):
    """Every representable positive threshold up to tau_max."""
    step = Fraction(1, 1 << n_bits)
    out = []
    t = step
    while t <= tau_max:
        out.append(t)
        t += step
    return out


class TestFilterTable:
    @pytest.mark.parametrize(
        "tau,kept",
        [(1.0, (2, 3)), (1.8, (2, 3)), (0.5, (1, 2, 3))],
    )
    def test_kept_sets_on_two_bit_register(self, tau, kept):
        table = build_filter_table(FilterParams(tau=tau, n_bits=2))
        assert table.kept_values == kept

    def test_y_zero_at_and_below_threshold(self):
        table = build_filter_table(FilterParams(tau=1.0, n_bits=2))
        assert table.y_raw(0) == 0 and table.y_raw(1) == 0
        assert table.y_raw(2) > 0 and table.y_raw(3) > 0

    def test_threshold_dichotomy_exhaustive(self):
        # y > 0 exactly when lambda > tau, on 2-to-4-bit registers, for every
        # threshold on a grid four times finer than the register's: tau on
        # the grid and between its points, where tau_fixed rounds to either side
        for n in (2, 3, 4):
            for tau in tau_grid(n + 2, (1 << n) - Fraction(1, 1 << (n + 2))):
                params = FilterParams(tau=float(tau), n_bits=n)
                table = build_filter_table(params)
                for lam in range(1 << n):
                    assert (table.y_raw(lam) > 0) == (Fraction(lam) > tau), (n, tau, lam)
                assert exact_shrink_table(params).kept_values == table.kept_values

    def test_agreement_with_real_shrink(self):
        # |y/2**f - shrink(lambda, tau)| <= 2**-(f-1) on the kept side, for
        # thresholds up to 4 (quantization of the reciprocal grows with tau)
        for n in (2, 3, 4):
            bound = 2.0 ** -(n - 1)
            for tau in tau_grid(n, min(4, (1 << n) - Fraction(1, 1 << n))):
                table = build_filter_table(FilterParams(tau=float(tau), n_bits=n))
                for lam in table.kept_values:
                    err = abs(table.y_value(lam) - shrink(float(lam), float(tau)))
                    assert err <= bound, (n, tau, lam, err)

    def test_monotone_on_kept_side(self):
        for n in (2, 3, 4):
            for tau in tau_grid(n, (1 << n) - Fraction(1, 1 << n)):
                table = build_filter_table(FilterParams(tau=float(tau), n_bits=n))
                kept_y = [table.y_raw(lam) for lam in table.kept_values]
                assert kept_y == sorted(kept_y)

    def test_matches_rational_reconstruction(self):
        # rebuild each table with Fraction arithmetic end to end
        for n in (2, 3, 4):
            for tau in tau_grid(n, (1 << n) - Fraction(1, 1 << n)):
                params = FilterParams(tau=float(tau), n_bits=n)
                table = build_filter_table(params)
                for lam in range(1 << n):
                    if Fraction(lam) <= tau:
                        assert table.y_raw(lam) == 0
                        continue
                    z = Fraction(
                        newton_reciprocal_fraction(lam, params.iterations, n), 1 << n
                    )
                    y = round((1 - tau * z) * (1 << n))
                    want = min((1 << n) - 1, max(1, y))
                    assert table.y_raw(lam) == want, (n, tau, lam)

    def test_matches_scalar_newton_loop(self):
        # the table, one numpy pass over the register, against a loop of
        # scalar newton_reciprocal calls at the default iteration count, for
        # off-grid thresholds
        rng = np.random.default_rng(5)
        for n in (1, 2, 5, 6, 8):
            for _ in range(4):
                tau = float(rng.uniform(0.1, (1 << n) - 0.5))
                params = FilterParams(tau=tau, n_bits=n)
                want = []
                for lam in range(1 << n):
                    if not lam > tau:
                        want.append(0)
                        continue
                    z = newton_reciprocal(FixedPoint.integer(lam, n), params.iterations, n)
                    y = round((1.0 - params.tau_fixed.value * z.value) * (1 << n))
                    want.append(min((1 << n) - 1, max(1, y)))
                assert build_filter_table(params).y_raws.tolist() == want, (n, tau)

    def test_exact_shrink_table_same_kept_set(self):
        for n in (2, 3):
            for tau in tau_grid(n, (1 << n) - Fraction(1, 1 << n)):
                params = FilterParams(tau=float(tau), n_bits=n)
                assert (
                    build_filter_table(params).kept_values
                    == exact_shrink_table(params).kept_values
                )

    def test_table_constructor_rejects_dichotomy_violation(self):
        params = FilterParams(tau=1.0, n_bits=2)
        with pytest.raises(ValueError, match="dichotomy"):
            FilterTable(params=params, y_raws=(0, 1, 1, 2))

    def test_table_constructor_rejects_oversized_y(self):
        params = FilterParams(tau=1.0, n_bits=2)
        with pytest.raises(ValueError, match="fit"):
            FilterTable(params=params, y_raws=(0, 0, 4, 2))
        with pytest.raises(ValueError, match="fit"):
            FilterTable(params=params, y_raws=(0, 0, -1, 2))
        # past int64, where numpy holds the entries as Python objects
        with pytest.raises(ValueError, match=f"y value {2**70} does not fit the 2-bit register"):
            FilterTable(params=params, y_raws=(0, 0, 2**70, 3))

    def test_table_constructor_rejects_falling_y(self):
        params = FilterParams(tau=0.5, n_bits=3)
        with pytest.raises(ValueError, match="not monotone at lambda=4"):
            FilterTable(params=params, y_raws=(0, 1, 3, 3, 2, 5, 6, 7))

    def test_table_constructor_rejects_non_integer_y(self):
        params = FilterParams(tau=1.0, n_bits=2)
        with pytest.raises(ValueError, match="y value 2.5 is not an integer"):
            FilterTable(params=params, y_raws=(0, 0, 2.5, 3))
        with pytest.raises(ValueError, match="y value 'a' is not an integer"):
            FilterTable(params=params, y_raws=(0, 0, "a", 3))

    def test_table_constructor_rejects_two_dimensional_y(self):
        params = FilterParams(tau=1.0, n_bits=2)
        with pytest.raises(ValueError, match=r"one-dimensional, got shape \(2, 2\)"):
            FilterTable(params=params, y_raws=((0, 0), (2, 3)))

    def test_table_is_read_only_int64(self):
        for table in (
            build_filter_table(FilterParams(tau=1.0, n_bits=3)),
            FilterTable(params=FilterParams(tau=1.0, n_bits=2), y_raws=[0, 0, 2, 3]),
        ):
            assert table.y_raws.dtype == np.int64
            with pytest.raises(ValueError, match="read-only"):
                table.y_raws[2] = 0
            assert type(table.y_raw(2)) is int and type(table.y_value(2)) is float
            assert all(type(lam) is int for lam in table.kept_values)


class TestFilterUnitary:
    def test_adds_y_into_register(self):
        layout = RegisterLayout(eig_bits=2, data_qubits=2)
        table = build_filter_table(FilterParams(tau=1.0, n_bits=2))
        op = build_filter_unitary(table, layout)
        # start with y = 0, lambda = 2: index = anc 0, y 00, lam 10, data 00
        start = StateVector.basis(layout.num_qubits, 2 << layout.data_qubits)
        got = apply(start, op)
        want_index = (table.y_raw(2) << (2 + layout.data_qubits)) | (2 << layout.data_qubits)
        assert got.amps[want_index] == 1.0

    def test_wraps_modulo_register_size(self):
        layout = RegisterLayout(eig_bits=2, data_qubits=2)
        table = build_filter_table(FilterParams(tau=1.0, n_bits=2))
        y2 = table.y_raw(2)
        # start from y = 3 (all ones): addition wraps mod 4
        start_index = (3 << (2 + layout.data_qubits)) | (2 << layout.data_qubits)
        got = apply(
            StateVector.basis(layout.num_qubits, start_index),
            build_filter_unitary(table, layout),
        )
        want_index = (((3 + y2) % 4) << (2 + layout.data_qubits)) | (2 << layout.data_qubits)
        assert got.amps[want_index] == 1.0

    def test_is_permutation(self):
        layout = RegisterLayout(eig_bits=2, data_qubits=2)
        table = build_filter_table(FilterParams(tau=0.5, n_bits=2))
        op = build_filter_unitary(table, layout)
        m = circuit_unitary(Circuit(layout.num_qubits, [op]))
        dim = 1 << layout.num_qubits
        assert np.array_equal(np.abs(m).sum(axis=0), np.ones(dim))
        assert np.array_equal(np.abs(m).sum(axis=1), np.ones(dim))

    @pytest.mark.parametrize("n_bits", [1, 2, 3, 4])
    @pytest.mark.parametrize("tau", [0.5, 2.5, 1.0, 3.0, 0.3, 2.9])
    def test_matches_dense_reference(self, n_bits, tau):
        # half-integer, integer and off-grid thresholds, every basis state,
        # as the gate's matrix and as the simulator applies it
        layout = RegisterLayout(eig_bits=n_bits, data_qubits=2)
        table = build_filter_table(FilterParams(tau=tau, n_bits=n_bits))
        op = build_filter_unitary(table, layout)
        assert op.targets == layout.y_reg + layout.lambda_reg
        assert op.matrix.size == 1 << n_bits
        want = filter_permutation_matrix(table)
        assert np.array_equal(gate_matrix(op), want)
        assert np.array_equal(gate_matrix(op.dagger()), want.T)
        assert np.array_equal(simulated_matrix(op), want)
        assert np.array_equal(simulated_matrix(op.dagger()), want.T)

    def test_gate_table_is_the_filter_table(self):
        layout = RegisterLayout(eig_bits=3, data_qubits=2)
        table = build_filter_table(FilterParams(tau=2.5, n_bits=3))
        assert np.array_equal(build_filter_unitary(table, layout).matrix, table.y_raws)

    def test_inverse_restores(self):
        layout = RegisterLayout(eig_bits=2, data_qubits=2)
        table = build_filter_table(FilterParams(tau=1.8, n_bits=2))
        op = build_filter_unitary(table, layout)
        rng = np.random.default_rng(3)
        vec = rng.standard_normal(1 << layout.num_qubits)
        vec /= np.linalg.norm(vec)
        got = apply(apply(StateVector(vec), op), op.dagger())
        assert np.max(np.abs(got.amps - vec)) < 1e-12

    def test_register_width_mismatch(self):
        table = build_filter_table(FilterParams(tau=1.0, n_bits=2))
        with pytest.raises(ValueError, match="bit"):
            build_filter_unitary(table, RegisterLayout(eig_bits=3, data_qubits=2))


class TestGateBudget:
    def test_counts(self):
        # The filter's gate budget is the "filter" block of the proposed cost.
        assert cost_proposed(1, 2).per_block["filter"] == 16
        assert cost_proposed(2, 2).per_block["filter"] == 32
        assert cost_proposed(10, 2).per_block["filter"] == 160
