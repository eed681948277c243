"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.
"""

import time

import numpy as np
import pytest

from helpers import newton_reciprocal_fraction, pe_powers, random_integer_spectrum_matrix
from qpcasim import (
    AllComponentsFiltered,
    FilterParams,
    FixedPoint,
    HermitianInput,
    PhaseEstimationSpec,
    QpcaConfig,
    StateVector,
    ancilla_flip_gate,
    apply,
    build_filter_table,
    build_filter_unitary,
    build_phase_estimation,
    build_state_prep,
    classical_pca_oracle,
    cost_baseline,
    cost_proposed,
    default_newton_iters,
    gate_ratio,
    make_layout,
    newton_reciprocal,
    run,
    run_qpca,
    uncompute,
)

MATRIX_A = np.array([[1.5, 0.5], [0.5, 1.5]])
MATRIX_C = np.diag([0.0, 1.0, 2.0, 3.0])


def report(number, description):
    """Decorator printing one pass/fail line per criterion."""

    def wrap(fn):
        def inner(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL criterion {number}: {description}")
                raise
            print(f"PASS criterion {number}: {description}")

        inner.__name__ = fn.__name__
        return inner

    return wrap


@report(1, "2x2 input, tau=1: uniform output, success 4/5")
def test_criterion_1():
    start = time.perf_counter()
    hin = HermitianInput.from_matrix(MATRIX_A)
    r = run_qpca(hin, QpcaConfig(tau=1.0, n_bits=2))
    assert np.max(np.abs(r.output_amps - np.array([0.5, 0.5, 0.5, 0.5]))) < 1e-6
    assert abs(r.success_prob - 4 / 5) < 1e-9
    assert time.perf_counter() - start < 1.0


@report(2, "2x2 input, tau=0.8: published 4-decimal output")
def test_criterion_2():
    start = time.perf_counter()
    hin = HermitianInput.from_matrix(MATRIX_A)
    r = run_qpca(hin, QpcaConfig(tau=0.8, n_bits=2))
    want = np.array([0.6708, 0.2236, 0.2236, 0.6708])
    assert np.max(np.abs(r.output_amps - want)) < 5e-5
    assert time.perf_counter() - start < 1.0


@report(3, "4x4 input, tau=1.8: two components survive, success 13/14")
def test_criterion_3():
    start = time.perf_counter()
    hin = HermitianInput.from_matrix(MATRIX_C)
    r = run_qpca(hin, QpcaConfig(tau=1.8, n_bits=2))
    assert abs(r.output_amps[10] - 0.5547) < 5e-5
    assert abs(r.output_amps[15] - 0.8321) < 5e-5
    assert np.max(np.abs(np.delete(r.output_amps, [10, 15]))) < 1e-6
    assert abs(r.success_prob - 13 / 14) < 1e-9
    assert time.perf_counter() - start < 5.0


@report(4, "4x4 input, tau=0.5: three components survive")
def test_criterion_4():
    hin = HermitianInput.from_matrix(MATRIX_C)
    r = run_qpca(hin, QpcaConfig(tau=0.5, n_bits=2))
    assert abs(r.output_amps[5] - 0.2673) < 5e-5
    assert abs(r.output_amps[10] - 0.5345) < 5e-5
    assert abs(r.output_amps[15] - 0.8018) < 5e-5


@report(5, "sampled mode, 8192 shots: estimates within 0.03 over 20 seeds")
def test_criterion_5():
    start = time.perf_counter()
    for matrix, tau in ((MATRIX_C, 1.8), (MATRIX_A, 1.0)):
        hin = HermitianInput.from_matrix(matrix)
        exact = np.abs(run_qpca(hin, QpcaConfig(tau=tau, n_bits=2)).output_amps)
        for seed in range(20):
            cfg = QpcaConfig(tau=tau, n_bits=2, mode="sampled", shots=8192, seed=seed)
            r = run_qpca(hin, cfg)
            assert np.max(np.abs(r.output_amps - exact)) < 0.03, (tau, seed)
    assert time.perf_counter() - start < 30.0


@report(6, "gate-count model: closed forms for n up to 10^4, ratio -> 3/5")
def test_criterion_6():
    for n in range(1, 10_001):
        assert cost_proposed(n, 2).total == 3 * n * n + 33 * n
        assert cost_baseline(n, 2).total == 5 * n * n + 98 * n
    assert abs(gate_ratio(1000) - 3 / 5) < 0.01


@report(7, "property suite: oracle equivalence, uncompute, reciprocal")
def test_criterion_7():
    start = time.perf_counter()

    # oracle equivalence on randomized integer-spectrum matrices
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 50:
        n = 2 if checked % 2 else 3
        dim = 2 if checked % 3 == 0 else 4
        mat, lams = random_integer_spectrum_matrix(rng, dim, n_bits=n, tau=0.5)
        hin = HermitianInput.from_matrix(mat)
        tau = float(rng.integers(0, int(lams.max()))) + 0.5
        try:
            t, expected = classical_pca_oracle(hin, FilterParams(tau, n))
        except AllComponentsFiltered:
            continue
        r = run_qpca(hin, QpcaConfig(tau=tau, n_bits=n))
        assert r.fidelity >= 1 - 1e-6, (checked, tau, lams)
        assert r.kept_count == t
        checked += 1

    # uncompute cleanliness on the worked 4x4 input
    hin = HermitianInput.from_matrix(MATRIX_C)
    layout = make_layout(hin, 2)
    spec = PhaseEstimationSpec(MATRIX_C, 2)
    pe = build_phase_estimation(spec, layout.lambda_reg, layout.u_reg, layout.num_qubits)
    filt = build_filter_unitary(build_filter_table(FilterParams(1.8, 2)), layout)
    state = StateVector.zero(layout.num_qubits)
    state = run(state, build_state_prep(hin.amplitude_encoding, qubits=layout.data_reg,
                                        num_qubits=layout.num_qubits))
    state = run(state, pe)
    state = apply(state, filt)
    state = apply(state, ancilla_flip_gate(layout))
    state = uncompute(state, layout, filt, pe, atol=1e-9)  # raises beyond 1e-9

    # Newton reciprocal against the exact rational oracle
    for n in range(1, 7):
        iters = default_newton_iters(n)
        for lam in range(1, 1 << n):
            z = newton_reciprocal(FixedPoint.integer(lam, bits=n), iters)
            assert z.raw == newton_reciprocal_fraction(lam, iters, n)
            assert abs(z.value - 1.0 / lam) <= 2.0 ** -n

    assert time.perf_counter() - start < 120.0


@report(8, "matrix exponentials of the diagonal input: diag(1,i,-1,-i) and diag(1,-1,1,-1)")
def test_criterion_8():
    # phase estimation applies V D_b V^T to the data when the register holds
    # b; the exponentials are b = 1 and b = 2
    spec = PhaseEstimationSpec(MATRIX_C, eig_bits=2)
    pe = build_phase_estimation(spec, (0, 1), (2, 3))
    u0, u1 = pe_powers(pe, 2)[1:3]
    assert np.max(np.abs(u0 - np.diag([1.0, 1.0j, -1.0, -1.0j]))) < 1e-10
    assert np.max(np.abs(u1 - np.diag([1.0, -1.0, 1.0, -1.0]))) < 1e-10
    # the top-left entry of both is exactly 1 (eigenvalue 0 phase)
    assert abs(u0[0, 0] - 1.0) < 1e-10
    assert abs(u1[0, 0] - 1.0) < 1e-10
