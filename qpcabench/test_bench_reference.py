"""Tests of the benchmark's own reference, checks, inputs and tracer.

Run with:  python3 -m pytest qpcabench
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import reference  # noqa: E402
import workloads  # noqa: E402
from reference import FIDELITY_FAULT, WRONG_OUTPUT, compare, compare_result, expected  # noqa: E402

H = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


def test_readme_2x2_example():
    exp = expected([2.0, 1.0], H, tau=1.0, n_bits=2)
    assert exp.success == pytest.approx(0.8, abs=1e-15)
    np.testing.assert_allclose(exp.amps, [0.5, 0.5, 0.5, 0.5], atol=1e-15)
    assert exp.kept == (2.0,)
    assert exp.histogram == pytest.approx({2: 1.0})


def test_diagonal_4x4_with_one_eigenvalue_filtered():
    # diag(1, 2, 3, 3) at tau = 1.5 drops lambda = 1; kept weight 4 + 9 + 9 = 22
    exp = expected([1.0, 2.0, 3.0, 3.0], np.eye(4), tau=1.5, n_bits=2)
    assert exp.success == pytest.approx(22 / 23, abs=1e-15)
    want = np.zeros(16)
    want[1 * 4 + 1] = 2 / np.sqrt(22)
    want[2 * 4 + 2] = 3 / np.sqrt(22)
    want[3 * 4 + 3] = 3 / np.sqrt(22)
    np.testing.assert_allclose(exp.amps, want, atol=1e-15)
    assert exp.kept == (3.0, 3.0, 2.0)
    assert exp.histogram == pytest.approx({2: 4 / 22, 3: 18 / 22})


def test_tau_equal_to_an_eigenvalue_drops_it():
    exp = expected([3.0, 1.0], np.eye(2), tau=1.0, n_bits=2)
    assert exp.kept == (3.0,)
    assert exp.success == pytest.approx(0.9)


@pytest.mark.parametrize(
    "lam, tau, n_bits",
    [([2.5, 1.0], 1.0, 2), ([4.0, 1.0], 1.0, 2), ([3.0, 1.0], 2.9, 2), ([1.0, 0.0], 1.5, 2)],
)
def test_rejects_inputs_outside_its_semantics(lam, tau, n_bits):
    with pytest.raises(ValueError):
        expected(lam, np.eye(2), tau=tau, n_bits=n_bits)


def _report(exp, **changes):
    fields = dict(
        amps=exp.amps, success=exp.success, kept=exp.kept,
        histogram=exp.histogram, fidelity=1.0,
    )
    fields.update(changes)
    return compare(exp, **fields)


def test_compare_classifies_problems():
    exp = expected([2.0, 1.0], H, tau=1.0, n_bits=2)
    assert _report(exp) == []
    assert [k for k, _ in _report(exp, fidelity=0.99)] == [FIDELITY_FAULT]
    assert [k for k, _ in _report(exp, amps=-exp.amps)] == [WRONG_OUTPUT]
    assert [k for k, _ in _report(exp, success=0.7)] == [WRONG_OUTPUT]
    assert [k for k, _ in _report(exp, kept=(2.0, 1.0))] == [WRONG_OUTPUT]
    assert [k for k, _ in _report(exp, histogram={2: 0.9, 1: 0.1})] == [WRONG_OUTPUT]


def test_sampled_bound_scales_with_accepted_shots():
    exp = expected([2.0, 1.0], H, tau=1.0, n_bits=2)
    counts = {i: 1640 for i in range(4)}  # 6560 of 8192 accepted, near 0.8
    off = exp.amps + 3.0 / np.sqrt(6560)  # inside 4 / sqrt(accepted)
    assert _report(exp, amps=off, fidelity=float(off @ exp.amps), counts=counts, shots=8192) == []
    off = exp.amps + 5.0 / np.sqrt(6560)
    problems = _report(exp, amps=off, fidelity=float(off @ exp.amps), counts=counts, shots=8192)
    assert [k for k, _ in problems] == [WRONG_OUTPUT]


def test_program_matches_reference_on_readme_example():
    from qpcasim import HermitianInput, QpcaConfig, run_qpca

    exp = expected([2.0, 1.0], H, tau=1.0, n_bits=2)
    result = run_qpca(HermitianInput.from_matrix([[1.5, 0.5], [0.5, 1.5]]), QpcaConfig(1.0, 2))
    assert compare_result(exp, result) == []


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workloads_are_seeded_and_keep_their_shape(name):
    make = workloads.WORKLOADS[name]
    a, b, c = make(1), make(1), make(2)
    assert [x.shape for x in a] == [x.shape for x in c]
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x.matrix, y.matrix)
        assert (x.tau, x.sample_seed) == (y.tau, y.sample_seed)
    for case in a:
        exp = reference.expected(case.lam, case.q, case.tau, case.n_bits)
        assert 0 < exp.success <= 1
        np.testing.assert_allclose(case.q.T @ case.q, np.eye(case.dim), atol=1e-12)


def test_tracer_restores_every_patched_name():
    import numpy.linalg

    import qpcasim
    from qpcasim import pipeline, sim
    from tracer import Tracer

    before = (sim.apply, pipeline.apply, qpcasim.run_qpca, sim.GateOp.__init__,
              pipeline.HermitianInput.__dict__["from_matrix"], numpy.linalg.eigh)
    tracer = Tracer()
    tracer.install()
    try:
        assert pipeline.apply is not before[1]
        pipeline.run_qpca(pipeline.HermitianInput.from_matrix(np.diag([3.0, 1.0])),
                          pipeline.QpcaConfig(tau=1.5, n_bits=2))
    finally:
        tracer.remove()
    after = (sim.apply, pipeline.apply, qpcasim.run_qpca, sim.GateOp.__init__,
             pipeline.HermitianInput.__dict__["from_matrix"], numpy.linalg.eigh)
    assert all(x is y for x, y in zip(before, after))
    count, _, _ = tracer.totals()
    assert count["pipeline.run_qpca"] == 1
    assert count["pipeline.eigh"] == 2
    assert count["sim.apply"] > 0
