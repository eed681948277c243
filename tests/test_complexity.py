import pytest

from qpcasim import CostReport, RegisterLayout, cost_baseline, cost_proposed, gate_ratio


def test_proposed_formula_over_full_range():
    for n in range(1, 10_001):
        report = cost_proposed(n, 2)
        assert report.total == 3 * n * n + 33 * n
        assert report.per_block["filter"] == 16 * n


def test_baseline_formula_over_full_range():
    for n in range(1, 10_001):
        assert cost_baseline(n, 2).total == 5 * n * n + 98 * n


def test_block_decomposition_proposed():
    report = cost_proposed(2, 2)
    assert report.per_block == {"PE1": 4, "filter": 32, "CU": 2, "Udagger": 36, "PE2": 4}
    assert report.total == 78


def test_register_width_validated():
    with pytest.raises(ValueError, match="n must be"):
        cost_proposed(0, 2)


def test_block_decomposition_baseline():
    report = cost_baseline(2, 2)
    assert report.total == 216
    assert report.per_block["PE x3"] == 12


def test_qubit_budget_matches_layout():
    for n in (1, 2, 3):
        for m in (2, 4):
            layout = RegisterLayout(eig_bits=n, data_qubits=m)
            assert cost_proposed(n, m).qubits == layout.num_qubits
            assert cost_baseline(n, m).qubits == layout.num_qubits


def test_ratio_examples():
    assert abs(gate_ratio(2) - 78 / 216) < 1e-12


def test_ratio_increases_monotonically():
    prev = 0.0
    for n in range(1, 200):
        r = gate_ratio(n)
        assert prev < r < 3 / 5
        prev = r


def test_ratio_approaches_three_fifths():
    assert abs(gate_ratio(1000) - 0.6) < 0.01


def test_report_validates_total():
    with pytest.raises(ValueError, match="total"):
        CostReport(n=1, per_block={"a": 2}, total=3, qubits=4)


def test_report_validates_counts():
    with pytest.raises(ValueError, match="nonnegative"):
        CostReport(n=1, per_block={"a": -2}, total=-2, qubits=4)
