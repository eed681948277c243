import json
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from qpcasim import SpectralPrecisionWarning
from qpcasim.cli import (
    EXIT_FILTERED,
    EXIT_INPUT,
    EXIT_OK,
    NotSquare,
    NotSymmetric,
    ParseError,
    main,
    parse_matrix,
)

A_CSV = "1.5,0.5\n0.5,1.5\n"
C_CSV = "0,0,0,0\n0,1,0,0\n0,0,2,0\n0,0,0,3\n"


@pytest.fixture
def a_path(tmp_path):
    p = tmp_path / "a.csv"
    p.write_text(A_CSV)
    return str(p)


@pytest.fixture
def c_path(tmp_path):
    p = tmp_path / "c.csv"
    p.write_text(C_CSV)
    return str(p)


class TestParseMatrix:
    def test_csv(self, a_path):
        hin = parse_matrix(a_path)
        assert np.allclose(hin.matrix, [[1.5, 0.5], [0.5, 1.5]])

    def test_json_list(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text('[[1.5, 0.5], [0.5, 1.5]]')
        assert np.allclose(parse_matrix(str(p)).matrix, [[1.5, 0.5], [0.5, 1.5]])

    def test_json_object(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text('{"matrix": [[2.0, 0.0], [0.0, 1.0]]}')
        assert np.allclose(parse_matrix(str(p)).matrix, np.diag([2.0, 1.0]))

    def test_missing_file(self):
        with pytest.raises(ParseError, match="no such file"):
            parse_matrix("does_not_exist.csv")

    def test_bad_token_reports_position(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1.0,0.5\n0.5,oops\n")
        with pytest.raises(ParseError, match=r"line 2, column 2.*oops"):
            parse_matrix(str(p))

    def test_ragged_rows_rejected(self, tmp_path):
        p = tmp_path / "ragged.csv"
        p.write_text("1,2\n3\n")
        with pytest.raises(NotSquare, match="row 2"):
            parse_matrix(str(p))

    def test_wide_matrix_rejected(self, tmp_path):
        p = tmp_path / "wide.csv"
        p.write_text("1,2,3\n4,5,6\n")
        with pytest.raises(NotSquare):
            parse_matrix(str(p))

    def test_asymmetric_rejected_with_entries(self, tmp_path):
        p = tmp_path / "asym.csv"
        p.write_text("1,2\n3,4\n")
        with pytest.raises(NotSymmetric, match=r"\(0,1\)"):
            parse_matrix(str(p))

    def test_bad_json_reports_line(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('[[1, 2],\n [3, ]]')
        with pytest.raises(ParseError, match="line 2"):
            parse_matrix(str(p))

    @pytest.mark.parametrize(
        "text, row",
        [
            ("[[true, false], [false, true]]", 1),
            ('[["2", "0"], ["0", "1"]]', 1),
            ('{"matrix": [[2, 0], [0, null]]}', 2),
        ],
        ids=["booleans", "numeric-strings", "null"],
    )
    def test_json_entries_must_be_numbers(self, tmp_path, capsys, text, row):
        p = tmp_path / "m.json"
        p.write_text(text)
        message = f"{p}: row {row} contains a non-numeric value"
        with pytest.raises(ParseError, match=message):
            parse_matrix(str(p))
        code = main(["run", "--matrix", str(p), "--tau", "0.5", "--eig-bits", "2",
                     "--out", str(tmp_path / "x.json")])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "x.json").exists()

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "padded.csv"
        p.write_text("\n1.5,0.5\n\n0.5,1.5\n\n")
        assert parse_matrix(str(p)).dim == 2


class TestRunCommand:
    def test_exact_run_document(self, a_path, tmp_path):
        out = tmp_path / "result.json"
        code = main(["run", "--matrix", a_path, "--tau", "1.0", "--eig-bits", "2",
                     "--out", str(out)])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["success_probability"] == 0.8
        assert doc["output_amplitudes"] == [0.5, 0.5, 0.5, 0.5]
        assert doc["kept_eigenvalues"] == [2.0]
        assert doc["lambda_histogram"] == {"2": 1.0}
        assert doc["fidelity_vs_classical"] == 1.0
        assert doc["gate_counts"] == {"proposed": 78, "baseline": 216, "ratio": 0.3611111111}
        plot = (tmp_path / "result.csv").read_text().splitlines()
        assert plot[0] == "basis_index,probability"
        assert plot[1] == "0,0.25"
        assert len(plot) == 5

    def test_widest_register(self, a_path, tmp_path):
        # README example on 1 + 2*8 + 2 = 19 and 1 + 2*12 + 2 = 27 qubits
        out = tmp_path / "result.json"
        for eig_bits in ("8", "12"):
            assert main(["run", "--matrix", a_path, "--tau", "1.0", "--eig-bits", eig_bits,
                         "--out", str(out)]) == EXIT_OK
            doc = json.loads(out.read_text())
            assert doc["success_probability"] == 0.8
            assert doc["output_amplitudes"] == [0.5, 0.5, 0.5, 0.5]
        # 64x64 at n = 6: 25 qubits, 2**18 live amplitudes
        p = tmp_path / "wide.csv"
        np.savetxt(p, np.diag(np.arange(64.0) % 8), delimiter=",")
        assert main(["run", "--matrix", str(p), "--tau", "0.5", "--eig-bits", "6",
                     "--out", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["kept_eigenvalues"] == [float(v) for v in range(7, 0, -1) for _ in range(8)]
        assert doc["fidelity_vs_classical"] == 1.0

    def test_output_is_deterministic(self, c_path, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for out in (out1, out2):
            assert main(["run", "--matrix", c_path, "--tau", "1.8", "--eig-bits", "2",
                         "--out", str(out)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()
        assert (tmp_path / "r1.csv").read_bytes() == (tmp_path / "r2.csv").read_bytes()

    def test_round_trip_through_json(self, c_path, tmp_path):
        out = tmp_path / "result.json"
        main(["run", "--matrix", c_path, "--tau", "0.5", "--eig-bits", "2", "--out", str(out)])
        doc = json.loads(out.read_text())
        amps = np.array(doc["output_amplitudes"])
        assert abs(amps[15] - float(f"{3 / np.sqrt(14):.10g}")) < 1e-12
        assert abs(sum(a * a for a in amps) - 1.0) < 1e-9

    def test_sampled_run_includes_counts(self, c_path, tmp_path):
        out = tmp_path / "sampled.json"
        code = main(["run", "--matrix", c_path, "--tau", "1.8", "--eig-bits", "2",
                     "--mode", "sampled", "--shots", "8192", "--seed", "7", "--out", str(out)])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["shots"] == 8192
        assert set(doc["counts"]) == {"10", "15"}
        est = np.array(doc["output_amplitudes"])
        assert abs(est[15] - 3 / np.sqrt(13)) < 0.03

    def test_off_grid_tau_keeps_integer_eigenvalue(self, tmp_path):
        # tau = 2.9 rounds to 3.0 on the 2-bit grid; lambda = 3 is still kept
        matrix = tmp_path / "d31.csv"
        matrix.write_text("3,0\n0,1\n")
        out = tmp_path / "result.json"
        code = main(["run", "--matrix", str(matrix), "--tau", "2.9", "--eig-bits", "2",
                     "--out", str(out)])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["kept_eigenvalues"] == [3.0]
        assert doc["success_probability"] == 0.9
        assert doc["fidelity_vs_classical"] == 1.0

    def test_unwritable_out_exits_two_naming_the_path(self, a_path, tmp_path, capsys):
        # a file error is bad input, exit 2, not an unexpected failure
        for out in (tmp_path / "no" / "such" / "dir" / "o.json", tmp_path):
            code = main(["run", "--matrix", a_path, "--tau", "1.0", "--eig-bits", "2",
                         "--out", str(out)])
            assert code == EXIT_INPUT
            assert capsys.readouterr().err.startswith(f"error: {out}: cannot write: ")

    def test_one_by_one_matrix_exits_two_naming_the_dimension(self, tmp_path, capsys):
        matrix = tmp_path / "one.csv"
        matrix.write_text("3\n")
        code = main(["run", "--matrix", str(matrix), "--tau", "1.0", "--eig-bits", "2",
                     "--out", str(tmp_path / "x.json")])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: matrix dimension 1 is below 2")

    def test_all_filtered_exits_three(self, c_path, tmp_path, capsys):
        code = main(["run", "--matrix", c_path, "--tau", "9.0", "--eig-bits", "2",
                     "--out", str(tmp_path / "x.json")])
        assert code == EXIT_FILTERED
        err = capsys.readouterr().err
        assert err.startswith("error:") and "filtered" in err

    def test_near_integer_spectrum_all_filtered_exits_three(self, tmp_path, capsys):
        # within SPECTRUM_ATOL of 1 and 5, so read as 1 and 5, both below
        # tau: phase estimation must put no round-off mass on a kept value
        matrix = tmp_path / "near.csv"
        matrix.write_text("1.0000005,0\n0,5.0000009\n")
        code = main(["run", "--matrix", str(matrix), "--tau", "5.5", "--eig-bits", "3",
                     "--out", str(tmp_path / "x.json")])
        assert code == EXIT_FILTERED
        err = capsys.readouterr().err
        assert err.startswith("error:") and "filtered" in err

    def test_eigenvalue_just_below_zero_reads_zero_and_does_not_warn(self, tmp_path):
        # -2e-7 is within SPECTRUM_ATOL of 0, the value the register reads
        matrix = tmp_path / "below.csv"
        matrix.write_text("3,0\n0,-2e-7\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["run", "--matrix", str(matrix), "--tau", "1.5", "--eig-bits", "2",
                         "--out", str(tmp_path / "x.json")])
        assert code == EXIT_OK

    @pytest.mark.parametrize("text", ["3.9999999,0\n0,1\n", "4,0\n0,1\n"], ids=["near-4", "4"])
    def test_register_reading_of_four_wraps_with_a_warning(self, tmp_path, capsys, text):
        # both are read as 4, which a 2-bit register holds as 0: nothing
        # lies above tau 1.5, and the run says why
        matrix = tmp_path / "wraps.csv"
        matrix.write_text(text)
        with pytest.warns(SpectralPrecisionWarning, match="will wrap"):
            code = main(["run", "--matrix", str(matrix), "--tau", "1.5", "--eig-bits", "2",
                         "--out", str(tmp_path / "x.json")])
        assert code == EXIT_FILTERED
        assert "filtered" in capsys.readouterr().err

    def test_no_shot_accepted_exits_three(self, tmp_path, capsys):
        # success probability 1.48e-4: none of 100 shots lands on the
        # post-selected ancilla, a measurement outcome, not a broken invariant
        matrix = tmp_path / "rare.csv"
        matrix.write_text("2,0\n0,0.125\n")
        with pytest.warns(SpectralPrecisionWarning):
            code = main(["run", "--matrix", str(matrix), "--tau", "0.5", "--eig-bits", "1",
                         "--mode", "sampled", "--shots", "100", "--seed", "0",
                         "--out", str(tmp_path / "x.json")])
        assert code == EXIT_FILTERED
        err = capsys.readouterr().err
        assert err.startswith("error: no shot accepted: none of 100 shots"), err
        assert "success probability 1.481e-04" in err and "filtered" not in err
        assert not (tmp_path / "x.json").exists()

    def test_bad_tau_exits_two(self, a_path, tmp_path, capsys):
        code = main(["run", "--matrix", a_path, "--tau", "-1", "--eig-bits", "2",
                     "--out", str(tmp_path / "x.json")])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error:")

    def test_infinite_tau_exits_two(self, a_path, tmp_path, capsys):
        code = main(["run", "--matrix", a_path, "--tau", "inf", "--eig-bits", "2",
                     "--out", str(tmp_path / "x.json")])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == "error: tau must be positive and finite, got inf\n"

    def test_bad_eig_bits_exits_two(self, a_path, tmp_path, capsys):
        assert main(["run", "--matrix", a_path, "--tau", "1", "--eig-bits", "0",
                     "--out", str(tmp_path / "x.json")]) == EXIT_INPUT
        assert capsys.readouterr().err == "error: n_bits must be >= 1, got 0\n"

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--shots", str(2**63)], f"shots must be >= 1 and <= 2**63 - 1, got {2**63}"),
            (["--seed", "-1"], "seed must be >= 0, got -1"),
            (
                ["--eig-bits", "100000000"],
                "n_bits must be <= 20, the widest register any input can run "
                "within 4194304 live amplitudes, got 100000000",
            ),
        ],
        ids=["shots-past-int64", "negative-seed", "eig-bits-past-any-input"],
    )
    def test_run_parameter_out_of_range_exits_two(
        self, a_path, tmp_path, capsys, monkeypatch, flags, message
    ):
        # refused by QpcaConfig, before the matrix is read or anything simulated
        def unreached(*_):
            raise AssertionError("simulated")

        monkeypatch.setattr("qpcasim.cli.run_command", unreached)
        code = main(["run", "--matrix", a_path, "--tau", "1", "--eig-bits", "2",
                     "--mode", "sampled", "--out", str(tmp_path / "x.json")] + flags)
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_register_too_wide_exits_two(self, tmp_path, capsys):
        # 64x64 at n = 11 is 2**23 live amplitudes, over the 2**22 limit:
        # refused before a 128 MiB block of them exists
        p = tmp_path / "wide.csv"
        np.savetxt(p, np.diag(np.arange(64.0) % 8), delimiter=",")
        out = tmp_path / "x.json"
        start = time.perf_counter()
        code = main(["run", "--matrix", str(p), "--tau", "0.5", "--eig-bits", "11",
                     "--out", str(out)])
        assert time.perf_counter() - start < 5.0
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert "8388608 live amplitudes" in err and "134217728 bytes" in err
        assert not out.exists()

    def test_missing_matrix_exits_two(self, tmp_path, capsys):
        code = main(["run", "--matrix", "missing.csv", "--tau", "1", "--eig-bits", "2",
                     "--out", str(tmp_path / "x.json")])
        assert code == EXIT_INPUT
        assert "no such file" in capsys.readouterr().err

    def test_asymmetric_matrix_exits_two(self, tmp_path, capsys):
        p = tmp_path / "asym.csv"
        p.write_text("1,2\n3,4\n")
        code = main(["run", "--matrix", str(p), "--tau", "1", "--eig-bits", "2",
                     "--out", str(tmp_path / "x.json")])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "name, text, entry",
        [
            ("nan.csv", "1.5,nan\n0.5,1.5\n", "row 1, column 2: not a finite number: nan"),
            ("inf.csv", "1.5,0.5\n0.5,inf\n", "row 2, column 2: not a finite number: inf"),
            ("nan.json", "[[NaN, 0.5], [0.5, 1.5]]", "row 1, column 1: not a finite number: nan"),
            ("inf.json", "[[1.5, 0.5], [-Infinity, 1.5]]", "row 2, column 1: not a finite number: -inf"),
            (
                "huge.json",
                f"[[1{'0' * 400}, 0], [0, 0]]",
                "row 1, column 1: not a finite number: integer too large for a float",
            ),
            (
                "huge.json",
                f"[[1.5, 0], [-1{'0' * 400}, 1.5]]",
                "row 2, column 1: not a finite number: integer too large for a float",
            ),
            (
                # past int()'s 4300-digit limit for string conversion
                "huge.json",
                f"[[1.5, 0], [0, 1{'0' * 5000}]]",
                "row 2, column 2: not a finite number: integer too large for a float",
            ),
        ],
        ids=[
            "csv-nan", "csv-inf", "json-nan", "json-minus-inf",
            "json-huge-integer", "json-huge-negative-integer", "json-5001-digit-integer",
        ],
    )
    def test_non_finite_entry_exits_two(self, tmp_path, capsys, name, text, entry):
        p = tmp_path / name
        p.write_text(text)
        with pytest.raises(ParseError, match=entry):
            parse_matrix(str(p))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["run", "--matrix", str(p), "--tau", "1", "--eig-bits", "2",
                         "--out", str(tmp_path / "x.json")])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {p}: {entry}\n"
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_symmetry_tolerance(self, tmp_path):
        # 5e-10 of asymmetry runs end to end, 2e-9 is refused at parsing
        near, far = tmp_path / "near.csv", tmp_path / "far.csv"
        near.write_text("1.5,0.5\n0.5000000005,1.5\n")
        far.write_text("1.5,0.5\n0.500000002,1.5\n")
        assert main(["run", "--matrix", str(near), "--tau", "1", "--eig-bits", "2",
                     "--out", str(tmp_path / "near.json")]) == EXIT_OK
        with pytest.raises(NotSymmetric):
            parse_matrix(str(far))
        assert main(["run", "--matrix", str(far), "--tau", "1", "--eig-bits", "2",
                     "--out", str(tmp_path / "far.json")]) == EXIT_INPUT

    def test_odd_dimension_exits_two(self, tmp_path):
        p = tmp_path / "odd.csv"
        p.write_text("1,0,0\n0,1,0\n0,0,1\n")
        assert main(["run", "--matrix", str(p), "--tau", "0.5", "--eig-bits", "2",
                     "--out", str(tmp_path / "x.json")]) == EXIT_INPUT


REPO = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "data" / "golden"


@pytest.mark.parametrize("mode", ["exact", "sampled"])
@pytest.mark.parametrize("eig_bits", [2, 6])
@pytest.mark.parametrize("matrix,tau", [("2x2", "1.0"), ("4x4", "1.8")])
def test_run_output_matches_golden_bytes(matrix, tau, eig_bits, mode, tmp_path):
    # the recorded JSON and CSV are the behaviour spec: any change to the
    # numbers, their rounding or their layout shows up as a byte difference
    name = f"matrix_{matrix}_tau{tau}_n{eig_bits}_{mode}"
    out = tmp_path / f"{name}.json"
    code = main(["run", "--matrix", str(REPO / "data" / f"matrix_{matrix}.csv"), "--tau", tau,
                 "--eig-bits", str(eig_bits), "--mode", mode, "--seed", "7", "--out", str(out)])
    assert code == EXIT_OK
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()
    assert out.with_suffix(".csv").read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()


class TestAnalyzeCommand:
    def test_table_contents(self, tmp_path):
        out = tmp_path / "budget.csv"
        assert main(["analyze", "--n-min", "2", "--n-max", "2", "--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "n,proposed_total,baseline_total,ratio"
        assert lines[1] == "2,78,216,0.3611"

    def test_ratio_column_increases(self, tmp_path):
        out = tmp_path / "budget.csv"
        assert main(["analyze", "--n-min", "1", "--n-max", "4", "--out", str(out)]) == EXIT_OK
        rows = out.read_text().splitlines()[1:]
        ratios = [float(r.split(",")[3]) for r in rows]
        assert len(rows) == 4
        assert ratios == sorted(ratios) and len(set(ratios)) == 4

    def test_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "b1.csv", tmp_path / "b2.csv"
        main(["analyze", "--n-min", "1", "--n-max", "6", "--out", str(out1)])
        main(["analyze", "--n-min", "1", "--n-max", "6", "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_bad_range_exits_two(self, tmp_path, capsys):
        code = main(["analyze", "--n-min", "3", "--n-max", "1", "--out", str(tmp_path / "b.csv")])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error:")

    def test_unwritable_out_exits_two_naming_the_path(self, tmp_path, capsys):
        # a file error is bad input, exit 2, not an unexpected failure
        for out in (tmp_path / "no" / "such" / "dir" / "b.csv", tmp_path):
            code = main(["analyze", "--n-min", "1", "--n-max", "2", "--out", str(out)])
            assert code == EXIT_INPUT
            assert capsys.readouterr().err.startswith(f"error: {out}: cannot write: ")


def test_calls_in_one_process_match_fresh_processes(a_path, tmp_path, capsys):
    # the parser is built once per process: run, analyze, a bad argument
    # and run again give what a fresh interpreter gives for each
    out, table = tmp_path / "x.json", tmp_path / "t.csv"
    calls = [
        ["run", "--matrix", a_path, "--tau", "1", "--eig-bits", "2", "--mode", "sampled",
         "--out", str(out)],
        ["analyze", "--n-min", "1", "--n-max", "3", "--out", str(table)],
        ["run", "--matrix", a_path, "--tau", "1", "--eig-bits", "two", "--out", str(out)],
        ["run", "--matrix", a_path, "--tau", "1", "--eig-bits", "3", "--out", str(out)],
    ]

    def written():
        return tuple(p.read_bytes() if p.exists() else None for p in (out, table))

    codes = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as e:  # argparse refuses the bad argument
            code = e.code
        codes.append(code)
        got = (code, *capsys.readouterr(), *written())
        proc = subprocess.run([sys.executable, "-m", "qpcasim.cli", *argv],
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr, *written()) == got, argv
    assert codes == [EXIT_OK, EXIT_OK, EXIT_INPUT, EXIT_OK]


def test_console_entry_point(tmp_path):
    out = tmp_path / "budget.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "qpcasim.cli", "analyze", "--n-min", "1", "--n-max", "2",
         "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert out.read_text().splitlines()[2] == "2,78,216,0.3611"
