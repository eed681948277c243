"""Command line front end: matrix files in, result documents out.

Exit codes: 0 success, 2 bad input (file, parse, or parameter), 3 every
component filtered out or no sampled shot accepted, 4 internal invariant
violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .builders import SYMMETRY_ATOL
from .complexity import cost_baseline, cost_proposed, gate_ratio
from .pipeline import (
    AllComponentsFiltered,
    HermitianInput,
    NoShotAccepted,
    PipelineInvariantError,
    QpcaConfig,
    run_qpca,
)
from .sim import ROUNDOFF, ZeroProbabilityOutcome

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_FILTERED = 3
EXIT_INTERNAL = 4


class ParseError(Exception):
    """Matrix file is missing or malformed."""


class NotSquare(ParseError):
    """Matrix file parsed but the row/column counts disagree."""


class NotSymmetric(ParseError):
    """Matrix is square but not symmetric within tolerance."""


def _matrix_from_rows(rows: list[list[float]], origin: str) -> HermitianInput:
    d = len(rows)
    for lineno, row in enumerate(rows, 1):
        if len(row) != d:
            raise NotSquare(f"{origin}: {d} rows but row {lineno} has {len(row)} columns")
    arr = np.array(rows, dtype=np.float64)
    if not np.isfinite(arr).all():
        i, j = np.argwhere(~np.isfinite(arr))[0]
        raise ParseError(f"{origin}: row {i + 1}, column {j + 1}: not a finite number: {arr[i, j]}")
    delta = np.abs(arr - arr.T)
    if delta.max() > SYMMETRY_ATOL:
        i, j = np.unravel_index(int(np.argmax(delta)), delta.shape)
        raise NotSymmetric(
            f"{origin}: entry ({i},{j})={arr[i, j]!r} != entry ({j},{i})={arr[j, i]!r}"
        )
    return HermitianInput.from_matrix(arr)


def _json_integer(token: str) -> int:
    """A JSON integer token as an int.  A token of more than 400 characters
    is past the float range whatever its digits; it is cut to 400, which
    keeps it there and under ``int``'s 4300-digit limit, so that the float
    conversion refuses it by row and column."""
    return int(token[:400])


def parse_matrix(path: str) -> HermitianInput:
    """Load a real symmetric matrix from a CSV or JSON file.

    CSV: one row per line, comma-separated numbers.  JSON: either a list of
    rows or an object with a "matrix" key.  Errors carry the offending line.
    """
    p = Path(path)
    if not p.is_file():
        raise ParseError(f"{path}: no such file")
    text = p.read_text()
    if p.suffix.lower() == ".json" or text.lstrip()[:1] in ("{", "["):
        try:
            doc = json.loads(text, parse_int=_json_integer)
        except json.JSONDecodeError as e:
            raise ParseError(f"{path}: line {e.lineno}: {e.msg}") from None
        if isinstance(doc, dict):
            if "matrix" not in doc:
                raise ParseError(f"{path}: JSON object lacks a 'matrix' key")
            doc = doc["matrix"]
        if not isinstance(doc, list) or not doc:
            raise ParseError(f"{path}: expected a non-empty list of rows")
        rows = []
        for lineno, row in enumerate(doc, 1):
            if not isinstance(row, list):
                raise ParseError(f"{path}: row {lineno} is not a list")
            # a JSON number parses to int or float; bool is an int subclass
            if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in row):
                raise ParseError(f"{path}: row {lineno} contains a non-numeric value")
            values = []
            for col, v in enumerate(row, 1):
                try:
                    values.append(float(v))
                except OverflowError:  # an integer past the float range
                    raise ParseError(
                        f"{path}: row {lineno}, column {col}: not a finite number: "
                        "integer too large for a float"
                    ) from None
            rows.append(values)
        return _matrix_from_rows(rows, path)

    rows = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        row = []
        for col, tok in enumerate(line.split(","), 1):
            try:
                row.append(float(tok))
            except ValueError:
                raise ParseError(
                    f"{path}: line {lineno}, column {col}: not a number: {tok.strip()!r}"
                ) from None
        rows.append(row)
    if not rows:
        raise ParseError(f"{path}: file holds no matrix rows")
    return _matrix_from_rows(rows, path)


def _sig10(x: float) -> float:
    """Floats are serialized rounded to 10 significant digits."""
    return float(f"{float(x):.10g}")


def _floored(x: float) -> float:
    """A computed amplitude, or 0.0 (never -0.0) below ``ROUNDOFF``, so the
    round-off of one arithmetic order or another does not reach the output."""
    return float(x) if abs(x) >= ROUNDOFF else 0.0


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _result_document(hin: HermitianInput, config: QpcaConfig, result) -> dict:
    n, m = config.n_bits, result.layout.data_qubits
    doc = {
        "input_state": [_sig10(v) for v in hin.amplitude_encoding],
        "tau": _sig10(config.tau),
        "eig_bits": n,
        "mode": config.mode,
        "kept_eigenvalues": [_sig10(v) for v in result.kept_eigenvalues],
        "success_probability": _sig10(result.success_prob),
        "output_amplitudes": [_sig10(_floored(v)) for v in result.output_amps],
        "lambda_histogram": {
            str(k): _sig10(v) for k, v in sorted(result.lambda_histogram.items())
        },
        "fidelity_vs_classical": _sig10(result.fidelity),
        "gate_counts": {
            "proposed": result.total_gates,
            "baseline": cost_baseline(n, m).total,
            "ratio": _sig10(gate_ratio(n)),
        },
    }
    if result.shots is not None:
        doc["shots"] = result.shots
        doc["counts"] = {str(k): v for k, v in sorted(result.counts.items())}
    return doc


def _plot_csv(result) -> str:
    lines = ["basis_index,probability"]
    for i, a in enumerate(result.output_amps):
        lines.append(f"{i},{_sig10(_floored(a) ** 2):.10g}")
    return "\n".join(lines) + "\n"


def run_command(matrix_path: str, config: QpcaConfig, out_path: str) -> int:
    try:
        hin = parse_matrix(matrix_path)
    except ParseError as e:
        return _fail(EXIT_INPUT, str(e))
    except ValueError as e:
        return _fail(EXIT_INPUT, f"{matrix_path}: {e}")

    try:
        result = run_qpca(hin, config)
    except NoShotAccepted as e:
        return _fail(EXIT_FILTERED, f"no shot accepted: {e}")
    except (AllComponentsFiltered, ZeroProbabilityOutcome) as e:
        return _fail(EXIT_FILTERED, f"all components filtered: {e}")
    except PipelineInvariantError as e:
        return _fail(EXIT_INTERNAL, f"internal invariant violated: {e}")
    except ValueError as e:
        return _fail(EXIT_INPUT, str(e))

    out = Path(out_path)
    plot = out.with_suffix(".csv")
    document = json.dumps(_result_document(hin, config, result), indent=2) + "\n"
    for path, text in ((out, document), (plot, _plot_csv(result))):
        try:
            path.write_text(text)
        except OSError as e:
            return _fail(EXIT_INPUT, f"{path}: cannot write: {e.strerror or e}")
    print(f"wrote {out} and {plot}")
    return EXIT_OK


def analyze_command(n_min: int, n_max: int, out_path: str) -> int:
    """Tabulate gate budgets and their ratio over a register-width range."""
    if not 1 <= n_min <= n_max:
        return _fail(EXIT_INPUT, f"need 1 <= n-min <= n-max, got [{n_min}, {n_max}]")
    lines = ["n,proposed_total,baseline_total,ratio"]
    for n in range(n_min, n_max + 1):
        lines.append(
            f"{n},{cost_proposed(n, 1).total},{cost_baseline(n, 1).total},{gate_ratio(n):.4f}"
        )
    try:
        Path(out_path).write_text("\n".join(lines) + "\n")
    except OSError as e:
        return _fail(EXIT_INPUT, f"{out_path}: cannot write: {e.strerror or e}")
    print(f"wrote {out_path}")
    return EXIT_OK


@functools.cache  # built once per process; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpcasim",
        description="Eigenvalue-threshold PCA on a statevector simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="simulate the filtering pipeline on a matrix file")
    runp.add_argument("--matrix", required=True, help="CSV or JSON matrix file")
    runp.add_argument("--tau", type=float, required=True, help="eigenvalue threshold (> 0)")
    runp.add_argument("--eig-bits", type=int, required=True, help="eigenvalue register width")
    runp.add_argument("--mode", choices=("exact", "sampled"), default=QpcaConfig.mode)
    runp.add_argument("--shots", type=int, default=QpcaConfig.shots, help="samples in sampled mode")
    runp.add_argument("--seed", type=int, default=QpcaConfig.seed, help="sampling seed")
    runp.add_argument("--out", required=True, help="output JSON path (plot CSV goes next to it)")

    anap = sub.add_parser("analyze", help="tabulate gate budgets over a register-width range")
    anap.add_argument("--n-min", type=int, required=True)
    anap.add_argument("--n-max", type=int, required=True)
    anap.add_argument("--out", required=True, help="output CSV path")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "analyze":
            return analyze_command(args.n_min, args.n_max, args.out)
        try:
            config = QpcaConfig(args.tau, args.eig_bits, args.mode, args.shots, args.seed)
        except ValueError as e:
            return _fail(EXIT_INPUT, str(e))
        return run_command(args.matrix, config, args.out)
    except PipelineInvariantError as e:
        return _fail(EXIT_INTERNAL, f"internal invariant violated: {e}")
    except Exception as e:  # startled by anything else: report, don't traceback
        return _fail(EXIT_INTERNAL, f"unexpected failure: {e}")


if __name__ == "__main__":
    sys.exit(main())
