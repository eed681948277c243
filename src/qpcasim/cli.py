"""Command line front end: matrix files in, result documents out.

Exit codes: 0 success, 2 bad input (file, parse, or parameter), 3 every
component filtered out, 4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .builders import SYMMETRY_ATOL
from .complexity import cost_baseline, cost_proposed, gate_ratio
from .pipeline import (
    AllComponentsFiltered,
    HermitianInput,
    PipelineInvariantError,
    QpcaConfig,
    run_qpca,
)
from .sim import ROUNDOFF, ZeroProbabilityOutcome

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_FILTERED = 3
EXIT_INTERNAL = 4

MAX_EIG_BITS = 8


class ParseError(Exception):
    """Matrix file is missing or malformed."""


class NotSquare(ParseError):
    """Matrix file parsed but the row/column counts disagree."""


class NotSymmetric(ParseError):
    """Matrix is square but not symmetric within tolerance."""


@dataclass(frozen=True)
class RunSpec:
    """Validated arguments of the ``run`` subcommand."""

    matrix_path: str
    tau: float
    eig_bits: int
    out_path: str
    mode: str = "exact"
    shots: int = 8192
    seed: int = 0


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
            doc = json.loads(text)
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
            try:
                rows.append([float(v) for v in row])
            except (TypeError, ValueError):
                raise ParseError(f"{path}: row {lineno} contains a non-numeric value") from None
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


def _result_document(hin: HermitianInput, spec: RunSpec, result) -> dict:
    doc = {
        "input_state": [_sig10(v) for v in hin.amplitude_encoding],
        "tau": _sig10(spec.tau),
        "eig_bits": spec.eig_bits,
        "mode": spec.mode,
        "kept_eigenvalues": [_sig10(v) for v in result.kept_eigenvalues],
        "success_probability": _sig10(result.success_prob),
        "output_amplitudes": [_sig10(_floored(v)) for v in result.output_amps],
        "lambda_histogram": {
            str(k): _sig10(v) for k, v in sorted(result.lambda_histogram.items())
        },
        "fidelity_vs_classical": _sig10(result.fidelity),
        "gate_counts": {
            "proposed": cost_proposed(spec.eig_bits, result.layout.data_qubits).total,
            "baseline": cost_baseline(spec.eig_bits, result.layout.data_qubits).total,
            "ratio": _sig10(gate_ratio(spec.eig_bits)),
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


def run_command(spec: RunSpec) -> int:
    if not spec.tau > 0:
        return _fail(EXIT_INPUT, f"tau must be positive, got {spec.tau}")
    if not 1 <= spec.eig_bits <= MAX_EIG_BITS:
        return _fail(EXIT_INPUT, f"eig-bits must lie in [1, {MAX_EIG_BITS}], got {spec.eig_bits}")
    if spec.mode not in ("exact", "sampled"):
        return _fail(EXIT_INPUT, f"mode must be 'exact' or 'sampled', got {spec.mode!r}")
    if spec.shots < 1:
        return _fail(EXIT_INPUT, f"shots must be >= 1, got {spec.shots}")

    try:
        hin = parse_matrix(spec.matrix_path)
    except ParseError as e:
        return _fail(EXIT_INPUT, str(e))
    except ValueError as e:
        return _fail(EXIT_INPUT, f"{spec.matrix_path}: {e}")

    config = QpcaConfig(
        tau=spec.tau, n_bits=spec.eig_bits, mode=spec.mode, shots=spec.shots, seed=spec.seed
    )
    try:
        result = run_qpca(hin, config)
    except (AllComponentsFiltered, ZeroProbabilityOutcome) as e:
        return _fail(EXIT_FILTERED, f"all components filtered: {e}")
    except PipelineInvariantError as e:
        return _fail(EXIT_INTERNAL, f"internal invariant violated: {e}")
    except ValueError as e:
        return _fail(EXIT_INPUT, str(e))

    out = Path(spec.out_path)
    out.write_text(json.dumps(_result_document(hin, spec, result), indent=2) + "\n")
    plot = out.with_suffix(".csv")
    plot.write_text(_plot_csv(result))
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
    Path(out_path).write_text("\n".join(lines) + "\n")
    print(f"wrote {out_path}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpcasim",
        description="Eigenvalue-threshold PCA on a statevector simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="simulate the filtering pipeline on a matrix file")
    runp.add_argument("--matrix", required=True, help="CSV or JSON matrix file")
    runp.add_argument("--tau", type=float, required=True, help="eigenvalue threshold (> 0)")
    runp.add_argument(
        "--eig-bits", type=int, required=True, help=f"eigenvalue register width (1..{MAX_EIG_BITS})"
    )
    runp.add_argument("--mode", choices=("exact", "sampled"), default="exact")
    runp.add_argument("--shots", type=int, default=8192, help="samples in sampled mode")
    runp.add_argument("--seed", type=int, default=0, help="sampling seed")
    runp.add_argument("--out", required=True, help="output JSON path (plot CSV goes next to it)")

    anap = sub.add_parser("analyze", help="tabulate gate budgets over a register-width range")
    anap.add_argument("--n-min", type=int, required=True)
    anap.add_argument("--n-max", type=int, required=True)
    anap.add_argument("--out", required=True, help="output CSV path")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return run_command(
                RunSpec(
                    matrix_path=args.matrix,
                    tau=args.tau,
                    eig_bits=args.eig_bits,
                    out_path=args.out,
                    mode=args.mode,
                    shots=args.shots,
                    seed=args.seed,
                )
            )
        return analyze_command(args.n_min, args.n_max, args.out)
    except PipelineInvariantError as e:
        return _fail(EXIT_INTERNAL, f"internal invariant violated: {e}")
    except Exception as e:  # startled by anything else: report, don't traceback
        return _fail(EXIT_INTERNAL, f"unexpected failure: {e}")


if __name__ == "__main__":
    sys.exit(main())
