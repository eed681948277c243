"""Reference results from the generating eigenpairs alone, and output checks.

Nothing here calls qpcasim or an eigensolver: the expected state, success
probability, kept eigenvalues and eigenvalue-register histogram follow from
the integer spectrum lam and the orthogonal Q that built the input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

AMP_ATOL = 1e-8     # exact-mode amplitudes, fidelity; CLI floats carry 10 digits
PROB_ATOL = 1e-9    # success probability and histogram masses
EIG_ATOL = 1e-6     # reported kept eigenvalues against the integers
SAMPLED_SIGMAS = 8  # sampled-mode bound, in standard deviations

FIDELITY_FAULT = "fidelity-report"
WRONG_OUTPUT = "wrong-output"


@dataclass(frozen=True, eq=False)
class Expected:
    amps: np.ndarray                 # data-register state, row-major (u, v) index
    success: float                   # sum_kept lam^2 / sum lam^2
    kept: tuple[float, ...]          # kept eigenvalues, descending
    histogram: dict[int, float]      # lambda-register value -> mass


def expected(lam, q, tau: float, n_bits: int) -> Expected:
    """Thresholded PCA state of Q diag(lam) Q^T: keep lam > tau.

    Requires integer lam in [0, 2**n_bits) and tau on the n-bit register
    grid, where the register comparison and the real comparison agree.
    """
    lam = np.asarray(lam, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    scale = 1 << n_bits
    if np.any(lam != np.round(lam)) or lam.min() < 0 or lam.max() >= scale:
        raise ValueError(f"eigenvalues {lam} are not integers in [0, {scale})")
    if tau * scale != round(tau * scale):
        raise ValueError(f"tau={tau} is off the {n_bits}-bit register grid")
    kept = [k for k in range(lam.size) if lam[k] > tau]
    if not kept:
        raise ValueError(f"no eigenvalue exceeds tau={tau}")
    weight = sum(lam[k] ** 2 for k in kept)
    amps = sum(lam[k] * np.kron(q[:, k], q[:, k]) for k in kept) / math.sqrt(weight)
    histogram: dict[int, float] = {}
    for k in kept:
        histogram[int(lam[k])] = histogram.get(int(lam[k]), 0.0) + lam[k] ** 2 / weight
    return Expected(
        amps=amps,
        success=float(weight / np.sum(lam**2)),
        kept=tuple(sorted((float(lam[k]) for k in kept), reverse=True)),
        histogram=histogram,
    )


def compare(
    exp: Expected,
    *,
    amps,
    success: float,
    kept,
    histogram: dict[int, float],
    fidelity: float,
    counts: dict[int, int] | None = None,
    shots: int | None = None,
) -> list[tuple[str, str]]:
    """Problems found in one reported result, as (kind, message) pairs.

    ``counts`` and ``shots`` mark a sampled-mode result: amplitudes are then
    magnitude estimates, checked within ``SAMPLED_SIGMAS`` standard
    deviations of sqrt(p) estimated from the accepted shots (about
    1 / (2 sqrt(accepted)) each).
    """
    problems = []
    amps = np.asarray(amps, dtype=np.float64)
    if amps.shape != exp.amps.shape:
        return [(WRONG_OUTPUT, f"{amps.size} amplitudes, expected {exp.amps.size}")]

    if counts is None:
        err = float(np.max(np.abs(amps - exp.amps)))
        if err > AMP_ATOL:
            problems.append((WRONG_OUTPUT, f"amplitudes off by {err:.3e}"))
    else:
        accepted = sum(counts.values())
        if accepted < 1:
            return [(WRONG_OUTPUT, "no accepted shots")]
        err = float(np.max(np.abs(amps - np.abs(exp.amps))))
        bound = SAMPLED_SIGMAS / (2 * math.sqrt(accepted))
        if err > bound:
            problems.append((WRONG_OUTPUT, f"sampled magnitudes off by {err:.3e} > {bound:.3e}"))
        p = exp.success
        rate_bound = SAMPLED_SIGMAS * math.sqrt(p * (1 - p) / shots) + 1 / shots
        if abs(accepted / shots - p) > rate_bound:
            problems.append((WRONG_OUTPUT, f"{accepted}/{shots} shots accepted, expected {p:.4f}"))

    if abs(success - exp.success) > PROB_ATOL:
        problems.append((WRONG_OUTPUT, f"success {success!r}, expected {exp.success!r}"))

    kept = sorted((float(x) for x in kept), reverse=True)
    if len(kept) != len(exp.kept) or any(
        abs(a - b) > EIG_ATOL for a, b in zip(kept, exp.kept)
    ):
        problems.append((WRONG_OUTPUT, f"kept eigenvalues {kept}, expected {list(exp.kept)}"))

    if set(histogram) != set(exp.histogram) or any(
        abs(histogram[v] - m) > PROB_ATOL for v, m in exp.histogram.items()
    ):
        problems.append((WRONG_OUTPUT, f"histogram {histogram}, expected {exp.histogram}"))

    own = float(abs(np.dot(amps, exp.amps)))
    if abs(fidelity - own) > AMP_ATOL:
        problems.append(
            (FIDELITY_FAULT, f"reported fidelity {fidelity!r} but |<output, reference>| = {own!r}")
        )
    return problems


def compare_result(exp: Expected, result) -> list[tuple[str, str]]:
    """Check a ``QpcaResult`` returned by ``run_qpca``."""
    return compare(
        exp,
        amps=result.output_amps,
        success=result.success_prob,
        kept=result.kept_eigenvalues,
        histogram=result.lambda_histogram,
        fidelity=result.fidelity,
        counts=result.counts,
        shots=result.shots,
    )


def compare_document(exp: Expected, doc: dict, plot_csv: str) -> list[tuple[str, str]]:
    """Check the JSON document and plot CSV written by ``qpcasim run``."""
    amps = doc["output_amplitudes"]
    counts = doc.get("counts")
    problems = compare(
        exp,
        amps=amps,
        success=doc["success_probability"],
        kept=doc["kept_eigenvalues"],
        histogram={int(k): v for k, v in doc["lambda_histogram"].items()},
        fidelity=doc["fidelity_vs_classical"],
        counts=None if counts is None else {int(k): c for k, c in counts.items()},
        shots=doc.get("shots"),
    )
    rows = plot_csv.splitlines()
    probs = [float(line.split(",")[1]) for line in rows[1:]]
    if rows[:1] != ["basis_index,probability"] or len(probs) != len(amps) or any(
        abs(p - a * a) > PROB_ATOL for p, a in zip(probs, amps)
    ):
        problems.append((WRONG_OUTPUT, "plot CSV disagrees with the output amplitudes"))
    return problems
