"""Benchmark of the qpcasim pipeline, one workload per invocation.

    python3 qpcabench/run.py --workload wide-register --seed 1 --seconds 30 --trace 0

Each workload is a closed loop: one client in one process makes one call at
a time, in whole rounds of the same cases (see workloads.py), until
--seconds have passed.  Every call's output is checked against reference.py.

--trace 0 reports the end-to-end metrics with no wrappers installed.
--trace 1 alternates untraced and traced rounds and reports the per-layer
metrics (tracer.py) and the tracing overhead.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Details go to qpcabench/out/.
"""

import os

# One BLAS thread, on a 2-core machine: a second thread competes with other
# tenants of the machine and made call times drift between runs.  This must
# be set before numpy is first imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import reference  # noqa: E402
import workloads  # noqa: E402
from tracer import CALL, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_PROBES = {"wide-register": 5, "wide-data": 7, "cli-sweep": 9}


class Tally:
    """Calls attempted and failed, with the kinds of problem seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.kinds: Counter = Counter()
        self.examples: dict[str, str] = {}

    def record(self, name: str, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
        for kind, message in problems:
            self.kinds[kind] += 1
            self.examples.setdefault(kind, f"{name}: {message}")

    @property
    def correct(self) -> bool:
        """True when the only failures are the known fidelity-report fault."""
        return set(self.kinds) <= {reference.FIDELITY_FAULT}


class LibraryCalls:
    """``run_qpca`` on inputs prepared with ``HermitianInput.from_matrix``."""

    def __init__(self, cases):
        from qpcasim import pipeline

        self.pipeline = pipeline
        self.cases = cases
        self.configs = [
            pipeline.QpcaConfig(
                tau=c.tau, n_bits=c.n_bits, mode=c.mode, shots=workloads.SHOTS, seed=c.sample_seed
            )
            for c in cases
        ]
        self.expected = [reference.expected(c.lam, c.q, c.tau, c.n_bits) for c in cases]
        self.prepare()

    def prepare(self):
        self.inputs = [self.pipeline.HermitianInput.from_matrix(c.matrix) for c in self.cases]

    def call(self, i: int):
        return self.pipeline.run_qpca(self.inputs[i], self.configs[i])

    def check(self, i: int, result):
        return reference.compare_result(self.expected[i], result)

    def probe_spec(self) -> dict:
        return {
            "matrix": self.cases[0].matrix.tolist(),
            "config": dataclasses.asdict(self.configs[0]),
        }


class CliCalls:
    """In-process ``qpcasim run`` on matrix files written as CSV."""

    def __init__(self, cases, workdir: Path):
        from qpcasim import cli

        self.cli = cli
        self.cases = cases
        self.expected = [reference.expected(c.lam, c.q, c.tau, c.n_bits) for c in cases]
        self.outs, self.argv = [], []
        for i, c in enumerate(cases):
            matrix = workdir / f"{i:02d}-{c.name}.csv"
            matrix.write_text(
                "".join(",".join(repr(float(x)) for x in row) + "\n" for row in c.matrix)
            )
            out = workdir / f"{i:02d}-{c.name}.out.json"
            self.outs.append(out)
            self.argv.append([
                "run", "--matrix", str(matrix), "--tau", repr(c.tau),
                "--eig-bits", str(c.n_bits), "--out", str(out), "--mode", c.mode,
                "--shots", str(workloads.SHOTS), "--seed", str(c.sample_seed),
            ])
        self.first: list = [None] * len(cases)  # (file bytes, problems) of the first call

    def prepare(self):
        pass

    def call(self, i: int):
        return self.cli.main(self.argv[i])

    def check(self, i: int, code):
        if code != 0:
            return [(reference.WRONG_OUTPUT, f"qpcasim run exited {code}")]
        out = self.outs[i]
        files = (out.read_bytes(), out.with_suffix(".csv").read_bytes())
        out.unlink()
        out.with_suffix(".csv").unlink()
        if self.first[i] is None:
            doc, plot = json.loads(files[0]), files[1].decode()
            problems = reference.compare_document(self.expected[i], doc, plot)
            self.first[i] = (files, problems)
            return problems
        first_files, problems = self.first[i]
        if files != first_files:
            return [(reference.WRONG_OUTPUT, "a repeated call wrote different bytes")]
        return problems

    def probe_spec(self) -> dict:
        argv = list(self.argv[0])
        argv[argv.index("--out") + 1] = str(self.outs[0].with_name("probe.out.json"))
        return {"argv": argv}


def run_round(calls, tally: Tally, durations: list | None, call=None):
    """Call every case once, timing only the calls, then check each output."""
    call = call or calls.call
    clock = time.perf_counter
    for i, case in enumerate(calls.cases):
        start = clock()
        try:
            out = call(i)
        except Exception as e:  # a failed call is counted, and the run goes on
            tally.record(case.name, [(reference.WRONG_OUTPUT, f"raised {type(e).__name__}: {e}")])
            continue
        elapsed = clock() - start
        if durations is not None:
            durations.append(elapsed)
        tally.record(case.name, calls.check(i, out))


def measure_setup(workload: str, calls, workdir: Path) -> tuple[float, list[float]]:
    spec = dict(calls.probe_spec(), src=str(SRC))
    path = workdir / "probe.json"
    path.write_text(json.dumps(spec))
    samples = []
    for _ in range(SETUP_PROBES[workload]):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(path)],
            capture_output=True, text=True, timeout=90, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(samples), samples


def peak_round(calls, tally: Tally) -> float:
    """Largest traced allocation peak of one call, in MB, over one round."""
    peaks = []

    def measured(i):
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        try:
            return calls.call(i)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1] - base)

    tracemalloc.start()
    try:
        run_round(calls, tally, None, measured)
    finally:
        tracemalloc.stop()
    return max(peaks) / 1e6


def end_to_end(workload, calls, seconds, workdir, tally):
    setup, setup_samples = measure_setup(workload, calls, workdir)
    run_round(calls, tally, None)  # warm-up; also the reference bytes on cli-sweep
    durations = []
    deadline = time.perf_counter() + seconds
    while True:
        run_round(calls, tally, durations)
        if time.perf_counter() >= deadline:
            break
    peak = peak_round(calls, tally)
    metrics = {
        "run_s_p50": (statistics.median(durations), "s"),
        "runs_per_s": (len(durations) / sum(durations), "1/s"),
        "peak_mb": (peak, "MB"),
        "setup_s": (setup, "s"),
    }
    detail = {"call_s": durations, "setup_samples": setup_samples}
    return metrics, detail


def traced(workload, calls, seconds, seed, tally):
    tracer = Tracer()
    traced_call = tracer.wrap(CALL, calls.call)
    run_round(calls, tally, None)  # warm-up
    plain, wrapped = [], []
    deadline = time.perf_counter() + seconds
    while True:
        durations = []
        run_round(calls, tally, durations)
        plain.append(sum(durations))
        tracer.install()
        try:
            calls.prepare()
            durations = []
            run_round(calls, tally, durations, traced_call)
            wrapped.append(sum(durations))
        finally:
            tracer.remove()
        if time.perf_counter() >= deadline:
            break
    tracer.write(OUT / f"spans-{workload}-seed{seed}.json.gz")
    extra = statistics.median(wrapped) - statistics.median(plain)
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_s"] = (extra / len(calls.cases), "s")
    metrics["trace.overhead_pct"] = (100 * extra / statistics.median(plain), "%")
    return metrics, {"rounds_traced": len(wrapped), "spans": len(tracer.spans)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qpcasim" / "__init__.py").is_file():
        print(f"error: qpcasim source not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    cases = workloads.WORKLOADS[args.workload](args.seed)
    workdir = OUT / "work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    tally = Tally()
    try:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            if args.workload == "cli-sweep":
                calls = CliCalls(cases, workdir)
            else:
                calls = LibraryCalls(cases)
            if args.trace:
                metrics, detail = traced(args.workload, calls, args.seconds, args.seed, tally)
            else:
                metrics, detail = end_to_end(args.workload, calls, args.seconds, workdir, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail.update(failures=dict(tally.kinds), examples=tally.examples, blas_threads=BLAS_THREADS)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(dict(result, detail=detail), indent=1) + "\n")
    for kind, example in tally.examples.items():
        print(f"{tally.kinds[kind]} call(s) with {kind}, e.g. {example}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
