"""Spans around calls into qpcasim, recorded from outside the package.

``Tracer.install`` replaces the public functions named in ``TARGETS`` with
timing wrappers, in every qpcasim module that bound them (``from .sim import
apply`` makes a second reference that must be patched too), and
``Tracer.remove`` puts the originals back.  The package source is untouched.
Spans stay in memory as [name, start, end, parent] and are written out once,
when the run ends.
"""

from __future__ import annotations

import gzip
import importlib
import json
import time
from collections import Counter, defaultdict
from pathlib import Path

# (span name, module, attribute); "Class.method" patches the class.
TARGETS = (
    ("sim.apply", "qpcasim.sim", "apply"),
    ("sim.run", "qpcasim.sim", "run"),
    ("sim.post_select", "qpcasim.sim", "post_select"),
    ("sim.sample", "qpcasim.sim", "sample"),
    ("sim.gateop", "qpcasim.sim", "GateOp.__init__"),
    ("builders.state_prep", "qpcasim.builders", "build_state_prep"),
    ("builders.phase_estimation", "qpcasim.builders", "build_phase_estimation"),
    ("builders.pe_spec", "qpcasim.builders", "PhaseEstimationSpec.__post_init__"),
    ("filtering.filter_table", "qpcasim.filtering", "build_filter_table"),
    ("filtering.filter_unitary", "qpcasim.filtering", "build_filter_unitary"),
    ("pipeline.hermitian_input", "qpcasim.pipeline", "HermitianInput.from_matrix"),
    ("pipeline.flip_gate", "qpcasim.pipeline", "ancilla_flip_gate"),
    ("pipeline.uncompute", "qpcasim.pipeline", "uncompute"),
    ("pipeline.oracle", "qpcasim.pipeline", "classical_pca_oracle"),
    ("pipeline.histogram", "qpcasim.pipeline", "lambda_register_histogram"),
    ("pipeline.run_qpca", "qpcasim.pipeline", "run_qpca"),
    ("pipeline.eigh", "numpy.linalg", "eigh"),
    ("cli.parse_matrix", "qpcasim.cli", "parse_matrix"),
    ("cli.run_command", "qpcasim.cli", "run_command"),
)

PACKAGE_MODULES = (
    "qpcasim",
    "qpcasim.sim",
    "qpcasim.builders",
    "qpcasim.filtering",
    "qpcasim.layout",
    "qpcasim.pipeline",
    "qpcasim.complexity",
    "qpcasim.cli",
)

CALL = "bench.call"  # the benchmark's own span around one pipeline call


class Tracer:
    """Spans and counters from wrapped qpcasim calls; install, run, remove."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.counters: Counter = Counter()
        self.max_gate_bytes = 0

    # -- recording -----------------------------------------------------------

    def wrap(self, name: str, fn, hook=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if hook is not None:
                hook(args, out)
            return out

        return traced

    def _on_apply(self, args, out):
        state, op = args[0], args[1]
        self.counters["sim.apply.amps"] += 1 << state.num_qubits
        self.max_gate_bytes = max(self.max_gate_bytes, op.matrix.nbytes)

    def _count_ops(self, name):
        def hook(args, out):
            self.counters[name] += len(out)

        return hook

    # -- patching --------------------------------------------------------------

    def install(self):
        hooks = {
            "sim.apply": self._on_apply,
            "builders.state_prep": self._count_ops("builders.state_prep.ops"),
            "builders.phase_estimation": self._count_ops("builders.phase_estimation.ops"),
        }
        modules = [importlib.import_module(m) for m in PACKAGE_MODULES]
        try:
            for name, module_name, attr in TARGETS:
                owner = importlib.import_module(module_name)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        patched = classmethod(self.wrap(name, raw.__func__, hooks.get(name)))
                    else:
                        patched = self.wrap(name, raw, hooks.get(name))
                    self._patch(cls, meth, patched)
                    continue
                original = getattr(owner, attr)
                patched = self.wrap(name, original, hooks.get(name))
                for module in [owner] + modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, patched)
        except BaseException:
            self.remove()
            raise

    def _patch(self, owner, key, value):
        self._restore.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def remove(self):
        while self._restore:
            owner, key, value = self._restore.pop()
            setattr(owner, key, value)

    # -- results -----------------------------------------------------------------

    def totals(self):
        """Per span name: (count, inclusive seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        count, incl, own = Counter(), defaultdict(float), defaultdict(float)
        for i, (name, start, end, parent) in enumerate(self.spans):
            count[name] += 1
            incl[name] += end - start
            own[name] += end - start - child[i]
        return count, incl, own

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, each a value per pipeline call, with its unit."""
        count, incl, own = self.totals()
        calls = count[CALL]
        if calls == 0:
            raise ValueError("no traced pipeline call")
        amps = self.counters["sim.apply.amps"]

        def per(total):
            return total / calls

        return {
            "sim.apply.calls": (per(count["sim.apply"]), "count"),
            "sim.apply.s": (per(own["sim.apply"]), "s"),
            "sim.apply.amps": (per(amps), "count"),
            "sim.apply.ns_per_amp": (own["sim.apply"] * 1e9 / amps if amps else 0.0, "ns"),
            "sim.max_gate_mb": (self.max_gate_bytes / 1e6, "MB"),
            "sim.gateop.calls": (per(count["sim.gateop"]), "count"),
            "sim.gateop.s": (per(own["sim.gateop"]), "s"),
            "sim.post_select.s": (per(incl["sim.post_select"]), "s"),
            "sim.sample.s": (per(incl["sim.sample"]), "s"),
            "builders.state_prep.s": (per(incl["builders.state_prep"]), "s"),
            "builders.state_prep.ops": (per(self.counters["builders.state_prep.ops"]), "count"),
            "builders.phase_estimation.s": (per(incl["builders.phase_estimation"]), "s"),
            "builders.phase_estimation.ops": (
                per(self.counters["builders.phase_estimation.ops"]),
                "count",
            ),
            "builders.pe_spec.s": (per(incl["builders.pe_spec"]), "s"),
            "filtering.filter_table.s": (per(incl["filtering.filter_table"]), "s"),
            "filtering.filter_unitary.s": (per(incl["filtering.filter_unitary"]), "s"),
            "pipeline.hermitian_input.s": (per(incl["pipeline.hermitian_input"]), "s"),
            "pipeline.flip_gate.s": (per(incl["pipeline.flip_gate"]), "s"),
            "pipeline.uncompute.s": (per(own["pipeline.uncompute"]), "s"),
            "pipeline.oracle.s": (per(incl["pipeline.oracle"]), "s"),
            "pipeline.histogram.s": (per(incl["pipeline.histogram"]), "s"),
            "pipeline.run_qpca.self_s": (per(own["pipeline.run_qpca"]), "s"),
            "pipeline.eigh.calls": (per(count["pipeline.eigh"]), "count"),
            "cli.parse_matrix.s": (per(incl["cli.parse_matrix"]), "s"),
            "cli.run_command.self_s": (per(own["cli.run_command"]), "s"),
        }

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as f:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, f)
