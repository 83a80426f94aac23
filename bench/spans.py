"""Traced runs: spans and counters around quartosc's public functions.

`Tracer.installed()` swaps each function in SPANNED and COUNTED for a
recording wrapper in every quartosc module namespace that holds it (a
`from .model import validate` binding included) and puts the originals
back on exit.  Nothing under src/ changes, and an untraced run wraps
nothing.

A span records its layer name, start, end, parent span and op id.  Spans
stay in memory until the benchmark writes them out.  A span's self time
is its duration minus the part of it that its child spans cover, so the
self times of all layers tile the op, whose root span is `cli`.
Counter updates that need work of their own (fingerprinting a matrix,
counting its nonzeros) run inside a `trace` span, which keeps that work out of
the self time of the layer that called the wrapped function.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import astuple, dataclass

import numpy as np

#: (module, function, layer) for each function given a span.  A layer of
#: None is diag.eigvecs when eigenvectors are asked for, else diag.eigvals.
SPANNED = (
    ("cli", "main", "cli"),
    ("report", "comparison_table", "report"),
    ("report", "hbar_scan", "report"),
    ("report", "mean_level_spacing", "report"),
    ("report", "render_comparison_csv", "report.render"),
    ("report", "render_scan_csv", "report.render"),
    ("classical", "semiclassical_series", "classical.series"),
    ("quantum", "qp_series", "quantum.series"),
    ("diag", "converged_levels", "diag.assemble"),
    ("diag", "assemble_hamiltonian", "diag.assemble"),
    ("diag", "build_basis", "diag.basis"),
    ("diag", "split_parity_blocks", "diag.basis"),
    ("diag", "symmetric_eigenvalues", None),
    ("diag", "assign_quantum_numbers", "diag.assign"),
    ("diag", "dump_matrix_triplets", "diag.dump"),
)

#: (module, function, counter) for functions that are counted, not timed:
#: they run once per matrix element, where a span each would swamp the
#: assembly time they belong to.
COUNTED = (("model", "validate", "model.validate.calls"),)

#: Counter of QuantumNumbers constructions, counted at __post_init__.
QUANTUM_NUMBERS = "model.quantum_numbers.count"

#: Layers whose number of calls is a per-layer metric.
CALL_COUNTED = ("diag.eigvals", "diag.eigvecs", "classical.series", "quantum.series")


def layer_metric(layer: str) -> str:
    """Metric name of a layer's self time: diag.assign_s, cli.self_s, ..."""
    return f"{layer}_s" if "." in layer else f"{layer}.self_s"


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int


class Tracer:
    """Records spans and counters for the ops run while it is installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = -1
        self.counts: dict[int, Counter] = {}
        self.reports: dict[int, object] = {}
        self.missing: list[str] = []
        self._current: Counter = Counter()
        self._stack: list[int] = []
        self._solved: set[tuple] = set()

    def run(self, fn, *args):
        """Call fn(*args) as the next op, traced.

        Returns fn's result and the last ConvergenceReport the op
        computed (None if it computed none); the op's id is self.op.
        """
        self.op += 1
        self._current = self.counts[self.op] = Counter()
        self._solved = set()
        with self.installed():
            result = fn(*args)
        return result, self.reports.get(self.op)

    @contextmanager
    def installed(self):
        """Wrap the listed functions for the duration of the block."""
        import quartosc.cli  # noqa: F401  (loads every module to be wrapped)

        modules = [
            m for name, m in list(sys.modules.items())
            if name == "quartosc" or name.startswith("quartosc.")
        ]
        patches = []

        def replace(original, wrapper):
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        patches.append((module, attr, original))
                        setattr(module, attr, wrapper)

        try:
            for mod, fname, layer in SPANNED:
                original = getattr(sys.modules[f"quartosc.{mod}"], fname, None)
                if original is None:
                    self.missing.append(f"{mod}.{fname}")
                    continue
                hook = getattr(self, f"_after_{fname}", None)
                replace(original, self._spanned(original, layer, hook))
            for mod, fname, key in COUNTED:
                original = getattr(sys.modules[f"quartosc.{mod}"], fname, None)
                if original is None:
                    self.missing.append(f"{mod}.{fname}")
                    continue
                replace(original, self._counted(original, key))
            qn = sys.modules["quartosc.model"].QuantumNumbers
            post_init = vars(qn).get("__post_init__")
            if post_init is None:
                self.missing.append("model.QuantumNumbers.__post_init__")
            else:
                patches.append((qn, "__post_init__", post_init))
                qn.__post_init__ = self._counted(post_init, QUANTUM_NUMBERS)
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    def _counted(self, fn, key):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._current[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _spanned(self, fn, layer, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = layer
            if name is None:
                vectors = kwargs.get("want_vectors", args[1] if len(args) > 1 else False)
                name = "diag.eigvecs" if vectors else "diag.eigvals"
            parent = stack[-1] if stack else None
            stack.append(len(spans))
            span = Span(name, clock(), 0.0, parent, self.op)
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if hook is not None:
                book = Span("trace", clock(), 0.0, parent, self.op)
                spans.append(book)
                hook(self._current, args, kwargs, result, span)
                book.end = clock()
            return result

        return wrapper

    # Counter hooks, named _after_<function>; each runs inside a trace span.

    def _after_converged_levels(self, c, args, kwargs, report, span):
        c["diag.schedule.steps"] += len(report.history) + 1
        c["diag.final_n_max"] = report.final_n_max
        self.reports[self.op] = report

    def _after_assemble_hamiltonian(self, c, args, kwargs, matrix, span):
        c["diag.assemble.nnz"] += int(np.count_nonzero(matrix))

    def _after_symmetric_eigenvalues(self, c, args, kwargs, result, span):
        matrix = np.ascontiguousarray(args[0] if args else kwargs["matrix"], dtype=float)
        n = matrix.shape[0]
        c["diag.assemble.nnz"] += int(np.count_nonzero(matrix))
        c["diag.eigensolve.dim_max"] = max(c["diag.eigensolve.dim_max"], n)
        vectors = span.name == "diag.eigvecs"
        c["diag.eigensolve.flops_computed"] += 9 * n**3 if vectors else 4 * n**3 // 3
        seconds = span.end - span.start
        c["eigensolve_s"] += seconds
        # The diagonal tells the parity blocks and basis sizes apart; the
        # sum guards the rest.  Full hashing would dominate the trace cost.
        key = (matrix.shape, matrix.diagonal().tobytes(), float(matrix.sum()))
        if key in self._solved:
            c["rework_s"] += seconds
        self._solved.add(key)

    def _after_assign_quantum_numbers(self, c, args, kwargs, levels, span):
        c["diag.assign.ambiguous"] += sum(lvl.ambiguous for lvl in levels)
        weight = min(lvl.overlap_weight for lvl in levels)
        c["diag.assign.min_weight"] = min(c.get("diag.assign.min_weight", weight), weight)

    def _after_dump_matrix_triplets(self, c, args, kwargs, result, span):
        c["diag.dump.bytes"] += os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])

    def _after_render_comparison_csv(self, c, args, kwargs, text, span):
        c["report.write.bytes"] += len(text.encode())

    _after_render_scan_csv = _after_render_comparison_csv

    def self_times(self) -> list[float]:
        """Per span: duration minus the union of its children's intervals."""
        children = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append(span)
        out = []
        for index, span in enumerate(self.spans):
            covered, reach = 0.0, span.start
            for child in sorted(children[index], key=lambda s: s.start):
                lo, hi = max(child.start, reach), min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append(span.end - span.start - covered)
        return out

    def op_summaries(self) -> dict[int, dict]:
        """Per op: root (cli) duration, self time per layer, and counters."""
        selfs = self.self_times()
        ops: dict[int, dict] = {}
        for span, own in zip(self.spans, selfs):
            op = ops.setdefault(span.op, {"seconds": 0.0, "layers": Counter(), "calls": Counter()})
            if span.parent is None:
                op["seconds"] += span.end - span.start
            op["layers"][span.name] += own
            op["calls"][span.name] += 1
        for index, op in ops.items():
            c = self.counts.get(index, Counter())
            counters = {k: v for k, v in c.items() if not k.endswith("_s")}
            for layer in CALL_COUNTED:
                counters[f"{layer}.calls"] = op["calls"][layer]
            counters["diag.rework_ratio"] = (
                c["rework_s"] / c["eigensolve_s"] if c["eigensolve_s"] else 0.0
            )
            op["counters"] = counters
        return ops

    def write(self, path, extra: dict) -> None:
        """Write every span, as [name, start, end, parent, op], plus `extra`."""
        payload = dict(extra, spans=[astuple(s) for s in self.spans])
        with open(path, "w", encoding="ascii") as fh:
            json.dump(payload, fh)
