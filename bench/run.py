"""Benchmark of the quartosc CLI: time to a converged spectrum.

    python3 bench/run.py --workload {reference,deep,dump,all}
                         [--seed N] [--seconds S] [--trace 0|1]

Closed loop with one client: each op is one CLI command (see
workloads.py) run in-process through quartosc.cli.main(argv), sent as
soon as the previous one returned, for --seconds seconds.  Every op goes
through the output-correctness gate; a failed op contributes no timing.

--trace 0 reports the end-to-end metrics:
  solve_s        median wall time of one warm op, after one discarded
                 warm-up op that absorbs the first-LAPACK-call cost,
                 rescaled to a machine of fixed speed (see SpeedScale)
  setup_s        median wall time of SETUP_PROBES fresh processes that
                 import quartosc.cli and finish a first LAPACK call,
                 rescaled the same way
  peak_rss_mb    median ru_maxrss of RSS_PROBES fresh processes that each
                 run one op (one process if an op takes RSS_PROBE_ALONE_S)
  success_ratio  operations that succeeded / operations attempted, i.e. one
                 minus the error ratio (reported this way so it is never 0);
                 the fresh-process probes count as operations too
--trace 1 runs untraced and traced ops in pairs and reports the per-layer
metrics in PER_LAYER from the traced ones (see spans.py); every span is
written to .bench/trace-<workload>-<seed>.json.

The inputs are fixed; the seed only orders the workloads under `all` and
which op of each traced/untraced pair runs first.  The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from workloads import ROOT, WORKLOADS

HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".bench"
SETUP_PROBES = 7
MIN_OPS = 3
PROBE_TIMEOUT_S = 120
#: Fresh processes whose peak RSS is measured: one in ten reads ~5 MB
#: high on `dump` for reasons outside the program, which a median of
#: three rides out.
RSS_PROBES = 3
#: A workload whose first RSS probe takes this long (`deep`: ~5.5 s) gets
#: just that one, so that all runs fit their time limit; its peak RSS
#: has not been seen to vary.
RSS_PROBE_ALONE_S = 3.0

#: Seconds speed_probe(dim) takes, for each workload's block_dim, at the
#: speed solve_s and setup_s are rescaled to: about its median on a
#: 2-core Intel Xeon x86-64 VM with one BLAS thread.
PROBE_NOMINAL_S = {324: 0.045, 1225: 0.45}
#: The setup probe's first eigensolve is of a reference-sized block.
SETUP_BLOCK_DIM = 324

END_TO_END = (
    ("solve_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_ratio", "ratio"),
)

#: (metric, unit, better) reported by a traced run.
PER_LAYER = (
    ("diag.assemble_s", "s", "lower"),
    ("diag.basis_s", "s", "lower"),
    ("diag.eigvals_s", "s", "lower"),
    ("diag.eigvecs_s", "s", "lower"),
    ("diag.assign_s", "s", "lower"),
    ("diag.dump_s", "s", "lower"),
    ("report.self_s", "s", "lower"),
    ("report.render_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("classical.series_s", "s", "lower"),
    ("quantum.series_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("model.validate.calls", "count", "lower"),
    ("model.quantum_numbers.count", "count", "lower"),
    ("diag.assemble.nnz", "count", "lower"),
    ("diag.eigensolve.dim_max", "count", "lower"),
    ("diag.eigvals.calls", "count", "lower"),
    ("diag.eigvecs.calls", "count", "lower"),
    ("diag.schedule.steps", "count", "lower"),
    ("diag.final_n_max", "count", "lower"),
    ("diag.eigensolve.flops_computed", "flop", "lower"),
    ("diag.rework_ratio", "ratio", "lower"),
    ("diag.assign.ambiguous", "count", "lower"),
    ("diag.assign.min_weight", "ratio", "higher"),
    ("diag.dump.bytes", "B", "lower"),
    ("report.write.bytes", "B", "lower"),
    ("classical.series.calls", "count", "lower"),
    ("quantum.series.calls", "count", "lower"),
)


@dataclass
class Tally:
    """Ops attempted and failed, with the first few problems seen."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append("; ".join(problems[:3]))
        return not problems


def _probe(*args: str) -> tuple[float, subprocess.CompletedProcess]:
    """Run probe.py in a fresh process; return its wall time and result.

    A probe still running after PROBE_TIMEOUT_S is killed and reported
    as failed with return code None.
    """
    cmd = [sys.executable, str(HERE / "probe.py"), *args]
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        proc = subprocess.CompletedProcess(cmd, None, "", f"timed out after {PROBE_TIMEOUT_S} s")
    return time.perf_counter() - start, proc


def speed_probe(dim: int) -> float:
    """Seconds a fixed piece of work takes now.

    Interpreted Python arithmetic and a LAPACK eigensolve of a dim x dim
    matrix: the two kinds of work every op mixes, the second at the size
    of the workload's largest block, where a matrix that outgrows the
    cache slows down differently from a small one.  The work lives here,
    not in quartosc, so no change to the program changes it.
    """
    import numpy as np
    import scipy.linalg

    start = time.perf_counter()
    total = 0
    for k in range(300_000):
        total += k * k % 7
    i = np.arange(dim)
    scipy.linalg.eigh(1.0 / (1.0 + np.abs(i[:, None] - i[None, :])))
    return time.perf_counter() - start


class SpeedScale:
    """Rescales wall times to a machine on which speed_probe(dim) takes PROBE_NOMINAL_S[dim].

    On a small shared host the CPU speed drifts by up to ~40 % in phases
    of seconds to minutes, and interpreted code slows down more than
    BLAS; a raw median then depends on which phases a run fell in.  A
    probe runs before the first timed piece of work and after each one,
    and each wall time is multiplied by the nominal probe time over the
    mean of the probes on either side of it.  A change to the program
    moves the rescaled time as it moves the wall time.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.last = speed_probe(dim)
        self.probes = [self.last]

    def scale(self, seconds):
        """Rescale the wall time of the work done since the last call.

        Call after every piece of work, timed or not (None), so that
        each one lies between two probes.
        """
        before, self.last = self.last, speed_probe(self.dim)
        self.probes.append(self.last)
        if seconds is None:
            return None
        return seconds * 2 * PROBE_NOMINAL_S[self.dim] / (before + self.last)


def _gated_op(workload, scratch, golden, tally, tracer=None):
    """One op, traced when a tracer is given; returns its seconds or None."""
    gc.collect()
    if tracer is None:
        outcome, report = workloads.run_op(workload, scratch), None
    else:
        outcome, report = tracer.run(workloads.run_op, workload, scratch)
    ok = tally.add(workloads.check(workload, outcome, golden, report))
    return outcome.seconds if ok else None


def _median(values):
    return statistics.median(values) if values else None


def measure(workload, seconds, golden, scratch) -> tuple[Tally, dict, list[str]]:
    """End-to-end metrics of one workload."""
    from spans import Tracer

    tally = Tally()
    setup, setup_wall = [], []
    clock = SpeedScale(SETUP_BLOCK_DIM)
    for _ in range(SETUP_PROBES):
        wall, proc = _probe("setup")
        if tally.add([] if proc.returncode == 0 else [f"setup probe: {proc.stderr[-300:]}"]):
            setup_wall.append(wall)
            setup.append(clock.scale(wall))
        else:
            clock.scale(None)
    rss_kb = []
    for _ in range(RSS_PROBES):
        wall, proc = _probe("rss", workload.name, str(scratch))
        try:
            rss = json.loads(proc.stdout.splitlines()[-1])
        except (IndexError, ValueError):
            rss = {"maxrss_kb": None, "problems": [f"rss probe: {proc.stderr[-300:]}"]}
        if tally.add(rss["problems"]):
            rss_kb.append(rss["maxrss_kb"])
        if wall >= RSS_PROBE_ALONE_S:
            break

    _gated_op(workload, scratch, golden, tally, Tracer())  # warm-up, discarded
    clock = SpeedScale(workload.block_dim)
    times, walls, n_ops = [], [], 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or n_ops < MIN_OPS:
        t = _gated_op(workload, scratch, golden, tally)
        n_ops += 1
        scaled = clock.scale(t)
        if t is not None:
            walls.append(t)
            times.append(scaled)
    metrics = {
        "solve_s": _median(times),
        "setup_s": _median(setup),
        "peak_rss_mb": _median(rss_kb) / 1024 if rss_kb else None,
        "success_ratio": (tally.attempted - tally.failed) / tally.attempted,
    }
    notes = [
        f"solve_s: median of {len(times)} warm ops, rescaled "
        f"(quartiles {_quartiles(times)}, min {_fmt(min(times, default=None))}, "
        f"max {_fmt(max(times, default=None))}){_tail(times)}",
        f"solve_s as measured: median {_fmt(_median(walls))} s, quartiles {_quartiles(walls)}",
        f"speed probe: median {_fmt(_median(clock.probes))} s over {len(clock.probes)} probes, "
        f"quartiles {_quartiles(clock.probes)}; rescaled to {PROBE_NOMINAL_S[clock.dim]} s",
        f"setup_s: median of {len(setup)} fresh processes, rescaled ({_fmts(sorted(setup))}); "
        f"as measured ({_fmts(sorted(setup_wall))})",
        f"peak_rss_mb: median of {len(rss_kb)} fresh processes running one op "
        f"({_fmts(sorted(kb / 1024 for kb in rss_kb))})",
        f"success_ratio: {tally.attempted - tally.failed} of {tally.attempted} operations succeeded",
    ]
    return tally, metrics, notes


def trace(workload, seconds, golden, scratch, rng, seed) -> tuple[Tally, dict, list[str]]:
    """Per-layer metrics of one workload from traced ops."""
    from spans import Tracer, layer_metric

    tally = Tally()
    _gated_op(workload, scratch, golden, tally, Tracer())  # warm-up, discarded
    tracer = Tracer()
    plain, traced, traced_ops, n_pairs = [], [], [], 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or n_pairs < MIN_OPS:
        n_pairs += 1
        first_traced = rng.random() < 0.5
        for is_traced in (first_traced, not first_traced):
            if is_traced:
                t = _gated_op(workload, scratch, golden, tally, tracer)
                if t is not None:
                    traced.append(t)
                    traced_ops.append(tracer.op)
            else:
                t = _gated_op(workload, scratch, golden, tally)
                if t is not None:
                    plain.append(t)

    summaries = tracer.op_summaries()
    ops = [summaries[i] for i in traced_ops]
    notes = []
    if tracer.missing:
        notes.append("not found, so not traced: " + ", ".join(tracer.missing))
    metrics = {}
    if ops:
        layers = Counter()
        for op in ops:
            for layer, seconds in op["layers"].items():
                layers[layer_metric(layer)] += seconds / len(ops)
        counters = ops[0]["counters"]
        exact = lambda op: {k: v for k, v in op["counters"].items() if k != "diag.rework_ratio"}
        if any(exact(op) != exact(ops[0]) for op in ops):
            notes.append("WARNING: counters differ between traced ops")
        metrics = {**layers, **counters}
        op_s = statistics.fmean(op["seconds"] for op in ops)
        notes.append(f"traced op (cli span), mean of {len(ops)}: {op_s:.6f} s")
        for name in sorted(layers, key=layers.get, reverse=True):
            notes.append(f"  {name:<24} {layers[name]:.6f} s  {100 * layers[name] / op_s:5.1f} %")
    overhead = None
    if plain and traced:
        overhead = _median(traced) - _median(plain)
        notes.append(
            f"trace.overhead_s: median of {len(traced)} traced minus "
            f"median of {len(plain)} untraced ops"
        )
    metrics["trace.overhead_s"] = overhead
    metrics = {name: metrics.get(name, 0) for name, _, _ in PER_LAYER}
    if not ops:
        metrics = {name: None for name in metrics}

    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(
        OUT_DIR / f"trace-{workload.name}-{seed}.json",
        {"workload": workload.name, "seed": seed, "environment": workloads.environment(),
         "traced_ops": traced_ops, "metrics": metrics},
    )
    return tally, metrics, notes


def _fmt(x) -> str:
    return "n/a" if x is None else f"{x:.6g}"


def _fmts(xs) -> str:
    return ", ".join(_fmt(x) for x in xs)


def _quartiles(xs) -> str:
    return _fmts(statistics.quantiles(xs, n=4)[::2]) if len(xs) >= 2 else "n/a"


def _tail(xs) -> str:
    """The highest of p90/p99 with at least ten samples beyond it."""
    for pct, n in ((99, 1000), (90, 100)):
        if len(xs) >= n:
            return f", p{pct} {_fmt(statistics.quantiles(xs, n=100)[pct - 1])}"
    return ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workloads.prepare()
    golden = workloads.load_golden()
    rng = random.Random(args.seed)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    rng.shuffle(names)
    units = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
    env = workloads.environment()

    total = Tally()
    results = {}
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="scratch-", dir=OUT_DIR) as scratch:
        for name in names:
            workload = WORKLOADS[name]
            if args.trace:
                tally, metrics, notes = trace(workload, args.seconds, golden, Path(scratch), rng, args.seed)
            else:
                tally, metrics, notes = measure(workload, args.seconds, golden, Path(scratch))
            print(f"== {name}: {' '.join(workload.argv)}{' --dump-matrix PATH' if workload.dumps else ''}"
                  f" ({'traced' if args.trace else 'untraced'}, seed {args.seed})")
            for metric, value in metrics.items():
                print(f"  {metric:<32} {_fmt(value):>14} {units[metric]}")
            for note in notes:
                print(f"  # {note}")
            for problem in tally.problems:
                print(f"  ! {problem}")
            total.attempted += tally.attempted
            total.failed += tally.failed
            prefix = f"{name}." if args.workload == "all" else ""
            results.update({prefix + k: {"value": v, "unit": units[k]} for k, v in metrics.items()})
    print("# environment " + json.dumps({**env, "seconds": args.seconds}))
    print(json.dumps({
        "correct": total.failed == 0 and total.attempted > 0,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": results,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
