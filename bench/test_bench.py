"""Self-check of the benchmark: correctness gate, span tree, counters.

Runs one traced op of each workload (about 6 s in all), so the harness
cannot rot unnoticed.  Like the rest of the suite it imports quartosc
from PYTHONPATH=src, and leaves the BLAS thread count as it finds it.
"""

import json
from pathlib import Path

import pytest

import run
import workloads
from spans import Tracer

GOLDEN = workloads.load_golden()


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_op_passes_gate_and_spans_tile_it(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    tracer = Tracer()
    outcome, report = tracer.run(workloads.run_op, workload, tmp_path)
    assert workloads.check(workload, outcome, GOLDEN, report) == []
    assert tracer.missing == []
    op = tracer.op

    selfs = tracer.self_times()
    roots = [s for s in tracer.spans if s.parent is None]
    assert [s.name for s in roots] == ["cli"]
    for index, span in enumerate(tracer.spans):
        assert span.op == op
        assert span.end >= span.start
        assert selfs[index] >= -1e-9
        if span.parent is not None:
            parent = tracer.spans[span.parent]
            assert span.parent < index
            assert parent.start <= span.start and span.end <= parent.end
    summary = tracer.op_summaries()[op]
    assert sum(summary["layers"].values()) == pytest.approx(summary["seconds"], rel=1e-9)
    assert summary["seconds"] <= outcome.seconds


def test_counters_repeat_exactly(tmp_path):
    for name in ("reference", "dump"):
        tracer = Tracer()
        for _ in range(2):
            tracer.run(workloads.run_op, workloads.WORKLOADS[name], tmp_path)
        first, second = (
            {k: v for k, v in s["counters"].items() if k != "diag.rework_ratio"}
            for s in tracer.op_summaries().values()
        )
        assert first == second
        assert first["diag.final_n_max"] == GOLDEN[name]["final_n_max"]


def test_gate_rejects_wrong_outputs_and_tolerates_ambiguous_labels():
    reference = workloads.WORKLOADS["reference"]
    text = GOLDEN["reference"]["stdout"]
    assert workloads.check(reference, workloads.Outcome(0.0, 0, text, ""), GOLDEN) == []
    tampered = text.replace("1.230722", "1.230723", 1)
    assert workloads.check(reference, workloads.Outcome(0.0, 0, tampered, ""), GOLDEN)
    assert workloads.check(reference, workloads.Outcome(0.0, 2, text, ""), GOLDEN)

    deep = workloads.WORKLOADS["deep"]
    lines = GOLDEN["deep"]["stdout"].splitlines(keepends=True)

    def first_row(flag):
        return next(
            i for i, line in enumerate(lines[1:], 1)
            if line.endswith(flag) and line.split(",")[1] != line.split(",")[2]
        )

    sure, unsure = first_row(",0\n"), first_row(",1\n")

    def relabelled(i):
        rank, n1, n2, rest = lines[i].split(",", 3)
        return "".join(lines[:i] + [f"{rank},{n2},{n1},{rest}"] + lines[i + 1:])

    def problems(stdout):
        return workloads.check(deep, workloads.Outcome(0.0, 0, stdout, ""), GOLDEN)

    assert problems("".join(lines)) == []
    assert problems(relabelled(unsure)) == []
    assert problems(relabelled(sure))
    assert problems("".join(lines[:-1]))

    dump = workloads.WORKLOADS["dump"]
    outcome = workloads.Outcome(0.0, 0, GOLDEN["dump"]["stdout"], "", b"0 0 1\n")
    assert workloads.check(dump, outcome, GOLDEN) == ["matrix dump differs from the golden file"]


def test_speed_scale_divides_by_the_probes_on_either_side(monkeypatch):
    nominal = run.PROBE_NOMINAL_S[324]
    readings = iter([1.0, 3.0, 2.0])
    monkeypatch.setattr(run, "speed_probe", lambda dim: next(readings) * run.PROBE_NOMINAL_S[dim])
    clock = run.SpeedScale(324)
    assert clock.scale(0.4) == pytest.approx(0.2)
    assert clock.scale(None) is None
    assert clock.probes == pytest.approx([nominal * r for r in (1, 3, 2)])


def test_every_workload_has_a_nominal_probe_time():
    assert {w.block_dim for w in workloads.WORKLOADS.values()} <= set(run.PROBE_NOMINAL_S)


def test_benchmark_json_lists_what_the_harness_reports():
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == [Path(__file__).parent.name]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [
        w.why for w in workloads.WORKLOADS.values()
    ]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        run.PER_LAYER
    )
