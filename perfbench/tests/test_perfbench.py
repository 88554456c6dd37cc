"""Tests for the benchmark itself, at tiny sizes.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import bench_inputs
import bench_trace
import bench_workloads
import run

ROOT = Path(run.__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SPECS = bench_workloads.SPECS
# small sizes that still open windows and reach every layer
TINY = {
    "match-transform": replace(SPECS["match-transform"], n=60, min_ops=12, rate=0,
                               setup_samples=1),
    "forest-transform": replace(SPECS["forest-transform"], n=40, min_ops=6, rate=0,
                                setup_samples=1),
    "churn-greedy": replace(SPECS["churn-greedy"], n=1_000, warmup=600,
                            min_ops=600, rate=0, setup_samples=1),
}


def uncontained(tracer: bench_trace.Tracer) -> list[tuple]:
    """Spans that do not lie inside the op span of their op, and inner or
    planner spans of a stream step that do not lie inside that step's
    wrapper span. Empty when the per-layer timings are consistent."""
    ops: dict[int, tuple[float, float]] = {}
    steps: dict[int, tuple[float, float]] = {}
    for name, op, start, end, _ in tracer.spans:
        if name == "op":
            ops[op] = (start, end)
        elif name in bench_trace.STEP_KINDS:
            steps[op] = (start, end)
    bad = []
    for span in tracer.spans:
        name, op, start, end, _ = span
        if op < 0 or name == "op":
            continue
        lo, hi = ops.get(op, (end, start))
        if not lo <= start <= end <= hi:
            bad.append(span)
        elif name == "wrapper.inner" or name.startswith("wrapper.plan."):
            lo, hi = steps.get(op, (end, start))
            if not lo <= start <= end <= hi:
                bad.append(span)
    return bad


def test_same_seed_gives_identical_inputs():
    for make in (bench_inputs.match_instance, bench_inputs.forest_instance):
        for i in range(6):
            assert make(5, i, 50) == make(5, i, 50)
        assert make(5, 0, 50) != make(6, 0, 50)
    first = bench_inputs.update_stream(5, "s", 300, 200, 500, 1.0, 2.0)
    assert first == bench_inputs.update_stream(5, "s", 300, 200, 500, 1.0, 2.0)
    assert first != bench_inputs.update_stream(6, "s", 300, 200, 500, 1.0, 2.0)
    # the warm-up prefix does not depend on how much churn follows
    assert bench_inputs.update_stream(5, "s", 300, 200, 0, 1.0, 2.0)[0] == first[0]


def test_stream_is_valid_and_balanced():
    from gradmorph.graph import Graph
    from gradmorph.io import parse_updates
    warm, churn = bench_inputs.update_stream(3, "s", 400, 240, 3000)
    g = Graph()
    for v in range(400):
        g.ensure_vertex(v)
    for ev in parse_updates(warm) + parse_updates(churn):
        g.apply_update(ev)   # raises on any invalid event
    assert 0.6 * 240 < g.num_edges() < 1.4 * 240


def _run(capsys, workload, trace, specs=TINY):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace)], specs=specs)
    return code, capsys.readouterr()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_prints_every_metric_with_its_unit(capsys, workload, trace):
    code, out = _run(capsys, workload, trace)
    assert code == 0, out.err
    result = json.loads(out.out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: v["unit"] for name, v in result["metrics"].items()}
    if not trace:
        for name, v in result["metrics"].items():
            assert v["value"] > 0, name
    notes = json.loads(out.out.splitlines()[-2])["notes"]
    assert {"python", "nproc", "compiled_core", "commit"} <= set(notes["environment"])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_layer_spans_lie_inside_their_operation(workload):
    spec = TINY[workload]
    tracer = bench_trace.Tracer()
    with bench_trace.instrument(tracer):
        m = run.run_pass(spec, bench_workloads.make_inputs(spec, 4, spec.min_ops),
                         60.0, tracer)
    assert m.failed == 0
    assert uncontained(tracer) == []
    # the layer spans of one operation never add up to more than its wall time
    inside: dict[int, float] = {}
    outer: dict[int, float] = {}
    for name, op, start, end, _ in tracer.spans:
        if op < 0:
            continue
        if name == "op":
            outer[op] = end - start
        elif name in ("io.parse", "graph.apply", "mcm.plan", "mwm.plan", "msf.plan",
                      "script.replay.per-phase", "script.replay.per-op",
                      "script.check", "script.emit") or name in bench_trace.STEP_KINDS:
            inside[op] = inside.get(op, 0.0) + end - start
    assert inside and all(inside[op] <= outer[op] for op in inside)


def test_mean_of_averages_each_operation_over_full_passes():
    Measured = bench_workloads.Measured
    a = Measured(latencies=[3.0, 1.0, 2.0], recourse=[1, 2, 3])
    b = Measured(latencies=[2.0, 4.0, 1.0], recourse=[1, 2, 3])
    short = Measured(latencies=[0.1], recourse=[1])
    avg = bench_workloads.mean_of([a, b, short])
    assert avg.latencies == [2.5, 2.5, 1.5] and avg.wall == 6.5
    assert avg.truncated and avg.failed == 0
    odd = Measured(latencies=[1.0, 1.0, 1.0], recourse=[1, 5, 3])
    assert bench_workloads.mean_of([a, odd]).failures == {"passes differ": 1}


def test_end_to_end_run_repeats_its_operations(capsys):
    code, out = _run(capsys, "forest-transform", 0)
    assert code == 0, out.err
    result = json.loads(out.out.splitlines()[-1])
    notes = json.loads(out.out.splitlines()[-2])["notes"]
    passes = len(notes["pass_wall_s"])
    assert passes >= bench_workloads.MIN_PASSES
    assert result["attempted"] == passes * TINY["forest-transform"].pass_ops()
    assert notes["samples"] == TINY["forest-transform"].pass_ops()


def test_instrumentation_is_removed_after_a_traced_pass():
    import gradmorph.msf
    import gradmorph.wrapper
    before = (gradmorph.wrapper.plan_mcm, gradmorph.wrapper.plan_mwm_auto,
              gradmorph.msf.make_index)
    with bench_trace.instrument(bench_trace.Tracer()):
        assert gradmorph.wrapper.plan_mcm is not before[0]
    assert before == (gradmorph.wrapper.plan_mcm, gradmorph.wrapper.plan_mwm_auto,
                      gradmorph.msf.make_index)


def test_stream_that_opens_no_window_fails_loudly(capsys):
    # tiny matchings resync by instant switch, so no window ever opens
    specs = dict(TINY)
    specs["churn-greedy"] = replace(specs["churn-greedy"], n=60, warmup=20,
                                    min_ops=200)
    code, out = _run(capsys, "churn-greedy", 0, specs)
    assert code != 0
    assert "did not exercise" in out.err
    assert out.out == ""


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "churn-greedy",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
