"""gradmorph benchmark: three workloads, end-to-end or per-layer metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: match-transform, forest-transform, churn-greedy (see
perfbench/README.md). The seed makes the inputs.
With --trace 0 the run repeats the same operations in passes, as many as
fill --seconds at a nominal rate, so both sides of a comparison run
identical work; each operation's time is its mean over the passes, and the
last line of standard output is a JSON object with the end-to-end metrics.
With --trace 1 it holds the per-layer metrics of one traced pass, timed
from outside the program. The line before it records the environment, sizes,
sample counts and guard counts. The program is imported from ./src of the
checkout the script lives in, never from elsewhere.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("match-transform", "forest-transform", "churn-greedy")

E2E_UNITS = {
    "setup_s": "s", "ops_per_s": "1/s",
    "op_ms_p50": "ms", "op_ms_p90": "ms", "op_ms_p99": "ms", "op_ms_p999": "ms",
    "recourse_max": "edges", "recourse_mean": "edges",
    "quality_ratio": "ratio", "ok_ratio": "ratio", "peak_rss_mb": "MB",
}
PERCENTILES = {"op_ms_p50": 0.5, "op_ms_p90": 0.9, "op_ms_p99": 0.99,
               "op_ms_p999": 0.999}
MIN_BEYOND = 10   # samples that must lie beyond a reported percentile
RUN_CAP_S = 120   # a run stops early rather than exceed the exit deadline
DEADLINE_FACTOR = 1.2   # passes stop after this many times --seconds


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_us"):
        return "us"
    if name in ("script.replay_to_plan", "trace.overhead"):
        return "ratio"
    return "count"


def percentile_used(q: float, samples: int) -> float:
    """q, or the highest lower percentile of PERCENTILES that leaves
    MIN_BEYOND of `samples` beyond it."""
    usable = [p for p in PERCENTILES.values()
              if p <= q and samples * (1 - p) >= MIN_BEYOND - 1e-9]
    return max(usable, default=0.5)


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import gradmorph
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "compiled_core": gradmorph.HAVE_COMPILED_CORE,
            "commit": git_commit()}


def run_pass(spec, inputs, cap_s: float, tracer=None):
    import bench_workloads
    run = (bench_workloads.run_transforms if spec.kind == "transform"
           else bench_workloads.run_stream)
    return run(spec, inputs, cap_s, tracer)


def setup_sample(spec, inputs) -> float:
    """One fresh-process set-up time; see setup_child.py."""
    request = {"kind": spec.kind, "params": spec.params(),
               "warmup": inputs[0] if spec.kind == "stream" else ""}
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_child.py"), str(SRC)],
        input=json.dumps(request), capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


def measure(spec, inputs, seconds: float):
    """Passes over the same operations, with the fresh-process set-ups
    spread evenly between them so that both meet the host at several
    speeds. No pass starts that would end after DEADLINE_FACTOR x seconds.
    Returns the per-operation mean of the passes, the operations attempted
    in all passes, each pass's wall time and the set-up times."""
    import bench_workloads
    clock = time.perf_counter
    count = spec.passes_for(seconds)
    deadline = clock() + min(DEADLINE_FACTOR * seconds, RUN_CAP_S)
    passes, setup = [], []
    elapsed = 0.0                       # of the last pass, rebuild included
    for k in range(count):
        while len(setup) < round(k * spec.setup_samples / count):
            setup.append(setup_sample(spec, inputs))
        start = clock()
        if passes and start + elapsed > deadline:
            break
        # the first pass always runs whole; a later one cut short is dropped
        passes.append(run_pass(spec, inputs, deadline - start if passes else RUN_CAP_S))
        elapsed = clock() - start
    while len(setup) < spec.setup_samples:
        setup.append(setup_sample(spec, inputs))
    avg = bench_workloads.mean_of(passes)
    avg.truncated |= len(passes) < count
    return avg, sum(p.attempted for p in passes), [p.wall for p in passes], setup


def end_to_end(m, attempted: int, setup: list[float]) -> dict[str, float]:
    """The metrics of the per-operation mean `m` of passes that attempted
    `attempted` operations in all."""
    metrics = {"setup_s": statistics.median(setup),
               "ops_per_s": m.attempted / m.wall}
    ordered = sorted(m.latencies)
    for name, q in PERCENTILES.items():
        metrics[name] = 1e3 * percentile(ordered, percentile_used(q, m.attempted))
    metrics["recourse_max"] = max(m.recourse, default=0)
    metrics["recourse_mean"] = statistics.fmean(m.recourse) if m.recourse else 0.0
    metrics["quality_ratio"] = statistics.fmean(m.quality) if m.quality else 0.0
    metrics["ok_ratio"] = 1.0 - m.failed / attempted
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return metrics


def guard_problems(spec, m, layers=None) -> list[str]:
    """Reasons the run did not exercise what its workload was chosen for."""
    problems = []
    if spec.kind == "stream":
        if m.guards["windows"] == 0:
            problems.append("no wrapper window opened")
        if m.guards["second_steps"] == 0:
            problems.append("no second-phase window step ran")
    elif spec.name == "forest-transform":
        if m.guards["nonempty_scripts"] == 0:
            problems.append("every msf script was empty")
        if layers is not None and layers["dynforest.calls"] == 0:
            problems.append("no dynforest call")
    elif layers is not None and layers["dynforest.calls"] != 0:
        problems.append("match-transform reached dynforest")
    return problems


def main(argv=None, specs=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = SRC / "gradmorph"
    if not (package / "__init__.py").is_file():
        print(f"benchmark: no gradmorph sources at {package}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import gradmorph
    if Path(gradmorph.__file__).resolve().parent != package.resolve():
        print(f"benchmark: gradmorph imported from {gradmorph.__file__}, "
              f"not from {package}", file=sys.stderr)
        return 2
    import bench_trace
    import bench_workloads

    spec = (specs or bench_workloads.SPECS)[args.workload]
    notes = {"workload": spec.name, "seed": args.seed, "trace": args.trace,
             "environment": environment()}
    inputs = bench_workloads.make_inputs(spec, args.seed, spec.pass_ops())
    if args.trace:
        cap = min(10 * args.seconds, RUN_CAP_S) / 2
        plain = run_pass(spec, inputs, cap)
        tracer = bench_trace.Tracer()
        with bench_trace.instrument(tracer):
            m = run_pass(spec, inputs, cap, tracer)
        layers = bench_trace.layer_metrics(tracer, m.attempted)
        layers["wrapper.recourse_budget"] = m.sizes.get("recourse_budget", 0)
        layers["trace.overhead"] = m.wall / plain.wall
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
        attempted = plain.attempted + m.attempted
        failed = plain.failed + m.failed
        notes["failures"] = dict(plain.failures + m.failures)
    else:
        m, attempted, walls, setup = measure(spec, inputs, args.seconds)
        layers = None
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]}
                   for k, v in end_to_end(m, attempted, setup).items()}
        failed = m.failed
        notes["pass_wall_s"] = walls
        notes["setup_samples_s"] = setup
        notes["failures"] = dict(m.failures)
        notes["percentiles"] = {
            name: f"p{100 * percentile_used(q, m.attempted):g} of per-operation means"
            for name, q in PERCENTILES.items()}
    notes.update(sizes=m.sizes, samples=m.attempted, guards=m.guards,
                 truncated=m.truncated)
    problems = guard_problems(spec, m, layers)
    if problems:
        print(f"benchmark: {spec.name} did not exercise its path: "
              + "; ".join(problems), file=sys.stderr)
        return 3
    print(json.dumps({"notes": notes}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
