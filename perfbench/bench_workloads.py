"""The workloads and the output checks that count their failures.

A transform follows the `gradmorph transform` path: parse, plan, replay,
check_guarantee, script JSON. An update stream follows `gradmorph simulate
--updates FILE`: one client feeds run_simulation, and the next update goes
in only after the previous step finished.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

from gradmorph.graph import Error, solution_stats, validate_forest, validate_matching
from gradmorph.io import parse_forest, parse_graph, parse_matching, parse_updates
from gradmorph.mcm import plan_mcm
from gradmorph.msf import plan_msf
from gradmorph.mwm import plan_mwm_auto
from gradmorph.script import check_guarantee, replay
from gradmorph.sim import run_simulation

import bench_inputs
from bench_state import build_stream
from bench_trace import TracedGraph, TracedInner, TracedWrapped, Tracer, script_size

PAPER_RECOURSE_FACTOR = 16   # the paper's bound: recourse <= 16 * ceil(psi / eps)
MIN_PASSES = 2


@dataclass(frozen=True)
class Spec:
    name: str
    kind: str                    # "transform" | "stream"
    n: int
    rate: float                  # nominal operations per second, a stream's
                                 # untimed rebuild included: sizes a run
    min_ops: int                 # enough samples for the reported percentiles
    block: int = 1               # instance mixes come in whole blocks
    warmup: int = 0              # stream: edge inserts before timing starts
    inner: str = ""
    eps: float = 0.1
    weighted: bool = False
    psi: float = 1.0
    setup_samples: int = 7       # fresh-process set-ups; setup_s is their median

    def pass_ops(self) -> int:
        """Operations of one pass: min_ops in whole instance mixes."""
        return math.ceil(self.min_ops / self.block) * self.block

    def passes_for(self, seconds: float) -> int:
        """Passes over the same operations that fill `seconds` at the
        nominal rate, at least MIN_PASSES."""
        return max(MIN_PASSES, round(self.rate * seconds / self.pass_ops()))

    def params(self) -> dict:
        return {"n": self.n, "inner": self.inner, "eps": self.eps,
                "weighted": self.weighted, "psi": self.psi}

    def recourse_bound(self) -> int:
        psi = self.psi if self.weighted else 1.0
        return PAPER_RECOURSE_FACTOR * math.ceil(psi / self.eps)


SPECS = {
    "match-transform": Spec("match-transform", "transform", n=600, rate=17,
                            min_ops=100, block=bench_inputs.MATCH_BLOCK),
    # n=200 rather than 300-500: a pass of 102 instances takes 11 s at n=300,
    # too long to repeat often enough within a run
    "forest-transform": Spec("forest-transform", "transform", n=200, rate=16,
                             min_ops=100, block=bench_inputs.FOREST_BLOCK),
    # n=4,000 rather than 10,000: on a shared 2-core host the larger graph's
    # throughput varied twice as much from run to run
    "churn-greedy": Spec("churn-greedy", "stream", n=4_000, rate=3_200,
                         min_ops=10_000, warmup=2_400, inner="greedy",
                         setup_samples=5),
}

@dataclass
class Measured:
    """What one pass over a workload's operations measured."""

    latencies: list[float] = field(default_factory=list)   # s per operation
    wall: float = 0.0                                       # s, timed region
    recourse: list[int] = field(default_factory=list)      # edges per operation
    quality: list[float] = field(default_factory=list)
    failures: Counter = field(default_factory=Counter)     # reason -> count
    guards: dict = field(default_factory=dict)
    sizes: dict = field(default_factory=dict)
    truncated: bool = False

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def mean_of(passes: list[Measured]) -> Measured:
    """One pass's results with each operation's latency replaced by its
    mean over the passes. Every pass runs the same operations from the same
    state, so this is the operation's cost averaged over the host's speeds
    during the run; a pass that was cut short is left out. A pass whose
    per-operation recourse differs from the first pass's counts as a
    failure: the program is meant to be deterministic."""
    first = passes[0]
    full = [p for p in passes if p.attempted == first.attempted]
    avg = Measured(
        latencies=[statistics.fmean(ls) for ls in zip(*(p.latencies for p in full))],
        recourse=first.recourse, quality=first.quality, guards=first.guards,
        sizes=first.sizes, truncated=len(full) < len(passes))
    avg.wall = sum(avg.latencies)
    for p in passes:
        avg.failures.update(p.failures)
        if p.recourse != first.recourse[:len(p.recourse)]:
            avg.failures["passes differ"] += 1
    return avg


def make_inputs(spec: Spec, seed: int, count: int):
    """The generated inputs of one pass: transform instances, or the
    (warm-up, churn) texts of a stream."""
    if spec.kind == "stream":
        return bench_inputs.update_stream(seed, spec.name, spec.n, spec.warmup, count,
                                          1.0, spec.psi if spec.weighted else 1.0)
    make = (bench_inputs.match_instance if spec.name == "match-transform"
            else bench_inputs.forest_instance)
    return [make(seed, i, spec.n) for i in range(count)]


# -- transforms ------------------------------------------------------------


def _check(g, src, tgt, report, problem, eps):
    return check_guarantee(report, solution_stats(g, src), solution_stats(g, tgt),
                           problem, eps)


def _emit(script) -> str:
    return json.dumps(script.to_json_obj(), indent=1) + "\n"


class TransformCalls:
    """The calls of the transform path, each timed when a tracer is given."""

    def __init__(self, tracer: Optional[Tracer] = None) -> None:
        timed = tracer.timed if tracer else (lambda name, fn, info=None: fn)
        self.parse_graph = timed("io.parse", parse_graph)
        self.parse = {"matching": timed("io.parse", parse_matching),
                      "forest": timed("io.parse", parse_forest)}
        self.plan = {"mcm": timed("mcm.plan", plan_mcm, script_size),
                     "mwm": timed("mwm.plan", plan_mwm_auto, script_size),
                     "msf": timed("msf.plan", plan_msf, script_size)}
        self.replay = {g: timed("script.replay." + g, replay,
                                lambda report: len(report.boundaries))
                       for g in ("per-phase", "per-op")}
        self.check = timed("script.check", _check)
        self.emit = timed("script.emit", _emit)


def transform(inp: bench_inputs.TransformInput, calls: TransformCalls):
    g = calls.parse_graph(inp.graph)
    parse = calls.parse["forest" if inp.problem == "msf" else "matching"]
    src, tgt = parse(inp.source, g), parse(inp.target, g)
    plan = calls.plan[inp.problem]
    script = (plan(g, src, tgt, inp.epsilon) if inp.problem == "mwm"
              else plan(g, src, tgt))
    granularity = "per-op" if inp.problem == "mwm" else "per-phase"
    report = calls.replay[granularity](g, src.edge_ids(), script, granularity)
    result = calls.check(g, src, tgt, report, inp.problem, inp.epsilon)
    calls.emit(script)
    return g, tgt, script, report, result


def transform_failure(g, tgt, script, report, result) -> Optional[str]:
    if not result.ok:
        return "guarantee violated"
    if not report.final_edges >= set(tgt.edge_ids()):
        return "target not reached"
    if report.max_phase_ops > script.budget:
        return "phase over budget"
    valid = validate_forest if script.problem == "msf" else validate_matching
    if not valid(g, report.final_edges):
        return "invalid final state"
    return None


def transform_quality(g, tgt, script, report) -> Optional[float]:
    """Worst phase-end quality over the target's: size for mcm, weight for
    mwm, and for msf, where lighter is better, target weight over the
    heaviest phase end."""
    ends = report.phase_ends()
    if not ends:
        return None
    if script.problem == "mcm":
        return min(b.size for b in ends) / len(tgt)
    target_weight = sum(g.weight(e) for e in tgt.edge_ids())
    if script.problem == "mwm":
        return min(b.weight for b in ends) / target_weight
    return target_weight / max(b.weight for b in ends)


def run_transforms(spec: Spec, inputs: list, cap_s: float,
                   tracer: Optional[Tracer] = None) -> Measured:
    calls = TransformCalls(tracer)
    m = Measured(sizes={"n": spec.n})
    clock = time.perf_counter
    nonempty = 0
    for i, inp in enumerate(inputs):
        if tracer:
            tracer.op = i
        start = clock()
        try:
            out = transform(inp, calls)
        except Error as exc:
            out, reason = None, type(exc).__name__
        end = clock()
        if tracer:
            tracer.add("op", start, end)
            tracer.op = -1
        m.latencies.append(end - start)
        m.wall += end - start
        if out is not None:
            reason = transform_failure(*out)
            g, tgt, script, report, _ = out
            m.recourse.append(script.num_ops())
            nonempty += bool(script.phases)
            q = transform_quality(g, tgt, script, report)
            if q is not None:
                m.quality.append(q)
        if reason:
            m.failures[reason] += 1
        if m.wall > cap_s and (i + 1) % spec.block == 0:
            m.truncated = True
            break
    m.sizes["instances"] = m.attempted
    m.guards["nonempty_scripts"] = nonempty
    return m


# -- update streams --------------------------------------------------------


class Pulls:
    """Feeds events to run_simulation and timestamps every pull, so the gap
    between two pulls is one whole step, trace row included."""

    def __init__(self, events, stop_at: float, tracer: Optional[Tracer]) -> None:
        self.events = events
        self.stop_at = stop_at
        self.tracer = tracer
        self.stamps: list[float] = []
        self.next = 0
        self.resumed = False

    def __iter__(self):
        return self

    def __next__(self):
        now = time.perf_counter()
        if self.resumed:
            self.resumed = False
        else:
            self.stamps.append(now)
        if self.next >= len(self.events) or now > self.stop_at:
            raise StopIteration
        if self.tracer:
            self.tracer.op = self.next
        self.next += 1
        return self.events[self.next - 1]

    def step_failed(self) -> None:
        """The step in progress raised; it ends now."""
        self.stamps.append(time.perf_counter())
        self.resumed = True


def run_stream(spec: Spec, inputs: tuple[str, str], cap_s: float,
               tracer: Optional[Tracer] = None) -> Measured:
    warm_text, churn_text = inputs
    parse = tracer.timed("io.parse", parse_updates) if tracer else parse_updates
    warm, events = parse(warm_text), parse(churn_text)
    if tracer:
        g, algo = build_stream(spec.params(), warm, graph=TracedGraph(tracer),
                               wrap_inner=partial(TracedInner, tracer=tracer),
                               wrapped_cls=partial(TracedWrapped, tracer))
    else:
        g, algo = build_stream(spec.params(), warm)
    m = Measured()
    pulls = Pulls(events, time.perf_counter() + cap_s, tracer)
    rows = []
    while True:
        try:
            rows += run_simulation(g, algo, pulls).rows
            break
        except Error as exc:
            # the rows of the interrupted segment are lost; the run goes on
            pulls.step_failed()
            m.failures[type(exc).__name__] += 1
    stamps = pulls.stamps
    m.latencies = [b - a for a, b in zip(stamps, stamps[1:])]
    m.wall = stamps[-1] - stamps[0]
    m.truncated = len(m.latencies) < len(events)
    if tracer:
        for k in range(len(m.latencies)):
            tracer.op = k
            tracer.add("op", stamps[k], stamps[k + 1])
        tracer.op = -1
    bound = spec.recourse_bound()
    for r in rows:
        rec = r.recourse_added + r.recourse_removed
        m.recourse.append(rec)
        if rec > bound:
            m.failures["recourse over bound"] += 1
        if r.inner_size > 0:
            m.quality.append(r.output_size / r.inner_size)
    if not validate_matching(g, algo.matching_ids()):
        m.failures["invalid final output"] += 1
    phases = [r.window_phase for r in rows]
    m.guards["windows"] = sum(1 for prev, cur in zip(["idle"] + phases, phases)
                              if cur == "first" and prev != "first")
    m.guards["second_steps"] = phases.count("second")
    m.guards["switches"] = phases.count("switch")
    m.sizes = {"n": spec.n, "warmup_inserts": len(warm),
               "timed_updates": len(m.latencies),
               "final_edges": g.num_edges(), "output_size": algo.current_size(),
               "inner_size": algo.inner.current_size(),
               "recourse_budget": algo.recourse_budget}
    return m
