"""Per-layer tracing, done from outside the program.

Spans are recorded only around calls that the benchmark makes into each
layer's public functions, or through subclasses and proxies that the
benchmark hands to the program:

- `TracedGraph` times `Graph.apply_update`;
- `TracedWrapped` times `WrappedMatching.handle_update` and names the
  window phase the step ran in;
- `TracedInner` times the inner algorithm's `handle_update` and keeps its
  recourse;
- `instrument` swaps the planner functions that `gradmorph.wrapper`
  imports, and `gradmorph.msf.make_index`, for timed versions while a
  traced pass runs, and restores them afterwards.

Spans are tuples (name, op, start, end, info), kept in memory. `op` is the
index of the transform instance or timed update that contains the span
(-1 outside them); `info` is a small payload such as a script's size.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Optional

import gradmorph.msf
import gradmorph.wrapper
from gradmorph.graph import Graph
from gradmorph.wrapper import InnerAlgorithm, WrappedMatching

INDEX_CALLS = ("link", "cut", "set_dummy", "path_edge_outside")
TRANSFORM_PLANS = ("mcm.plan", "mwm.plan", "msf.plan")
STEP_KINDS = ("wrapper.open", "wrapper.switch", "wrapper.first", "wrapper.second")


def script_size(script) -> tuple[int, int]:
    return len(script.phases), script.num_ops()


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, int, float, float, object]] = []
        self.op = -1

    def add(self, name: str, start: float, end: float, info=None) -> None:
        self.spans.append((name, self.op, start, end, info))

    def timed(self, name: str, fn: Callable,
              info: Optional[Callable] = None) -> Callable:
        """fn wrapped so that each call records a span; info(result) is
        stored with it."""
        clock = time.perf_counter

        def call(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            self.add(name, start, clock(), info(result) if info else None)
            return result

        return call


class TracedGraph(Graph):
    def __init__(self, tracer: Tracer) -> None:
        super().__init__()
        self._tracer = tracer

    def apply_update(self, ev):
        start = time.perf_counter()
        delta = super().apply_update(ev)
        self._tracer.add("graph.apply", start, time.perf_counter())
        return delta


class TracedInner(InnerAlgorithm):
    """Delegating proxy around an inner algorithm."""

    def __init__(self, inner: InnerAlgorithm, tracer: Tracer) -> None:
        self.inner = inner
        self.beta = inner.beta
        self._tracer = tracer

    def handle_update(self, ev, delta):
        start = time.perf_counter()
        out = self.inner.handle_update(ev, delta)
        self._tracer.add("wrapper.inner", start, time.perf_counter(),
                         out.recourse())
        return out

    def matching_ids(self):
        return self.inner.matching_ids()

    def current_size(self):
        return self.inner.current_size()

    def current_weight(self):
        return self.inner.current_weight()

    def emit_edges(self, count):
        return self.inner.emit_edges(count)


class TracedWrapped(WrappedMatching):
    """Records each step as wrapper.open, .switch, .first or .second."""

    def __init__(self, tracer: Tracer, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._tracer = tracer

    def handle_update(self, ev, delta):
        opening = self.window is None
        start = time.perf_counter()
        out = super().handle_update(ev, delta)
        end = time.perf_counter()
        phase = self.last_window_phase
        if opening and phase == "first":
            phase = "open"
        self._tracer.add("wrapper." + phase, start, end)
        return out


class TracedIndex:
    """Delegating proxy around a forest index."""

    def __init__(self, index, tracer: Tracer) -> None:
        self._index = index
        for name in INDEX_CALLS:
            setattr(self, name,
                    tracer.timed("dynforest." + name, getattr(index, name)))

    def __getattr__(self, name):
        return getattr(self._index, name)


@contextmanager
def instrument(tracer: Tracer):
    """Timed planners inside gradmorph.wrapper and a timed index factory
    inside gradmorph.msf, for the duration of one traced pass."""
    saved = [(gradmorph.wrapper, "plan_mcm"), (gradmorph.wrapper, "plan_mwm_auto"),
             (gradmorph.msf, "make_index")]
    originals = [getattr(mod, name) for mod, name in saved]
    make_index = gradmorph.msf.make_index
    gradmorph.wrapper.plan_mcm = tracer.timed(
        "wrapper.plan.mcm", gradmorph.wrapper.plan_mcm, script_size)
    gradmorph.wrapper.plan_mwm_auto = tracer.timed(
        "wrapper.plan.mwm", gradmorph.wrapper.plan_mwm_auto, script_size)
    gradmorph.msf.make_index = lambda kind: TracedIndex(make_index(kind), tracer)
    try:
        yield
    finally:
        for (mod, name), fn in zip(saved, originals):
            setattr(mod, name, fn)


def _mean(xs: list[float]) -> float:
    return sum(xs) / len(xs) if xs else 0.0


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-layer metrics from the spans of one traced pass over `ops`
    operations. Times are means per call unless named per operation."""
    dur: dict[str, list[float]] = defaultdict(list)
    info: dict[str, list] = defaultdict(list)
    op_len: dict[int, float] = {}
    child: dict[int, float] = defaultdict(float)      # apply + handle per op
    nested: dict[int, float] = defaultdict(float)     # inner + plan per op
    for name, op, start, end, payload in tracer.spans:
        d = end - start
        if name == "io.parse":
            dur[name].append(d)
            continue
        if op < 0:
            continue
        if name == "op":
            op_len[op] = d
            continue
        dur[name].append(d)
        if payload is not None:
            info[name].append(payload)
        if name == "graph.apply" or name in STEP_KINDS:
            child[op] += d
        if name == "wrapper.inner" or name.startswith("wrapper.plan."):
            nested[op] += d
    # wrapper self time per step kind: handle time minus inner and planning
    self_time: dict[str, list[float]] = defaultdict(list)
    for name, op, start, end, _ in tracer.spans:
        if op >= 0 and name in STEP_KINDS:
            self_time[name].append(end - start - nested[op])
    planner = {p: dur[p + ".plan"] + dur["wrapper.plan." + p] for p in ("mcm", "mwm")}
    wrapper_plans = dur["wrapper.plan.mcm"] + dur["wrapper.plan.mwm"]
    scripts = (info["mcm.plan"] + info["mwm.plan"] + info["msf.plan"]
               + info["wrapper.plan.mcm"] + info["wrapper.plan.mwm"])
    replays = dur["script.replay.per-phase"] + dur["script.replay.per-op"]
    transform_plans = sum(sum(dur[p]) for p in TRANSFORM_PLANS)
    index_calls = {c: dur["dynforest." + c] for c in INDEX_CALLS}
    stream_steps = [op_len[op] - child[op] for op in op_len if child[op]]
    per_op = 1.0 / ops if ops else 0.0
    return {
        "io.parse_ms": 1e3 * sum(dur["io.parse"]) * per_op,
        "graph.apply_update_us": 1e6 * _mean(dur["graph.apply"]),
        "mcm.plan_ms": 1e3 * _mean(planner["mcm"]),
        "mwm.plan_ms": 1e3 * _mean(planner["mwm"]),
        "msf.plan_ms": 1e3 * _mean(dur["msf.plan"]),
        "dynforest.calls": sum(len(v) for v in index_calls.values()),
        "dynforest.link_calls": len(index_calls["link"]),
        "dynforest.cut_calls": len(index_calls["cut"]),
        "dynforest.set_dummy_calls": len(index_calls["set_dummy"]),
        "dynforest.path_calls": len(index_calls["path_edge_outside"]),
        "dynforest.busy_ms": 1e3 * sum(sum(v) for v in index_calls.values()) * per_op,
        "script.replay_phase_ms": 1e3 * _mean(dur["script.replay.per-phase"]),
        "script.replay_op_ms": 1e3 * _mean(dur["script.replay.per-op"]),
        "script.replay_boundaries": _mean(info["script.replay.per-phase"]
                                          + info["script.replay.per-op"]),
        "script.replay_to_plan": sum(replays) / transform_plans if transform_plans else 0.0,
        "script.check_ms": 1e3 * _mean(dur["script.check"]),
        "script.emit_ms": 1e3 * _mean(dur["script.emit"]),
        "script.ops": _mean([ops_ for _, ops_ in scripts]),
        "script.phases": _mean([phases for phases, _ in scripts]),
        "wrapper.inner_us": 1e6 * _mean(dur["wrapper.inner"]),
        "wrapper.open_us": 1e6 * _mean(self_time["wrapper.open"]),
        "wrapper.switch_us": 1e6 * _mean(self_time["wrapper.switch"]),
        "wrapper.first_us": 1e6 * _mean(self_time["wrapper.first"]),
        "wrapper.second_us": 1e6 * _mean(self_time["wrapper.second"]),
        "wrapper.plan_ms": 1e3 * _mean(wrapper_plans),
        "wrapper.windows": len(dur["wrapper.open"]),
        "wrapper.switches": len(dur["wrapper.switch"]),
        "wrapper.second_steps": len(dur["wrapper.second"]),
        "wrapper.planned_ops": sum(ops_ for _, ops_ in info["wrapper.plan.mcm"]
                                   + info["wrapper.plan.mwm"]),
        "wrapper.inner_recourse_max": max(info["wrapper.inner"], default=0),
        "sim.row_us": 1e6 * _mean(stream_steps),
    }
