"""Update-stream simulation driver producing per-step recourse traces.

`oracles` is imported by run_simulation only when oracle_check is set,
once per run: the exact matcher is a debugging aid, and a plain run (or a
process that only builds its state, as a fresh benchmark set-up does)
should not pay to load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .graph import BudgetError, DataError, Graph, UpdateEvent
from .wrapper import (BatchRecompute, GreedyMaximalMatching, InnerAlgorithm,
                      TraceRow, WrappedMatching)


def event_label(ev: UpdateEvent) -> str:
    if ev.kind == "+e":
        return f"+e {ev.u} {ev.v}"
    if ev.kind == "-e":
        return f"-e {ev.u} {ev.v}"
    if ev.kind == "+v":
        return f"+v {ev.u}"
    return f"-v {ev.u}"


def make_inner(name: str, g: Graph) -> InnerAlgorithm:
    """Inner algorithm factory: "greedy" or "batch[:eps_in]"."""
    if name == "greedy":
        return GreedyMaximalMatching(g)
    if name == "batch":
        return BatchRecompute(g)
    if name.startswith("batch:"):
        try:
            eps_in = float(name.split(":", 1)[1])
        except ValueError:
            raise DataError(f"unknown inner algorithm {name!r}") from None
        return BatchRecompute(g, eps_in=eps_in)
    raise DataError(f"unknown inner algorithm {name!r}")


@dataclass
class SimulationResult:
    rows: list[TraceRow]
    max_recourse: int
    mean_recourse: float
    worst_ratio: Optional[float]     # OPT / output, when oracle checking


def run_simulation(
    g: Graph,
    algo,
    events: Iterable[UpdateEvent],
    oracle_check: bool = False,
) -> SimulationResult:
    """Apply events to g, feed them to algo, and record per-step traces.

    algo is a WrappedMatching or a bare InnerAlgorithm; both expose
    handle_update(ev, delta) plus size/weight queries. With oracle_check,
    every step compares the output size against the exact optimum (graphs
    beyond the oracle budget are refused).
    """
    rows: list[TraceRow] = []
    total = 0
    max_rec = 0
    worst_ratio: Optional[float] = None
    wrapped = isinstance(algo, WrappedMatching)
    if oracle_check:
        from .oracles import MAX_VERTICES_MATCHING, max_matching_exact
    for step, ev in enumerate(events, start=1):
        delta = g.apply_update(ev)
        out = algo.handle_update(ev, delta)
        added, removed = len(out.added), len(out.removed)
        rec = added + removed
        total += rec
        if rec > max_rec:
            max_rec = rec
        size = algo.current_size()
        opt_size: Optional[int] = None
        if oracle_check:
            if g.num_vertices() > MAX_VERTICES_MATCHING:
                raise BudgetError(
                    f"oracle check refused: {g.num_vertices()} vertices "
                    f"> budget {MAX_VERTICES_MATCHING}")
            opt_size = len(max_matching_exact(g))
            if opt_size > 0 and size > 0:
                ratio = opt_size / size
                worst_ratio = ratio if worst_ratio is None else max(worst_ratio, ratio)
            elif opt_size > 0 and size == 0:
                worst_ratio = float("inf")
        # fields in TraceRow's order, passed by position
        rows.append(TraceRow(
            step, event_label(ev), added, removed, size,
            round(algo.current_weight(), 9),
            algo.inner_size if wrapped else size,
            algo.last_window_phase if wrapped else "",
            opt_size,
        ))
    mean = total / len(rows) if rows else 0.0
    return SimulationResult(rows, max_rec, mean, worst_ratio)


def trace_csv_rows(result: SimulationResult) -> list[list]:
    rows = [["step", "event", "recourse_added", "recourse_removed",
             "output_size", "output_weight", "inner_size", "window_phase",
             "opt_size"]]
    for r in result.rows:
        rows.append([r.step, r.event, r.recourse_added, r.recourse_removed,
                     r.output_size, repr(r.output_weight), r.inner_size,
                     r.window_phase, "" if r.opt_size is None else r.opt_size])
    return rows
