"""Update-stream simulation driver producing per-step recourse traces.

`oracles` is imported by run_simulation only when oracle_check is set,
once per run: the exact matcher is a debugging aid, and a plain run (or a
process that only builds its state, as a fresh benchmark set-up does)
should not pay to load it.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from functools import cached_property
from typing import Iterable, Iterator, Optional

from .graph import BudgetError, DataError, Graph, UpdateEvent
from .wrapper import (BatchRecompute, GreedyMaximalMatching, InnerAlgorithm,
                      WrappedMatching)

# one step of a trace, in the trace's column order
TraceRow = namedtuple("TraceRow", "step event recourse_added recourse_removed "
                      "output_size output_weight inner_size window_phase "
                      "opt_size", defaults=(None,))


def event_label(ev: UpdateEvent) -> str:
    if ev.kind in ("+e", "-e"):
        return f"{ev.kind} {ev.u} {ev.v}"
    return f"{ev.kind} {ev.u}"


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


class SimulationResult:
    """A run's per-step columns, one list per TraceRow field from event on,
    with the output's weight unrounded, and their summary. rows builds
    TraceRows from the columns on first access."""

    def __init__(self, columns: tuple[list, ...]) -> None:
        self.columns = columns
        _, added, removed, sizes, *_, opts = columns
        self.steps = len(added)
        self.max_recourse = max(map(operator.add, added, removed), default=0)
        self.mean_recourse = (sum(added) + sum(removed)) / (self.steps or 1)
        # OPT / output, when oracle checking
        self.worst_ratio: Optional[float] = max(
            (o / s if s else math.inf for o, s in zip(opts, sizes) if o),
            default=None)

    @cached_property
    def rows(self) -> list[TraceRow]:
        return [TraceRow(step, event_label(ev), a, r, s, round(w, 9), *rest)
                for step, (ev, a, r, s, w, *rest)
                in enumerate(zip(*self.columns), start=1)]


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
    columns = tuple([] for _ in TraceRow._fields[1:])
    (put_event, put_added, put_removed, put_size, put_weight, put_inner,
     put_phase, put_opt) = (c.append for c in columns)
    wrapped = isinstance(algo, WrappedMatching)
    apply, handle = g.apply_update, algo.handle_update
    size_of, weight_of = algo.current_size, algo.current_weight
    if oracle_check:
        from .oracles import MAX_VERTICES_MATCHING, max_matching_exact
    for ev in events:
        out = handle(ev, apply(ev))
        size = size_of()
        opt_size = None
        if oracle_check:
            if g.num_vertices() > MAX_VERTICES_MATCHING:
                raise BudgetError(
                    f"oracle check refused: {g.num_vertices()} vertices "
                    f"> budget {MAX_VERTICES_MATCHING}")
            opt_size = len(max_matching_exact(g))
        put_event(ev)
        put_added(len(out.added))
        put_removed(len(out.removed))
        put_size(size)
        put_weight(weight_of())
        put_inner(algo.inner_size if wrapped else size)
        put_phase(algo.last_window_phase if wrapped else "")
        put_opt(opt_size)
    return SimulationResult(columns)


def trace_csv_rows(result: SimulationResult) -> Iterator[list]:
    """The header, then each step's row, formatted as it is written."""
    yield list(TraceRow._fields)
    for step, (ev, a, r, size, w, inner, phase, opt) in enumerate(
            zip(*result.columns), start=1):
        yield [step, event_label(ev), a, r, size, repr(round(w, 9)), inner,
               phase, "" if opt is None else opt]
