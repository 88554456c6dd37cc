"""Initial state of a workload, built from already-generated inputs.

`setup_child.py` imports this module inside its timed region, so its own
imports are part of the measured fresh-process set-up.
"""

from __future__ import annotations

from gradmorph.graph import Graph
from gradmorph.io import parse_updates
from gradmorph.sim import make_inner, run_simulation
from gradmorph.wrapper import WrappedMatching


def build_stream(params: dict, warm_events, graph=None, wrap_inner=None,
                 wrapped_cls=WrappedMatching):
    """Graph on vertices 0..n-1, inner algorithm and wrapper, with the
    warm-up prefix fed through run_simulation as `gradmorph simulate`
    does. The optional hooks let a traced pass substitute its own graph,
    inner proxy and wrapper subclass."""
    g = Graph() if graph is None else graph
    for v in range(params["n"]):
        g.ensure_vertex(v)
    inner = make_inner(params["inner"], g)
    if wrap_inner is not None:
        inner = wrap_inner(inner)
    algo = wrapped_cls(g, inner, params["eps"], weighted=params["weighted"],
                       psi=params["psi"])
    run_simulation(g, algo, warm_events)
    return g, algo


def setup(request: dict) -> None:
    """Everything a workload builds before its first timed operation."""
    if request["kind"] == "stream":
        build_stream(request["params"], parse_updates(request["warmup"]))
