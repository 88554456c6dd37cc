"""The full-rescan replay: the reference that tests check `script.replay`
against. It shares no incremental state with the verifier: at every
boundary it checks the whole state from scratch with `validate_matching`
or `validate_forest`, the package's one matching and one forest rule."""

from typing import Iterable, Optional

from gradmorph.graph import DataError, Graph, validate_forest, validate_matching
from gradmorph.script import Boundary, ReplayReport, TransformationScript


def replay_reference(
    g: Graph,
    source: Iterable[int],
    script: TransformationScript,
    granularity: str = "per-phase",
) -> ReplayReport:
    """Reference for `script.replay`: the same report and the same errors,
    with validity checked from scratch at every boundary by
    `validate_matching` or `validate_forest`. A matching's edges that are
    removed later in the current phase are exempt at its op boundaries."""
    if granularity not in ("per-phase", "per-op"):
        raise DataError(f"unknown granularity {granularity!r}")
    if script.g is not g:
        raise DataError("the script names the edge ids of another graph")
    script.validate()
    state: set[int] = set(source)
    weight = sum((g.weight(eid) for eid in state), 0.0)
    boundaries: list[Boundary] = []
    per_op = granularity == "per-op"

    def snapshot(phase: int, op: Optional[int], exempt: set[int]) -> None:
        if script.problem in ("mcm", "mwm"):
            valid = validate_matching(g, state - exempt).ok
        else:
            valid = validate_forest(g, state).ok
        boundaries.append(Boundary(len(boundaries), phase, op, valid, len(state), weight))

    snapshot(-1, None, set())
    for pi, ops in enumerate(script.phases):
        pending_removals = {eid for kind, eid in ops if kind == "remove"}
        for oi, (kind, eid) in enumerate(ops):
            if not g.has_edge_id(eid):
                raise DataError(f"phase {pi} op {oi}: no edge with id {eid}")
            u, v, w = g.edge(eid)
            if kind == "add":
                if eid in state:
                    raise DataError(f"phase {pi} op {oi}: adding present edge "
                                    f"({u},{v})")
                state.add(eid)
                weight += w
            else:   # a remove, as validate() has checked
                if eid not in state:
                    raise DataError(f"phase {pi} op {oi}: removing absent edge "
                                    f"({u},{v})")
                state.remove(eid)
                weight -= w
                pending_removals.discard(eid)
            if per_op and oi < len(ops) - 1:
                snapshot(pi, oi, pending_removals & state)
        snapshot(pi, None, set())

    return ReplayReport(script.problem, granularity, boundaries,
                        frozenset(state), [len(ops) for ops in script.phases])
