"""Unweighted matching transformation planner.

Each phase adds one target-only edge (edges blocked by at most one current
edge take strict precedence) and then removes the current edges incident
on it, so every phase makes at most three changes and phase-end size never
drops below min(|source|, |target| - 1).

`plan_mcm` checks both matchings in whole-set passes and hands the
target-only edges to `plan_target_only`, the planning core. The core reads
the rows of those k edges and of the source edges blocking them, keeps
its working matching as an overlay of changes on the source's vertex
index, and returns each phase as (kind, edge id) pairs, the one op format
of every planner, so its Python work is O(k) whatever the size of the
source. `plan_mcm` makes those groups a `TransformationScript`;
the recourse wrapper, which knows its target-only edges and plays the
groups directly, calls the core alone. The core runs `Exchange`; the mwm
planner drains the same exchange, with weights, as its good-edge pre-pass.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from itertools import filterfalse
from typing import Callable, Iterable, Iterator

from .graph import ContractError, DataError, Graph, Matching, require_valid
from .script import Group, TransformationScript


def target_only_ids(current: Matching, target: Matching) -> list[int]:
    """The target's edges outside current, in the target's order."""
    return list(filterfalse(current.edges.__contains__, target.edges))


class _Overlay:
    """A working matching held as its changes against a base matching's
    vertex index: O(changes) to build and keep, where a copy of the base
    costs O(|base|). add and remove keep Matching's guards."""

    __slots__ = ("base", "changed", "size")

    def __init__(self, base: Matching) -> None:
        self.base = base.vertex_index
        self.changed: dict[int, int | None] = {}   # vertex -> edge, None once freed
        self.size = len(base)

    def matched_edge(self, x: int) -> int | None:
        changed = self.changed
        return changed[x] if x in changed else self.base.get(x)

    def add(self, eid: int, u: int, v: int) -> None:
        for x in (u, v):
            held = self.matched_edge(x)
            if held == eid:
                raise DataError(f"edge {eid} already in matching")
            if held is not None:
                raise DataError(f"vertex {x} already matched by edge {held}")
        self.changed[u] = self.changed[v] = eid
        self.size += 1

    def remove(self, eid: int, u: int, v: int) -> None:
        if self.matched_edge(u) != eid or self.matched_edge(v) != eid:
            raise DataError(f"edge {eid} not in matching")
        self.changed[u] = self.changed[v] = None
        self.size -= 1


class Exchange:
    """Greedy exchange of target-only edges into an overlay of source. An
    edge is good while the summed cost of the source edges blocking it is
    below its worth: for mcm worth 2 and cost 1 (at most one blocker, so
    the size never drops), for mwm the weights (so the weight never drops).

    drain() swaps in good edges in FIFO order, exchange(e) one given edge;
    each gives its group [add e, remove b...], blockers ascending, and a
    removed blocker promotes the edges it blocked that become good. rest
    maps the edges not yet good, in target order, to their blockers'
    summed cost. Reads each target-only edge's row when built and again
    when it goes in, and each removed blocker's row once.
    """

    def __init__(self, g: Graph, source: Matching, target_only: Iterable[int],
                 worth: Callable[[int], float],
                 cost: Callable[[int], float]) -> None:
        self.table = table = g._edges
        self.work = _Overlay(source)
        self.worth, self.cost = worth, cost
        self.good: deque[int] = deque()
        self.rest: OrderedDict[int, float] = OrderedDict()
        self.blocked_by: dict[int, list[int]] = {}  # source eid -> edges it blocks
        matched = source.vertex_index
        for eid in target_only:
            u, v, _ = table[eid]
            blockers = {matched.get(u), matched.get(v)}
            blockers.discard(None)
            for b in blockers:
                self.blocked_by.setdefault(b, []).append(eid)
            need = sum(map(cost, blockers))
            if need < worth(eid):
                self.good.append(eid)
            else:
                self.rest[eid] = need

    def drain(self) -> Iterator[Group]:
        good = self.good
        while good:
            yield self.exchange(good.popleft())

    def exchange(self, eid: int) -> Group:
        rest, good, table, work = self.rest, self.good, self.table, self.work
        rest.pop(eid, None)
        u, v, _ = table[eid]
        blockers = {work.matched_edge(u), work.matched_edge(v)}
        blockers.discard(None)
        group = [("add", eid)]
        for b in sorted(blockers):
            bu, bv, _ = table[b]
            group.append(("remove", b))
            work.remove(b, bu, bv)
            freed = self.cost(b)
            for te in self.blocked_by.pop(b, ()):
                if te in rest:
                    rest[te] -= freed
                    if rest[te] < self.worth(te):
                        del rest[te]
                        good.append(te)
        work.add(eid, u, v)
        return group


def plan_mcm(g: Graph, source: Matching, target: Matching) -> TransformationScript:
    """Plan phases transforming source into a superset of target.

    Checks both matchings, then runs plan_target_only: O(|source| +
    |target|) in C-level passes, O(k) in Python for k target-only edges.
    The emitted script passes check_guarantee("mcm").
    """
    require_valid(g, "source", source)
    require_valid(g, "target", target)
    groups = plan_target_only(g, source, target_only_ids(source, target),
                              len(target))
    return TransformationScript(g, "mcm", None, groups)


def plan_target_only(g: Graph, source: Matching, target_only: Iterable[int],
                     target_size: int) -> list[Group]:
    """The planning core: phases taking source to a superset of a target
    matching, given the target's edges outside source (in the target's
    order) and |target|. Returns each phase as its ops, (kind, edge id)
    pairs: the added target-only edge, then the removals it forces.
    Drains the exchange; once no edge is good, every one left is blocked
    twice, so the first of them goes in anyway and the core drains again.

    Checks neither matching: source must be a valid matching whose vertex
    index agrees with g, and source plus target_only must come from one.
    Reads O(k) edge rows for k target-only edges, and never copies source.
    """
    core = Exchange(g, source, target_only, lambda e: 2, lambda b: 1)
    groups = list(core.drain())
    while core.rest:
        if core.work.size < target_size:
            raise ContractError(
                f"bad-edge invariant breach: |work| = {core.work.size} < "
                f"|target| = {target_size} with no good edges")
        groups.append(core.exchange(next(iter(core.rest))))
        groups.extend(core.drain())
    return groups
