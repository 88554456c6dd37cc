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
source. `plan_mcm` hands those groups to `TransformationScript.from_groups`;
the recourse wrapper, which knows its target-only edges and plays the
groups directly, calls the core alone.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from itertools import filterfalse
from typing import Iterable

from .graph import ContractError, DataError, Graph, Matching, require_valid
from .script import Group, TransformationScript


@dataclass
class EdgeClassification:
    """Target-only edges split by how many current edges block them; good
    and bad are FIFO queues of edge ids."""

    good: OrderedDict[int, None]
    bad: OrderedDict[int, None]
    blocker_count: dict[int, int]        # target-only eid -> #blocking edges
    blocked_by: dict[int, list[int]]     # current eid -> target-only eids it blocks


def target_only_ids(current: Matching, target: Matching) -> list[int]:
    """The target's edges outside current, in the target's order."""
    return list(filterfalse(current.edges.__contains__, target.edges))


def classify(g: Graph, current: Matching, target: Matching) -> EdgeClassification:
    """Split target-only edges into good (blocked by at most one current
    edge) and bad (blocked by two). O(|current| + |target|)."""
    require_valid(g, "current", current)
    require_valid(g, "target", target)
    return _classify(g, current.vertex_index, target_only_ids(current, target))


def _classify(g: Graph, matched: dict[int, int],
              target_only: Iterable[int]) -> EdgeClassification:
    """classify's core: reads one edge row per target-only id."""
    good: OrderedDict[int, None] = OrderedDict()
    bad: OrderedDict[int, None] = OrderedDict()
    blocker_count: dict[int, int] = {}
    blocked_by: dict[int, list[int]] = {}
    table = g._edges
    for eid in target_only:
        u, v, _ = table[eid]
        blockers = {matched.get(u), matched.get(v)}
        blockers.discard(None)
        blocker_count[eid] = len(blockers)
        for b in blockers:
            blocked_by.setdefault(b, []).append(eid)
        (good if len(blockers) <= 1 else bad)[eid] = None
    return EdgeClassification(good, bad, blocker_count, blocked_by)


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


def plan_mcm(g: Graph, source: Matching, target: Matching) -> TransformationScript:
    """Plan phases transforming source into a superset of target.

    Checks both matchings, then runs plan_target_only: O(|source| +
    |target|) in C-level passes, O(k) in Python for k target-only edges.
    The emitted script passes check_guarantee("mcm").
    """
    require_valid(g, "current", source)
    require_valid(g, "target", target)
    groups = plan_target_only(g, source, target_only_ids(source, target),
                              len(target))
    return TransformationScript.from_groups(g, "mcm", None, groups)


def plan_target_only(g: Graph, source: Matching, target_only: Iterable[int],
                     target_size: int) -> list[Group]:
    """The planning core: phases taking source to a superset of a target
    matching, given the target's edges outside source (in the target's
    order) and |target|. Returns each phase as its ops, (kind, edge id)
    pairs: the added target-only edge, then the removals it forces.

    Checks neither matching: source must be a valid matching whose vertex
    index agrees with g, and source plus target_only must come from one.
    Reads O(k) edge rows for k target-only edges, and never copies source.
    """
    cls = _classify(g, source.vertex_index, target_only)
    work = _Overlay(source)
    table = g._edges
    groups: list[Group] = []

    def on_removed(blocker: int) -> None:
        for te in cls.blocked_by.pop(blocker, ()):
            if te not in cls.blocker_count:
                continue  # already planned
            cls.blocker_count[te] -= 1
            if cls.blocker_count[te] == 1 and te in cls.bad:
                del cls.bad[te]
                cls.good[te] = None

    while cls.good or cls.bad:
        if cls.good:
            eid = cls.good.popitem(last=False)[0]
        else:
            # every remaining target-only edge is blocked twice
            if work.size < target_size:
                raise ContractError(
                    f"bad-edge invariant breach: |work| = {work.size} < "
                    f"|target| = {target_size} with no good edges")
            eid = cls.bad.popitem(last=False)[0]
        del cls.blocker_count[eid]
        u, v, _ = table[eid]
        blockers = {work.matched_edge(u), work.matched_edge(v)}
        blockers.discard(None)
        group = [("add", eid)]
        for b in sorted(blockers):
            bu, bv, _ = table[b]
            group.append(("remove", b))
            work.remove(b, bu, bv)
            on_removed(b)
        work.add(eid, u, v)
        groups.append(group)
    return groups
