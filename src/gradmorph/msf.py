"""Spanning forest transformation planner.

Two work trees per connected component, transformed toward each other by a
greedy exchange procedure: repeatedly take the lightest cross edge (in the
target-side tree but not the source-side one) and swap it against an edge
of the cycle it closes. The cross set is read from the two work trees; a
plain heap over the initial cross set, popped lazily, orders it. The
forward stream moves the source-side tree, the backward stream moves the
target-side tree; the emitted fragment is the forward stream followed by
the backward stream reversed with inverted ops. Every phase is one 2-op
exchange and phase-end weight never exceeds max(w(F), w(F')). Like every
planner it holds ops as (kind, edge id) pairs, and `plan_msf` makes
them a `TransformationScript`.

An edge in both work trees is never cut: the exchange cuts only dummy-2
(exclusive) edges. So the edges the two trees share at the start are
contracted with union-find, and each index holds only the exclusive edges,
over the contracted super-vertices. A tree path keeps the order of its
exclusive edges under that contraction, so every query returns the same
witness and scripts do not change; index work follows k = |F xor F'| / 2.
Each index comes from `make_index(INDEX_KIND)`, the link-cut index; the
tests swap in a naive reference index there, and scripts do not change.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Protocol

from .graph import (ContractError, DataError, Graph, SpanningForest,
                    UnionFind, require_valid, slack)
from .dynforest import INDEX_KIND, make_index
from .script import Group, TransformationScript, reversed_groups


class ForestIndex(Protocol):
    """The index calls the exchange procedure makes (see dynforest)."""

    def link(self, eid: int, u: int, v: int, dummy: int) -> None: ...

    def load(self, edges: Iterable[tuple[int, int, int, int]]) -> None: ...

    def cut(self, eid: int) -> None: ...

    def set_dummy(self, eid: int, dummy: int) -> None: ...

    def path_edge_outside(self, u: int, v: int) -> int: ...


@dataclass
class TreeTransformState:
    """Work trees of one component plus their indexes.

    The indexes run over super-vertices: rep maps each vertex touched by an
    initially shared edge to its contracted class (other vertices stand for
    themselves).
    """

    g: Graph
    work_src: set[int]
    work_tgt: set[int]
    rep: dict[int, int]
    index_src: ForestIndex
    index_tgt: ForestIndex

    @staticmethod
    def create(g: Graph, tree_src: Iterable[int],
               tree_tgt: Iterable[int]) -> "TreeTransformState":
        src, tgt = set(tree_src), set(tree_tgt)
        classes = UnionFind()
        for eid in src & tgt:
            u, v = g.endpoints(eid)
            classes.add(u)
            classes.add(v)
            classes.union(u, v)
        rep = {x: classes.find(x) for x in classes.parent}

        def exclusive(own: set[int], other: set[int]) -> list[tuple[int, int, int, int]]:
            out = []
            for eid in sorted(own - other):
                u, v = g.endpoints(eid)
                out.append((eid, rep.get(u, u), rep.get(v, v), 2))
            return out

        index_src = make_index(INDEX_KIND)
        index_tgt = make_index(INDEX_KIND)
        index_src.load(exclusive(src, tgt))
        index_tgt.load(exclusive(tgt, src))
        return TreeTransformState(g, src, tgt, rep, index_src, index_tgt)

    def local_trans(self, e_prime: int) -> tuple[int, Group]:
        """One exchange step for cross edge e_prime; returns (case, ops),
        the ops [("remove", e), ("add", e')] of its swap.

        Case 1 swaps inside the source-side tree (never increasing its
        weight); case 2 swaps inside the target-side tree (strictly
        decreasing its weight). Either way the symmetric difference of the
        work trees shrinks by exactly two edges.
        """
        g, rep = self.g, self.rep
        if e_prime not in self.work_tgt or e_prime in self.work_src:
            raise DataError(f"edge {e_prime} is not in the cross set")
        pu, pv, pw = g.edge(e_prime)
        su, sv = rep.get(pu, pu), rep.get(pv, pv)
        e = self.index_src.path_edge_outside(su, sv)
        ew = g.weight(e)
        if ew >= pw:
            # case 1: source tree drops e, gains e_prime
            self.work_src.remove(e)
            self.work_src.add(e_prime)
            self.index_src.cut(e)
            self.index_src.link(e_prime, su, sv, 1)
            self.index_tgt.set_dummy(e_prime, 1)
            return 1, [("remove", e), ("add", e_prime)]
        # case 2: target tree drops e'' (on its cycle with e), gains e
        eu, ev, _ = g.edge(e)
        su, sv = rep.get(eu, eu), rep.get(ev, ev)
        e2 = self.index_tgt.path_edge_outside(su, sv)
        e2w = g.weight(e2)
        if not e2w > ew:
            raise ContractError(
                f"exchange would not decrease target-side weight: "
                f"w({e2}) = {e2w} <= w({e}) = {ew}")
        self.work_tgt.remove(e2)
        self.work_tgt.add(e)
        self.index_tgt.cut(e2)
        self.index_tgt.link(e, su, sv, 1)
        self.index_src.set_dummy(e, 1)
        return 2, [("remove", e2), ("add", e)]


def plan_tree(g: Graph, tree_src: Iterable[int],
              tree_tgt: Iterable[int]) -> list[Group]:
    """Complete fragment transforming one spanning tree into another.

    Forward stream (case-1 exchanges) first, then the backward stream
    (case 2) reversed with each 2-op exchange inverted ([remove x, add y]
    -> [remove y, add x]).
    """
    state = TreeTransformState.create(g, tree_src, tree_tgt)
    src, tgt = state.work_src, state.work_tgt
    forward: list[Group] = []
    backward: list[Group] = []
    expected_steps = len(src ^ tgt) // 2
    # the cross set is tgt - src: each exchange takes one edge out of it
    # (case 1 adds e' to src, case 2 drops e'' from tgt) and adds none, so
    # a heap built once and popped lazily keeps its lightest edge on top.
    # A case-2 exchange leaves e' a cross edge, to be taken again.
    cross = [(g.weight(e), e) for e in tgt - src]
    heapq.heapify(cross)
    while cross:
        e_prime = cross[0][1]
        if e_prime in src or e_prime not in tgt:
            heapq.heappop(cross)
            continue
        case, ops = state.local_trans(e_prime)
        (forward if case == 1 else backward).append(ops)
        if len(forward) + len(backward) > expected_steps:
            raise ContractError("exchange count exceeds |src xor tgt| / 2")
    if state.work_src != state.work_tgt:
        raise ContractError("work trees differ after an empty cross set")
    return forward + reversed_groups(backward)


def plan_msf(g: Graph, source: SpanningForest,
             target: SpanningForest) -> TransformationScript:
    """Plan 2-op phases transforming forest source into forest target.

    Components whose tree weight decreases (or is unchanged) are handled
    before components whose weight increases, which keeps the global
    replayed weight within max(w(F), w(F')) at every phase end. Runs in
    O(n alpha(n) + k log k) with the link-cut index, where n = |F| + |F'|
    and k = |F xor F'| / 2: contraction and the bulk load are linear, and
    only the k exchanges touch the index.
    """
    require_valid(g, "source", source)
    require_valid(g, "target", target)
    labels = g._component_labels()
    src_by_comp: dict[int, list[int]] = {}
    tgt_by_comp: dict[int, list[int]] = {}
    for eid in source.edges:
        u, _, _ = g.edge(eid)
        src_by_comp.setdefault(labels[u], []).append(eid)
    for eid in target.edges:
        u, _, _ = g.edge(eid)
        tgt_by_comp.setdefault(labels[u], []).append(eid)

    comps = sorted(set(src_by_comp) | set(tgt_by_comp))
    entries = []
    for c in comps:
        src_ids = src_by_comp.get(c, [])
        tgt_ids = tgt_by_comp.get(c, [])
        colored = sum(g.weight(e) for e in tgt_ids) - sum(g.weight(e) for e in src_ids)
        entries.append((c, src_ids, tgt_ids, colored))
    # weight-decreasing components first: the banked decrease keeps the
    # running total under max(w(F), w(F')) while later components climb
    tol = slack()
    entries.sort(key=lambda t: 1 if t[3] > tol else 0)

    groups: list[Group] = []
    for _, src_ids, tgt_ids, _ in entries:
        if set(src_ids) == set(tgt_ids):
            continue
        groups.extend(plan_tree(g, src_ids, tgt_ids))
    return TransformationScript(g, "msf", None, groups)
