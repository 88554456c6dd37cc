"""Weighted matching transformation planner.

A good-edge pre-pass first drains the mcm exchange core with weights for
worth and cost: each target-only edge heavier than the source edges
blocking it goes in, in its own 3-op phase. The planner then reads the
core's state, with no working copy of the source: the target-only edges
still out and the source-only edges still in split into vertex-disjoint
alternating components. Components are processed gain-first so the running
surplus never goes negative; within a component the credited prefix-minimum
decides between running it whole and splitting it into its suffix and
prefix. Like every planner it plans in (kind, edge id) pairs. A
component is held as its run: its edge ids in walk order, the blue
(source-only) ids at even positions and the red (target-only) ids at odd
ones, so the whole, a suffix and a prefix are each a slice of it. One
loop feeds a slice: it removes each blue id and adds each red one, holds
each op end to the op floor w(source) - W, and cuts a phase after each
removal of a light source edge (weight < eps * w(source)) and after the
last op. A cut only follows a removal, so an added red edge shares a phase
with the blue edge it displaces, each phase makes O(1/eps) changes and
ends above (1-eps) * w(source). `plan_mwm_groups` is the one entry point,
for either direction: it reaches a lighter target by planning the other
way, with the isolated edges that plan would keep leaving through the
same loop, and reversing the groups. The recourse wrapper plays the
groups directly; `plan_mwm_auto` makes them a `TransformationScript`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import AbstractSet, Iterable, Optional

from .graph import ContractError, Graph, Matching, require_valid, slack
from .mcm import Exchange, target_only_ids
from .script import Group, TransformationScript, phase_budget, reversed_groups


@dataclass
class AlternatingComponent:
    """Path or cycle of alternating source-only / target-only edges.

    run holds its edge ids in walk order, blue (source-only) at even
    positions and red (target-only) at odd ones, padded to even length:
    pair i is run[2i], run[2i + 1]. Only a path's run[0] and run[-1] may be
    None.
    """

    kind: str                                  # "path" | "cycle"
    run: list[Optional[int]]
    colored_weight: float

    def k(self) -> int:
        return len(self.run) // 2


def _decompose(g: Graph, blue: AbstractSet[int],
               red: AbstractSet[int]) -> list[AlternatingComponent]:
    """Split the source-only ids blue and the target-only ids red of two
    matchings already checked into alternating components.

    Isolated shared edges are excluded; every symmetric-difference edge
    lands in exactly one component. Deterministic: paths come first, in
    ascending order of (end edge id, end vertex), then cycles, in
    ascending order of their smallest blue edge id.
    """
    table = g._edges
    blue_at: dict[int, int] = {}
    red_at: dict[int, int] = {}
    for eid in blue:
        u, v, _ = table[eid]
        blue_at[u] = blue_at[v] = eid
    for eid in red:
        u, v, _ = table[eid]
        red_at[u] = red_at[v] = eid
    seen: set[int] = set()
    comps: list[AlternatingComponent] = []

    def walk(kind: str, eid: int, x: int) -> None:
        """Append the component walked from vertex x through edge eid."""
        run = [] if eid in blue else [None]
        while eid is not None and eid not in seen:
            run.append(eid)
            seen.add(eid)
            u, v, _ = table[eid]
            x = v if x == u else u
            eid = (blue_at if len(run) % 2 == 0 else red_at).get(x)
        if len(run) % 2:
            run.append(None)
        colored = 0.0
        for b, r in zip(run[::2], run[1::2]):
            if r is not None:
                colored += table[r][2]
            if b is not None:
                colored -= table[b][2]
        comps.append(AlternatingComponent(kind, run, colored))

    # paths first: start at degree-1 vertices, smaller end-edge id first
    endpoints: list[tuple[int, int]] = []  # (end edge id, vertex)
    for eid in sorted(blue | red):
        u, v, _ = table[eid]
        for x in (u, v):
            if (x in blue_at) + (x in red_at) == 1:
                endpoints.append((eid, x))
    for eid, x in sorted(endpoints):
        if eid not in seen:
            walk("path", eid, x)

    # remaining edges lie on cycles; start each at its smallest blue edge
    for eid in sorted(blue):
        if eid not in seen:
            u, v, _ = table[eid]
            walk("cycle", eid, min(u, v))
            if None in comps[-1].run:
                raise ContractError("alternating cycle with odd edge count")
    for eid in sorted(red):
        if eid not in seen:
            raise ContractError(f"red edge {eid} missed by decomposition")
    return comps


def order_components(
    comps: Iterable[AlternatingComponent],
) -> list[AlternatingComponent]:
    """Positive colored weight first, then negative, then exactly-zero;
    first-seen order within each class. When the total colored weight is
    positive, every prefix sum is positive (asserted)."""
    comps = list(comps)

    def rank(c: AlternatingComponent) -> int:
        if c.colored_weight > 0:
            return 0
        if c.colored_weight < 0:
            return 1
        return 2

    ordered = sorted(comps, key=rank)
    total = sum(c.colored_weight for c in comps)
    tol = slack()
    if total > tol:
        running = 0.0
        for c in ordered:
            running += c.colored_weight
            if running <= -tol:
                raise ContractError(f"non-positive colored-weight prefix {running}")
    return ordered


def prefix_sums(g: Graph, run: list[Optional[int]]) -> list[float]:
    """c(0..k): colored weight of the first i pairs of a component's run,
    absent slots contribute 0."""
    sums = [0.0]
    for b, r in zip(run[::2], run[1::2]):
        step = (g.weight(r) if r is not None else 0.0) - \
               (g.weight(b) if b is not None else 0.0)
        sums.append(sums[-1] + step)
    return sums


def prefix_min_index(sums: list[float]) -> int:
    """Smallest index minimizing sums[i] (the prefix_sums of a component),
    compared exactly.

    Rounded addition is monotone, so the same index also minimizes the
    credited value surplus + c(i) that the caller tests.
    """
    best = 0
    for i, s in enumerate(sums):
        if s < sums[best]:
            best = i
    return best


def _plan_phases(
    g: Graph,
    source: Matching,
    target: Matching,
    eps: float,
    exact: bool = False,
) -> list[Group]:
    """Phases taking source to a superset of target, for valid, distinct
    matchings with w(target) >= w(source): op-end weight >= w(source) - W,
    phase-end weight >= max(w(source) - W, (1 - eps) w(source)). With
    exact, the isolated source-only edges that a superset keeps leave too,
    each in its own 1-op phase, ascending, so the phases end at exactly
    target. Checks neither matching, but each phase's budget."""
    budget = phase_budget("mwm", eps)
    w_source = source.weight()
    src_weights = [w for _, _, w in source.edges.values()]
    max_src_weight = max(src_weights, default=0.0)
    light_threshold = eps * w_source
    tol = slack(w_source)
    op_floor = w_source - max_src_weight - tol
    table, weight = g._edges, g.weight
    # the good-edge pre-pass, whose 3-op phases never decrease the weight
    core = Exchange(g, source, target_only_ids(source, target), weight, weight)
    phases = list(core.drain())
    added = [group[0][1] for group in phases]
    removed = [eid for group in phases for _, eid in group[1:]]
    # blue and red: the source-only edges still in, the target-only still out
    blue = source.edges.keys() - target.edges.keys()
    blue.difference_update(removed)
    comps = order_components(_decompose(g, blue, core.rest.keys()))
    # pre-pass gain: the correctly rounded weight after the pre-pass
    surplus = math.fsum(chain(src_weights, map(weight, added),
                              (-weight(eid) for eid in removed))) - w_source
    current = w_source + surplus

    def feed(run: list[Optional[int]]) -> None:
        """Play run, removing its even positions and adding its odd ones,
        holding each op end to the op floor and cutting a phase after each
        light removal and after the last op."""
        nonlocal current
        ops: Group = []
        last = len(run) - 1 if run[-1] is not None else len(run) - 2
        for i, eid in enumerate(run):
            if eid is None:
                continue
            kind, w = "add" if i % 2 else "remove", table[eid][2]
            current += w if i % 2 else -w
            ops.append((kind, eid))
            if current < op_floor:
                raise ContractError(
                    f"op-end weight {current} below floor {op_floor}")
            if (kind == "remove" and w < light_threshold) or i == last:
                if len(ops) > budget:
                    raise ContractError(
                        f"phase of {len(ops)} ops exceeds budget {budget}")
                phases.append(ops)
                ops = []

    isolated_blues: list[int] = []
    for comp in comps:
        run = comp.run
        if len(run) == 2 and run[1] is None:
            # isolated source-only edge: kept (superset semantics)
            isolated_blues.append(run[0])
            continue
        sums = prefix_sums(g, run)
        i_min = prefix_min_index(sums)
        if comp.kind == "cycle":
            if i_min > 0:
                run = run[2 * i_min:] + run[:2 * i_min]
                sums = prefix_sums(g, run)
                i_min = prefix_min_index(sums)
            if surplus + sums[i_min] < -tol:
                raise ContractError(
                    "rotated cycle still has negative credited minimum")
            feed(run)
        elif surplus + sums[i_min] >= 0:
            feed(run)
        else:
            if not (0 < i_min < comp.k()):
                raise ContractError(f"split index {i_min} not interior")
            feed(run[2 * i_min:])
            feed(run[:2 * i_min])
        surplus += comp.colored_weight
        if surplus < -tol:
            raise ContractError(f"negative running surplus {surplus}")
    if exact:
        # the weight falls from w(target) + w(kept) to w(target) >= w(source)
        for eid in sorted(isolated_blues):
            feed([eid])
    return phases


def plan_mwm_auto(
    g: Graph,
    source: Matching,
    target: Matching,
    eps: float,
) -> TransformationScript:
    """The script of plan_mwm_groups: phases from source to target in
    either direction, passing check_guarantee("mwm")."""
    groups = plan_mwm_groups(g, source, target, eps)
    return TransformationScript(g, "mwm", eps, groups)


def plan_mwm_groups(
    g: Graph,
    source: Matching,
    target: Matching,
    eps: float,
) -> list[Group]:
    """Phases transforming source into target as (kind, edge id) groups,
    for 0 < eps <= 1/2, in O(|source| + |target|). A heavier target is
    reached as a superset; otherwise plans target -> source and reverses
    the groups (reversed_groups), so the floors reference the lighter
    endpoint, matching check_guarantee's convention."""
    phase_budget("mwm", eps)   # checks eps
    require_valid(g, "source", source)
    require_valid(g, "target", target)
    if source.edges.keys() == target.edges.keys():
        return []
    if target.weight() > source.weight():
        return _plan_phases(g, source, target, eps)
    # the reversed plan must start from exactly source
    return reversed_groups(_plan_phases(g, target, source, eps, exact=True))
