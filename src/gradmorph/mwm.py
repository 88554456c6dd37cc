"""Weighted matching transformation planner.

A good-edge pre-pass first drains the mcm exchange core with weights for
worth and cost: each target-only edge heavier than the source edges
blocking it goes in, in its own 3-op phase. The planner then reads the
core's state, with no working copy of the source: the target-only edges
still out and the source-only edges still in split into vertex-disjoint
alternating components. Components are processed gain-first so the running
surplus never goes negative; within a component the credited prefix-minimum
decides between running it whole and splitting it into its suffix and
prefix. Like every planner it plans in (kind, edge id) pairs. The op
stream is a run of atomic units, plain groups of [add red, remove blue],
fed through one loop that holds each op end to the op floor
w(source) - W and groups the units into phases of O(1/eps) changes. A
phase is cut after each unit whose last op removes a light source edge
(weight < eps * w(source)), which pins the phase-end weight above
(1-eps) * w(source). `plan_mwm_groups` is the one entry point, for either
direction: it reaches a lighter target by planning the other way, with
the isolated edges that plan would keep leaving through the same loop,
and reversing the groups. The recourse wrapper plays the groups directly;
`plan_mwm_auto` makes them a script through
`TransformationScript.from_groups`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import AbstractSet, Iterable, Optional

from .graph import (ContractError, DataError, Graph, Matching, require_valid,
                    slack)
from .mcm import Exchange, target_only_ids
from .script import Group, TransformationScript, phase_budget, reversed_groups


@dataclass
class AlternatingComponent:
    """Path or cycle of alternating source-only / target-only edges.

    pairs[i] = (blue eid or None, red eid or None); only the first blue and
    the last red slot may be absent, and only for paths.
    """

    kind: str                                  # "path" | "cycle"
    pairs: list[tuple[Optional[int], Optional[int]]]
    colored_weight: float

    def k(self) -> int:
        return len(self.pairs)


def decompose(g: Graph, source: Matching, target: Matching) -> list[AlternatingComponent]:
    """Split source XOR target into alternating components.

    Isolated shared edges are excluded; every symmetric-difference edge
    lands in exactly one component. Deterministic: components discovered
    in ascending order of their smallest blue/red edge id.
    """
    require_valid(g, "source", source)
    require_valid(g, "target", target)
    return _decompose(g, source.edges.keys() - target.edges.keys(),
                      target.edges.keys() - source.edges.keys())


def _decompose(g: Graph, blue: AbstractSet[int],
               red: AbstractSet[int]) -> list[AlternatingComponent]:
    """decompose for the source-only ids blue and the target-only ids red
    of two matchings already checked."""
    table = g._edges
    blue_at: dict[int, int] = {}
    red_at: dict[int, int] = {}
    for eid in blue:
        u, v, _ = table[eid]
        blue_at[u] = blue_at[v] = eid
    for eid in red:
        u, v, _ = table[eid]
        red_at[u] = red_at[v] = eid

    def other(eid: int, x: int) -> int:
        u, v, _ = table[eid]
        return v if x == u else u

    seen: set[int] = set()
    comps: list[AlternatingComponent] = []

    def walk(start_edge: int, start_vertex: int) -> list[int]:
        """Edge sequence from start_vertex through start_edge onward."""
        out = [start_edge]
        seen.add(start_edge)
        x = other(start_edge, start_vertex)
        current = start_edge
        while True:
            nxt = red_at.get(x) if current in blue else blue_at.get(x)
            if nxt is None or nxt in seen:
                return out
            out.append(nxt)
            seen.add(nxt)
            x = other(nxt, x)
            current = nxt

    def degree(x: int) -> int:
        return (1 if x in blue_at else 0) + (1 if x in red_at else 0)

    def edge_seq_to_pairs(seq: list[int]) -> list[tuple[Optional[int], Optional[int]]]:
        pairs: list[tuple[Optional[int], Optional[int]]] = []
        i = 0
        if seq[0] not in blue:
            pairs.append((None, seq[0]))
            i = 1
        while i < len(seq):
            r = seq[i + 1] if i + 1 < len(seq) else None
            pairs.append((seq[i], r))
            i += 2
        return pairs

    def colored(pairs) -> float:
        c = 0.0
        for b, r in pairs:
            if r is not None:
                c += g.weight(r)
            if b is not None:
                c -= g.weight(b)
        return c

    # paths first: start at degree-1 vertices, smaller end-edge id first
    endpoints: list[tuple[int, int]] = []  # (end edge id, vertex)
    for eid in sorted(blue | red):
        u, v, _ = table[eid]
        for x in (u, v):
            if degree(x) == 1:
                endpoints.append((eid, x))
    for eid, x in sorted(endpoints):
        if eid in seen:
            continue
        seq = walk(eid, x)
        pairs = edge_seq_to_pairs(seq)
        comps.append(AlternatingComponent("path", pairs, colored(pairs)))

    # remaining edges lie on cycles; start each at its smallest blue edge
    for eid in sorted(blue):
        if eid in seen:
            continue
        u, v, _ = table[eid]
        start = min(u, v)
        seq = walk(eid, start)
        if len(seq) % 2 != 0:
            raise ContractError("alternating cycle with odd edge count")
        pairs = edge_seq_to_pairs(seq)
        if any(b is None or r is None for b, r in pairs):
            raise ContractError("cycle component with absent slot")
        comps.append(AlternatingComponent("cycle", pairs, colored(pairs)))
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


def prefix_sums(g: Graph, comp: AlternatingComponent) -> list[float]:
    """c(0..k): colored weight of the first i pairs, absent slots contribute 0."""
    sums = [0.0]
    for b, r in comp.pairs:
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


def _rotated(comp: AlternatingComponent, i_min: int) -> AlternatingComponent:
    """Cycle rotated so the pair after the prefix minimum comes first."""
    pairs = comp.pairs[i_min:] + comp.pairs[:i_min]
    return AlternatingComponent("cycle", pairs, comp.colored_weight)


def _units_for_range(g: Graph, comp: AlternatingComponent, lo: int,
                     hi: int) -> list[Group]:
    """Units for pairs lo..hi (1-indexed, inclusive): an initial removal of
    the range's first blue, then per pair [add red, remove next blue].

    A unit is atomic: phase cuts fall only between units, so the transient
    overlap between an added red edge and its not-yet-removed blue
    neighbor stays inside a phase.
    """
    if not (1 <= lo <= hi <= comp.k()):
        raise DataError(f"malformed range {lo}..{hi} for k={comp.k()}")
    units: list[Group] = []
    first_blue = comp.pairs[lo - 1][0]
    if first_blue is not None:
        units.append([("remove", first_blue)])
    for j in range(lo, hi + 1):
        ops: Group = []
        red = comp.pairs[j - 1][1]
        if red is not None:
            ops.append(("add", red))
        if j + 1 <= hi:
            nxt = comp.pairs[j][0]
            if nxt is None:
                raise ContractError("interior pair with absent blue slot")
            ops.append(("remove", nxt))
        if ops:
            units.append(ops)
    return units


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
    max_src_weight = max(source.edges.values(), default=0.0)
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
    surplus = math.fsum(chain(source.edges.values(), map(weight, added),
                              (-weight(eid) for eid in removed))) - w_source
    current = w_source + surplus

    def feed(units: list[Group]) -> None:
        """Append units to phases, holding each op end to the op floor and
        cutting a phase after each unit whose last op removes a light edge,
        and after the last unit."""
        nonlocal current
        ops: Group = []
        for i, unit in enumerate(units, 1):
            for kind, eid in unit:
                w = table[eid][2]
                current += w if kind == "add" else -w
                if current < op_floor:
                    raise ContractError(
                        f"op-end weight {current} below floor {op_floor}")
            ops += unit
            if (kind == "remove" and w < light_threshold) or i == len(units):
                if len(ops) > budget:
                    raise ContractError(
                        f"phase of {len(ops)} ops exceeds budget {budget}")
                phases.append(ops)
                ops = []

    isolated_blues: list[int] = []
    for comp in comps:
        if comp.k() == 1 and comp.pairs[0][1] is None:
            # isolated source-only edge: kept (superset semantics)
            isolated_blues.append(comp.pairs[0][0])
            continue
        sums = prefix_sums(g, comp)
        i_min = prefix_min_index(sums)
        if comp.kind == "cycle":
            if i_min > 0:
                comp = _rotated(comp, i_min)
                sums = prefix_sums(g, comp)
                i_min = prefix_min_index(sums)
            if surplus + sums[i_min] < -tol:
                raise ContractError(
                    "rotated cycle still has negative credited minimum")
            feed(_units_for_range(g, comp, 1, comp.k()))
        elif surplus + sums[i_min] >= 0:
            feed(_units_for_range(g, comp, 1, comp.k()))
        else:
            if not (0 < i_min < comp.k()):
                raise ContractError(f"split index {i_min} not interior")
            feed(_units_for_range(g, comp, i_min + 1, comp.k()))
            feed(_units_for_range(g, comp, 1, i_min))
        surplus += comp.colored_weight
        if surplus < -tol:
            raise ContractError(f"negative running surplus {surplus}")
    if exact:
        # the weight falls from w(target) + w(kept) to w(target) >= w(source)
        for eid in sorted(isolated_blues):
            feed([[("remove", eid)]])
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
    return TransformationScript.from_groups(g, "mwm", eps, groups)


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
