"""Brute-force exact solvers for the `oracle` command, `simulate
--oracle-check`, `bench` and the property suites.

Deliberately independent of the planners: bitmask DP for exact matchings,
Kruskal for forests, and breadth-first state search for transformation
reachability. Budgets refuse oversized inputs instead of degrading. The
full-rescan replay that tests check the verifier against lives beside
them, in tests/replay_reference.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .graph import BudgetError, DataError, Graph, UnionFind, slack


MAX_VERTICES_MATCHING = 16       # exact matching oracles
MAX_VERTICES_SEARCH = 20         # exhaustive_transform_search
MAX_SOLUTION_EDGES_SEARCH = 8    # |source| + |target| in that search


def _matching_dp(g: Graph, weighted: bool) -> list[int]:
    """Optimal matching via DP over vertex subsets.

    Returns edge ids; values within slack of the best so far tie, and ties
    are broken by the lexicographically smallest sorted edge-id tuple.
    """
    verts = sorted(g.vertices)
    n = len(verts)
    if n > MAX_VERTICES_MATCHING:
        raise BudgetError(f"matching oracle budget exceeded: {n} > "
                          f"{MAX_VERTICES_MATCHING} vertices")
    idx = {v: i for i, v in enumerate(verts)}
    # neighbor lists as (other-vertex bit, eid, weight), eid ascending
    nbrs: list[list[tuple[int, int, float]]] = [[] for _ in range(n)]
    for eid in sorted(g.edge_ids()):
        u, v, w = g.edge(eid)
        nbrs[idx[u]].append((idx[v], eid, w))
        nbrs[idx[v]].append((idx[u], eid, w))

    # value = size (unweighted) or total weight; memo over free-vertex mask
    memo: dict[int, tuple[float, tuple[int, ...]]] = {}

    def best(mask: int) -> tuple[float, tuple[int, ...]]:
        if mask == 0:
            return 0.0, ()
        cached = memo.get(mask)
        if cached is not None:
            return cached
        i = (mask & -mask).bit_length() - 1
        rest = mask & ~(1 << i)
        result = best(rest)  # leave vertex i unmatched
        for j, eid, w in nbrs[i]:
            if mask >> j & 1:
                val, ids = best(rest & ~(1 << j))
                gain = w if weighted else 1.0
                cand = (val + gain, tuple(sorted(ids + (eid,))))
                tol = slack(result[0])
                if cand[0] > result[0] + tol or (
                        abs(cand[0] - result[0]) <= tol and cand[1] < result[1]):
                    result = cand
        memo[mask] = result
        return result

    _, ids = best((1 << n) - 1)
    return list(ids)


def max_matching_exact(g: Graph) -> list[int]:
    """Maximum-cardinality matching edge ids, deterministic tie-break."""
    return _matching_dp(g, weighted=False)


def max_weight_matching_exact(g: Graph) -> list[int]:
    """Maximum-weight matching edge ids, deterministic tie-break."""
    return _matching_dp(g, weighted=True)


def msf_exact(g: Graph) -> list[int]:
    """Kruskal minimum spanning forest; ties broken by edge id."""
    edges = sorted(((w, eid, u, v) for eid, u, v, w in g.edges()))
    uf = UnionFind(g.vertices)
    out = []
    for w, eid, u, v in edges:
        if uf.union(u, v):
            out.append(eid)
    return out


@dataclass
class SearchResult:
    feasible: bool
    path: Optional[list[frozenset[int]]] = None   # states from source onward
    explored: int = 0
    note: str = ""


def _all_matchings(g: Graph) -> list[frozenset[int]]:
    eids = sorted(g.edge_ids())
    out: list[frozenset[int]] = []

    def rec(i: int, used: set[int], chosen: list[int]) -> None:
        out.append(frozenset(chosen))
        for j in range(i, len(eids)):
            eid = eids[j]
            u, v, _ = g.edge(eid)
            if u in used or v in used:
                continue
            chosen.append(eid)
            used.update((u, v))
            rec(j + 1, used, chosen)
            chosen.pop()
            used.difference_update((u, v))

    rec(0, set(), [])
    return sorted(set(out), key=lambda s: tuple(sorted(s)))


def exhaustive_transform_search(
    g: Graph,
    source: frozenset[int] | set[int],
    target: frozenset[int] | set[int],
    delta: int,
    floor: float,
    floor_kind: str = "size",
    granularity: str = "phase",
) -> SearchResult:
    """Is there a transformation from source to a superset of target where
    every boundary state has quality >= floor?

    granularity "phase": one step changes up to ``delta`` edges and the
    floor applies at phase ends. granularity "op": one step changes a
    single edge and the floor applies at every state (this subsumes every
    possible phase partition, so infeasibility certifies a forced dip).
    """
    source = frozenset(source)
    target = frozenset(target)
    if len(source) + len(target) > MAX_SOLUTION_EDGES_SEARCH:
        raise BudgetError("transform search budget exceeded: "
                          f"|source|+|target| = {len(source) + len(target)}")
    if g.num_vertices() > MAX_VERTICES_SEARCH:
        raise BudgetError(f"transform search budget exceeded: "
                          f"{g.num_vertices()} vertices")
    if granularity not in ("phase", "op"):
        raise DataError(f"unknown granularity {granularity!r}")

    def quality(state: frozenset[int]) -> float:
        if floor_kind == "size":
            return float(len(state))
        if floor_kind == "weight":
            return sum(g.weight(eid) for eid in state)
        raise DataError(f"unknown floor kind {floor_kind!r}")

    states = _all_matchings(g)
    ok_states = [s for s in states if quality(s) >= floor or s == source]
    index = {s: i for i, s in enumerate(ok_states)}
    if source not in index:
        raise DataError("source is not a matching of g")

    def is_goal(s: frozenset[int]) -> bool:
        return target <= s

    max_change = 1 if granularity == "op" else delta
    from collections import deque

    prev: dict[int, int] = {index[source]: -1}
    queue = deque([index[source]])
    explored = 0
    goal_idx = None
    while queue:
        ci = queue.popleft()
        cur = ok_states[ci]
        explored += 1
        if is_goal(cur):
            goal_idx = ci
            break
        for ni, nxt in enumerate(ok_states):
            if ni in prev or nxt == cur:
                continue
            if len(cur ^ nxt) <= max_change:
                prev[ni] = ci
                queue.append(ni)
    if goal_idx is None:
        return SearchResult(False, None, explored,
                            note=f"no schedule keeps {floor_kind} >= {floor}")
    chain = []
    i = goal_idx
    while i != -1:
        chain.append(ok_states[i])
        i = prev[i]
    chain.reverse()
    return SearchResult(True, chain, explored)
