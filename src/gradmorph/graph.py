"""Mutable weighted undirected graphs, matchings, spanning forests.

Edge identity is a stable integer id assigned at insertion; a deleted and
re-inserted endpoint pair gets a fresh id. All weights are strictly
positive, finite 64-bit floats; unweighted problems use weight 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from operator import eq, itemgetter
from typing import Iterable, Iterator, Optional

DEFAULT_TOLERANCE = 1e-9
# Exact weight totals count units of 2**-1074, the smallest positive float,
# so that every float weight is a whole number of units.
_UNIT = 1 << 1074


def slack(scale: float = 1.0) -> float:
    """The one tolerance rule: how far two floats of magnitude scale may
    differ and still compare equal. Absolute (DEFAULT_TOLERANCE) while
    |scale| <= 1, relative (DEFAULT_TOLERANCE * |scale|) beyond."""
    return DEFAULT_TOLERANCE * max(1.0, abs(scale))


class Error(Exception):
    """Base error for the package."""


class DataError(Error):
    """Bad input data or violated operation precondition."""


class ContractError(Error):
    """A component broke an internal invariant or an external contract."""


class BudgetError(DataError):
    """An oracle refused an input beyond its configured budget."""


def checked_weight(w: float, u: int, v: int) -> float:
    """w as a float, if it may weigh edge (u, v): positive and finite."""
    if not (w > 0 and math.isfinite(w)):
        raise DataError(f"weight {w} on edge ({u},{v}) rejected: "
                        f"weights must be positive and finite")
    return float(w)


def _pair(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u <= v else (v, u)


@dataclass(frozen=True)
class UpdateEvent:
    """One dynamic update: edge-insert/-delete or vertex-insert/-delete.

    For vertex-insert, ``incident`` lists (neighbor, weight) pairs; weights
    may differ per incident edge.
    """

    kind: str  # "+e" | "-e" | "+v" | "-v"
    u: int = 0
    v: int = 0
    w: float = 1.0
    incident: tuple[tuple[int, float], ...] = ()

    @staticmethod
    def edge_insert(u: int, v: int, w: float = 1.0) -> "UpdateEvent":
        return UpdateEvent("+e", u, v, w)

    @staticmethod
    def edge_delete(u: int, v: int) -> "UpdateEvent":
        return UpdateEvent("-e", u, v)

    @staticmethod
    def vertex_insert(vid: int, incident: Iterable[tuple[int, float]] = ()) -> "UpdateEvent":
        return UpdateEvent("+v", u=vid, incident=tuple(incident))

    @staticmethod
    def vertex_delete(vid: int) -> "UpdateEvent":
        return UpdateEvent("-v", u=vid)


@dataclass
class DeltaReport:
    """Edges created/destroyed by one applied update."""

    added: list[tuple[int, int, int, float]] = field(default_factory=list)    # (eid, u, v, w)
    removed: list[tuple[int, int, int, float]] = field(default_factory=list)


@dataclass
class ValidityReport:
    ok: bool
    reason: str = ""
    edge: Optional[int] = None
    vertex: Optional[int] = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class SolutionStats:
    size: int
    total_weight: float
    max_edge_weight: float


class Graph:
    """Undirected simple graph with stable integer edge ids.

    Component labels are computed on demand and kept until the next
    mutation; every mutator resets them."""

    def __init__(self) -> None:
        self._vertices: set[int] = set()
        self._edges: dict[int, tuple[int, int, float]] = {}
        self._by_pair: dict[tuple[int, int], int] = {}
        self._adj: dict[int, set[int]] = {}
        self._next_id = 0
        self._labels: Optional[dict[int, int]] = None   # components() cache

    @classmethod
    def from_columns(cls, vertices: list[int], us: list[int], vs: list[int],
                     ws: list[float]) -> Optional["Graph"]:
        """The graph that ensure_vertex on each of vertices, then
        add_edge(us[i], vs[i], ws[i]) for i in order, builds, with the same
        tables, edge ids and iteration orders; None where one of those calls
        would raise. One whole-set check (no self-loop, every weight
        positive and finite, no pair twice) replaces the per-edge ones."""
        m = len(us)
        # a sum of finite weights that overflows fails too: the caller's
        # per-edge fallback then decides
        if m and (any(map(eq, us, vs)) or not min(ws) > 0
                  or not math.isfinite(sum(ws))):
            return None
        g = cls()
        verts = g._vertices
        verts.update(vertices)   # one add per item, as ensure_vertex does
        order = vertices
        if not (verts.issuperset(us) and verts.issuperset(vs)):
            order = list(chain(vertices, chain.from_iterable(zip(us, vs))))
            verts.update(order)
        adj = g._adj = {v: set() for v in dict.fromkeys(order)}
        by_pair = g._by_pair
        for eid, u, v in zip(range(m), us, vs):
            by_pair[(u, v) if u <= v else (v, u)] = eid
            adj[u].add(eid)
            adj[v].add(eid)
        if len(by_pair) != m:
            return None
        g._edges = dict(zip(range(m), zip(us, vs, ws)))
        g._next_id = m
        return g

    # -- introspection ------------------------------------------------

    @property
    def vertices(self) -> set[int]:
        return self._vertices

    def num_vertices(self) -> int:
        return len(self._vertices)

    def num_edges(self) -> int:
        return len(self._edges)

    def edges(self) -> Iterator[tuple[int, int, int, float]]:
        """Yield (eid, u, v, w) in insertion order."""
        for eid, (u, v, w) in self._edges.items():
            yield eid, u, v, w

    def edge_ids(self) -> Iterator[int]:
        return iter(self._edges)

    def has_vertex(self, v: int) -> bool:
        return v in self._vertices

    def has_edge(self, u: int, v: int) -> bool:
        return _pair(u, v) in self._by_pair

    def has_edge_id(self, eid: int) -> bool:
        return eid in self._edges

    def edge_id(self, u: int, v: int) -> int:
        try:
            return self._by_pair[_pair(u, v)]
        except KeyError:
            raise DataError(f"no edge ({u},{v}) in graph") from None

    def endpoints(self, eid: int) -> tuple[int, int]:
        u, v, _ = self.edge(eid)
        return u, v

    def weight(self, eid: int) -> float:
        return self.edge(eid)[2]

    def edge(self, eid: int) -> tuple[int, int, float]:
        try:
            return self._edges[eid]
        except KeyError:
            raise DataError(f"no edge with id {eid}") from None

    def incident(self, v: int) -> set[int]:
        return self._adj.get(v, set())

    # -- mutation -----------------------------------------------------

    def add_vertex(self, v: int) -> None:
        if v in self._vertices:
            raise DataError(f"vertex {v} already present")
        self._vertices.add(v)
        self._adj.setdefault(v, set())
        self._labels = None

    def ensure_vertex(self, v: int) -> None:
        if v not in self._vertices:
            self._vertices.add(v)
            self._adj.setdefault(v, set())
            self._labels = None

    def add_edge(self, u: int, v: int, w: float = 1.0) -> int:
        if u == v:
            raise DataError(f"self-loop at vertex {u} rejected")
        w = checked_weight(w, u, v)
        key = _pair(u, v)
        if key in self._by_pair:
            raise DataError(f"duplicate edge ({u},{v})")
        self.ensure_vertex(u)
        self.ensure_vertex(v)
        eid = self._next_id
        self._next_id += 1
        self._edges[eid] = (u, v, w)
        self._by_pair[key] = eid
        self._adj[u].add(eid)
        self._adj[v].add(eid)
        self._labels = None
        return eid

    def remove_edge_id(self, eid: int) -> tuple[int, int, float]:
        u, v, w = self.edge(eid)
        del self._edges[eid]
        del self._by_pair[_pair(u, v)]
        self._adj[u].discard(eid)
        self._adj[v].discard(eid)
        self._labels = None
        return u, v, w

    def remove_vertex(self, v: int) -> list[tuple[int, int, int, float]]:
        if v not in self._vertices:
            raise DataError(f"vertex {v} not present")
        removed = []
        for eid in sorted(self._adj.get(v, ())):
            a, b, w = self.edge(eid)
            removed.append((eid, a, b, w))
        for eid, a, b, w in removed:
            self.remove_edge_id(eid)
        self._vertices.discard(v)
        self._adj.pop(v, None)
        self._labels = None
        return removed

    def apply_update(self, ev: UpdateEvent) -> DeltaReport:
        """Apply one dynamic update; errors name the offending element."""
        delta = DeltaReport()
        if ev.kind == "+e":
            if self.has_edge(ev.u, ev.v):
                raise DataError(f"edge-insert targets present edge ({ev.u},{ev.v})")
            eid = self.add_edge(ev.u, ev.v, ev.w)
            delta.added.append((eid, *self._edges[eid]))
        elif ev.kind == "-e":
            if not self.has_edge(ev.u, ev.v):
                raise DataError(f"edge-delete targets absent edge ({ev.u},{ev.v})")
            eid = self.edge_id(ev.u, ev.v)
            u, v, w = self.remove_edge_id(eid)
            delta.removed.append((eid, u, v, w))
        elif ev.kind == "+v":
            if self.has_vertex(ev.u):
                raise DataError(f"vertex-insert targets present vertex {ev.u}")
            self.add_vertex(ev.u)
            for nbr, w in ev.incident:
                eid = self.add_edge(ev.u, nbr, w)
                delta.added.append((eid, *self._edges[eid]))
        elif ev.kind == "-v":
            if not self.has_vertex(ev.u):
                raise DataError(f"vertex-delete targets absent vertex {ev.u}")
            for eid, a, b, w in self.remove_vertex(ev.u):
                delta.removed.append((eid, a, b, w))
        else:
            raise DataError(f"unknown update kind {ev.kind!r}")
        return delta

    def components(self) -> dict[int, int]:
        """Connected-component label per vertex (smallest member id); a
        fresh dict, so the caller may change it."""
        return dict(self._component_labels())

    def _component_labels(self) -> dict[int, int]:
        """components() without the copy: the cached labels, which callers
        must not change."""
        if self._labels is not None:
            return self._labels
        label = {}
        for start in self._vertices:
            if start in label:
                continue
            stack, members = [start], [start]
            seen = {start}
            while stack:
                x = stack.pop()
                for eid in self._adj[x]:
                    a, b, _ = self._edges[eid]
                    y = b if a == x else a
                    if y not in seen:
                        seen.add(y)
                        members.append(y)
                        stack.append(y)
            lab = min(members)
            for m in members:
                label[m] = lab
        self._labels = label
        return label


def _units(w: float) -> int:
    """w as an exact whole number of 2**-1074 units."""
    n, d = w.as_integer_ratio()   # d is a power of two, at most 2**1074
    return n << (1075 - d.bit_length())


class Matching:
    """Edge-id set with the matching invariant plus a vertex index.

    weight() is the correctly rounded sum of the edge weights. It reads an
    exact integer total that add, remove, discard_dead and copy keep from
    the first weight() call on, so no call costs time in the matching's
    size after the first.
    """

    def __init__(self, g: Graph, edge_ids: Iterable[int] = ()) -> None:
        self.g = g
        self.edges: dict[int, float] = {}   # eid -> weight, insertion-ordered
        self.vertex_index: dict[int, int] = {}
        self._total: Optional[int] = None    # in _UNITs, once weight() is asked
        # one pass over the edge table, then one whole-set test: every id
        # present, none repeated, 2|M| distinct endpoints. Only when the
        # test fails is the matching rebuilt by add(), which raises add's
        # error for the first faulty id.
        ids = list(edge_ids)
        table, edges, index = g._edges, self.edges, self.vertex_index
        try:
            for eid in ids:
                u, v, w = table[eid]
                edges[eid] = w
                index[u] = index[v] = eid
        except KeyError:
            pass
        if len(edges) != len(ids) or len(index) != 2 * len(ids):
            edges.clear()
            index.clear()
            for eid in ids:
                self.add(eid)

    def __len__(self) -> int:
        return len(self.edges)

    def __contains__(self, eid: int) -> bool:
        return eid in self.edges

    def edge_ids(self) -> list[int]:
        return list(self.edges)

    def matched_edge(self, v: int) -> Optional[int]:
        return self.vertex_index.get(v)

    def weight(self) -> float:
        """Equal to math.fsum of the current edge weights; 0.0 when empty."""
        if self._total is None:
            self._total = sum(map(_units, self.edges.values()))
        return self._total / _UNIT

    def add(self, eid: int) -> None:
        u, v, w = self.g.edge(eid)
        if eid in self.edges:
            raise DataError(f"edge {eid} already in matching")
        for x in (u, v):
            if x in self.vertex_index:
                raise DataError(f"vertex {x} already matched by edge {self.vertex_index[x]}")
        self.edges[eid] = w
        self.vertex_index[u] = eid
        self.vertex_index[v] = eid
        if self._total is not None:
            self._total += _units(w)

    def remove(self, eid: int) -> None:
        if eid not in self.edges:
            raise DataError(f"edge {eid} not in matching")
        u, v, _ = self.g.edge(eid)
        w = self.edges.pop(eid)
        del self.vertex_index[u]
        del self.vertex_index[v]
        if self._total is not None:
            self._total -= _units(w)

    def discard_dead(self, eid: int, endpoints: tuple[int, int]) -> bool:
        """Drop an edge whose graph edge was already deleted. O(1)."""
        w = self.edges.pop(eid, None)
        if w is None:
            return False
        for x in endpoints:
            if self.vertex_index.get(x) == eid:
                del self.vertex_index[x]
        if self._total is not None:
            self._total -= _units(w)
        return True

    def copy(self) -> "Matching":
        m = Matching.__new__(Matching)
        m.g = self.g
        m.edges = dict(self.edges)
        m.vertex_index = dict(self.vertex_index)
        m._total = self._total
        return m


class SpanningForest:
    """Edge-id set meant to be acyclic and span every component of g."""

    def __init__(self, g: Graph, edge_ids: Iterable[int] = ()) -> None:
        self.g = g
        self.edges: dict[int, None] = {}
        for eid in edge_ids:
            if eid in self.edges:
                raise DataError(f"edge {eid} listed twice in forest")
            g.edge(eid)  # existence check
            self.edges[eid] = None

    def __len__(self) -> int:
        return len(self.edges)

    def __contains__(self, eid: int) -> bool:
        return eid in self.edges

    def edge_ids(self) -> list[int]:
        return list(self.edges)


class UnionFind:
    def __init__(self, items: Iterable[int] = ()) -> None:
        self.parent: dict[int, int] = {}
        self.rank: dict[int, int] = {}
        for x in items:
            self.add(x)

    def add(self, x: int) -> None:
        if x not in self.parent:
            self.parent[x] = x
            self.rank[x] = 0

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x: int, y: int) -> bool:
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        if self.rank[rx] < self.rank[ry]:
            rx, ry = ry, rx
        self.parent[ry] = rx
        if self.rank[rx] == self.rank[ry]:
            self.rank[rx] += 1
        return True


# -- validation and stats ---------------------------------------------


def validate_matching(g: Graph, m: Matching | Iterable[int]) -> ValidityReport:
    """ok iff no two edges share an endpoint and all edges exist in g.

    Endpoints are read from g, never from a Matching's own vertex index.
    One whole-set pass decides: every id is in g's edge table and the 2|M|
    endpoints are distinct. Only a failed pass rescans edge by edge, to
    name the first fault."""
    eids = m.edges if isinstance(m, Matching) else list(m)
    try:
        rows = list(map(g._edges.__getitem__, eids))
    except KeyError:
        pass
    else:
        ends = set(map(itemgetter(0), rows))
        ends.update(map(itemgetter(1), rows))
        if len(ends) == 2 * len(rows):
            return ValidityReport(True)
    seen_vertices: dict[int, int] = {}
    for eid in eids:
        if not g.has_edge_id(eid):
            return ValidityReport(False, "missing edge", edge=eid)
        u, v, _ = g.edge(eid)
        for x in (u, v):
            if x in seen_vertices:
                return ValidityReport(False, "shared endpoint", edge=eid, vertex=x)
            seen_vertices[x] = eid
    return ValidityReport(True)


def validate_forest(g: Graph, f: SpanningForest | Iterable[int]) -> ValidityReport:
    """ok iff acyclic and forest components equal graph components.

    One pass over the ids, with a local union-find by rank and no set-up
    per vertex (a root is a vertex without a parent entry), names the first
    missing edge or cycle edge in list order. An acyclic edge set of g
    spans iff |F| = |V| - c(G), with g's component labels computed once per
    version of g. Only when that count fails are the labels compared, with
    the same pass's roots, to name a vertex."""
    labels = g._component_labels()
    eids = f.edge_ids() if isinstance(f, SpanningForest) else list(f)
    rows = g._edges
    parent: dict[int, int] = {}
    rank: dict[int, int] = {}
    for eid in eids:
        row = rows.get(eid)
        if row is None:
            return ValidityReport(False, "missing edge", edge=eid)
        u, v, _ = row
        while u in parent:
            u = parent[u]
        while v in parent:
            v = parent[v]
        if u == v:
            return ValidityReport(False, "cycle", edge=eid)
        ru, rv = rank.get(u, 0), rank.get(v, 0)
        if ru < rv:
            parent[u] = v
        else:
            parent[v] = u
            if ru == rv:
                rank[u] = ru + 1
    if len(eids) == len(labels) - len(set(labels.values())):
        return ValidityReport(True)

    def root(x: int) -> int:
        while x in parent:
            x = parent[x]
        return x

    # a forest component misses its graph component's label (smallest
    # member) exactly when the forest splits that component there
    return ValidityReport(False, "does not span", vertex=next(
        v for v in g.vertices if root(v) != root(labels[v])))


def require_valid(g: Graph, name: str, s: Matching | SpanningForest) -> None:
    """Raise DataError naming s unless it is a valid matching or spanning
    forest of g: the planners' and solution_stats' one validity gate."""
    if isinstance(s, Matching):
        kind, report = "matching", validate_matching(g, s)
    elif isinstance(s, SpanningForest):
        kind, report = "forest", validate_forest(g, s)
    else:
        raise DataError(f"unsupported solution type {type(s).__name__}")
    if not report:
        raise DataError(f"{name} {kind} invalid: {report.reason} "
                        f"(edge={report.edge}, vertex={report.vertex})")


def solution_stats(g: Graph, s: Matching | SpanningForest) -> SolutionStats:
    """Size/total/max stats, the total summed left to right in s's order;
    rejects invalid solutions."""
    require_valid(g, "solution", s)
    total = mx = 0.0
    for eid in s.edges:
        w = g.weight(eid)
        total += w
        mx = max(mx, w)
    return SolutionStats(len(s), total, mx)
