"""Mutable weighted undirected graphs, matchings, spanning forests.

Edge identity is a stable integer id assigned at insertion; a deleted and
re-inserted endpoint pair gets a fresh id. All weights are strictly
positive, finite 64-bit floats; unweighted problems use weight 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


@dataclass(frozen=True, slots=True)
class UpdateEvent:
    """One dynamic update: edge-insert/-delete or vertex-insert/-delete.

    For vertex-insert, ``incident`` lists (neighbor, weight) pairs; weights
    may differ per incident edge. Events are slotted, with no per-event
    dict, since a stream holds one per update step.
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


class DeltaReport:
    """Edges created/destroyed by one applied update, as (eid, u, v, w)."""

    __slots__ = ("added", "removed")

    def __init__(self, added: Optional[list] = None,
                 removed: Optional[list] = None) -> None:
        self.added = [] if added is None else added
        self.removed = [] if removed is None else removed


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
    edges: frozenset[int]   # the solution's edge ids


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
        self._labels: Optional[dict[int, int]] = None   # cached component labels

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
        return self._link(key, u, v, w)

    def _link(self, key: tuple[int, int], u: int, v: int, w: float) -> int:
        """Enter a checked new edge under its pair key; its id."""
        if u not in self._vertices or v not in self._vertices:
            self.ensure_vertex(u)
            self.ensure_vertex(v)
        eid = self._next_id
        self._next_id = eid + 1
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
        """Remove v and its incident edges, in ascending id; those edges as
        (eid, u, v, w)."""
        if v not in self._vertices:
            raise DataError(f"vertex {v} not present")
        removed = []
        for eid in sorted(self._adj.get(v, ())):
            a, b, w = self.remove_edge_id(eid)
            removed.append((eid, a, b, w))
        self._vertices.discard(v)
        self._adj.pop(v, None)
        self._labels = None
        return removed

    def apply_update(self, ev: UpdateEvent) -> DeltaReport:
        """Apply one dynamic update whole, or raise a DataError that names
        the offending element and leave the graph as it was. An edge update
        normalises its pair once; an insert checks as add_edge, and +v
        checks all its incident pairs that way before it writes anything.
        -v cannot fail once its presence check passes."""
        kind, u, v = ev.kind, ev.u, ev.v
        if kind == "+e":
            key = (u, v) if u <= v else (v, u)
            if key in self._by_pair:
                raise DataError(f"edge-insert targets present edge ({u},{v})")
            if u == v:
                raise DataError(f"self-loop at vertex {u} rejected")
            w = checked_weight(ev.w, u, v)
            return DeltaReport([(self._link(key, u, v, w), u, v, w)])
        if kind == "-e":
            eid = self._by_pair.pop((u, v) if u <= v else (v, u), None)
            if eid is None:
                raise DataError(f"edge-delete targets absent edge ({u},{v})")
            a, b, w = self._edges.pop(eid)
            self._adj[a].discard(eid)
            self._adj[b].discard(eid)
            self._labels = None
            return DeltaReport([], [(eid, a, b, w)])
        delta = DeltaReport()
        if kind == "+v":
            if u in self._vertices:
                raise DataError(f"vertex-insert targets present vertex {u}")
            checked: dict[int, float] = {}     # neighbour -> checked weight
            for nbr, w in ev.incident:
                if nbr == u:
                    raise DataError(f"self-loop at vertex {u} rejected")
                w = checked_weight(w, u, nbr)
                if nbr in checked:
                    raise DataError(f"duplicate edge ({u},{nbr})")
                checked[nbr] = w
            self.ensure_vertex(u)
            for nbr, w in checked.items():
                eid = self._link(_pair(u, nbr), u, nbr, w)
                delta.added.append((eid, u, nbr, w))
        elif kind == "-v":
            if u not in self._vertices:
                raise DataError(f"vertex-delete targets absent vertex {u}")
            delta.removed = self.remove_vertex(u)
        else:
            raise DataError(f"unknown update kind {ev.kind!r}")
        return delta

    def _component_labels(self) -> dict[int, int]:
        """Connected-component label per vertex (smallest member id): the
        cached labels, which callers must not change."""
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

    edges maps each id to the graph's own (u, v, w) row, the same tuple,
    so remove reads nothing from the graph and takes out an edge that the
    graph has already deleted as well as a live one.

    weight() is the correctly rounded sum of the edge weights. It reads an
    exact integer total that add and remove keep from the first weight()
    call on, and keeps the float until they change it, so no call costs
    time in the matching's size after the first.
    """

    def __init__(self, g: Graph, edge_ids: Iterable[int] = ()) -> None:
        self.g = g
        # eid -> g's row (u, v, w), insertion-ordered
        self.edges: dict[int, tuple[int, int, float]] = {}
        self.vertex_index: dict[int, int] = {}
        self._total: Optional[int] = None    # in _UNITs, once weight() is asked
        self._weight: Optional[float] = None  # _total / _UNIT, once asked
        # one pass over the edge table, then one whole-set test: every id
        # present, none repeated, 2|M| distinct endpoints. Only when the
        # test fails is the matching rebuilt by add(), which raises add's
        # error for the first faulty id.
        ids = list(edge_ids)
        table, edges, index = g._edges, self.edges, self.vertex_index
        try:
            for eid in ids:
                edges[eid] = row = table[eid]
                index[row[0]] = index[row[1]] = eid
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
        if self._weight is None:
            if self._total is None:
                self._total = sum(map(_units, map(itemgetter(2), self.edges.values())))
            self._weight = self._total / _UNIT
        return self._weight

    def add(self, eid: int) -> None:
        row = self.g.edge(eid)
        u, v, w = row
        if eid in self.edges:
            raise DataError(f"edge {eid} already in matching")
        for x in (u, v):
            if x in self.vertex_index:
                raise DataError(f"vertex {x} already matched by edge {self.vertex_index[x]}")
        self.edges[eid] = row
        self.vertex_index[u] = self.vertex_index[v] = eid
        if self._total is not None:
            self._total += _units(w)
            self._weight = None

    def remove(self, eid: int) -> None:
        row = self.edges.pop(eid, None)
        if row is None:
            raise DataError(f"edge {eid} not in matching")
        u, v, w = row
        del self.vertex_index[u], self.vertex_index[v]
        if self._total is not None:
            self._total -= _units(w)
            self._weight = None


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
    """ok iff no two edges share an endpoint and all edges exist in g; for
    a Matching, also iff its vertex index maps exactly the 2|M| endpoints
    to their edges.

    Endpoints are read from g. One whole-set pass decides: every id is in
    g's edge table, and the 2|M| endpoints are distinct or, for a Matching,
    each indexed to its own edge with no other entry (which makes them
    distinct). Only a failed pass rescans edge by edge, to name the first
    fault: a missing edge or shared endpoint, and only then the index."""
    index = m.vertex_index if isinstance(m, Matching) else None
    eids = list(m.edges if index is not None else m)
    try:
        rows = list(map(g._edges.__getitem__, eids))
    except KeyError:
        pass
    else:
        if index is not None:
            if (len(index) == 2 * len(eids)
                    and list(map(index.get, map(itemgetter(0), rows))) == eids
                    and list(map(index.get, map(itemgetter(1), rows))) == eids):
                return ValidityReport(True)
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
    if index is None:
        return ValidityReport(True)
    # the first endpoint, then index entry, that the index maps elsewhere
    x = next(x for x in chain(seen_vertices, index)
             if index.get(x) != seen_vertices.get(x))
    return ValidityReport(False, "vertex index disagrees", vertex=x,
                          edge=seen_vertices.get(x, index.get(x)))


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
    """Size/total/max stats and edge ids, the total summed left to right in
    s's order; rejects invalid solutions."""
    require_valid(g, "solution", s)
    total = mx = 0.0
    for eid in s.edges:
        w = g.weight(eid)
        total += w
        mx = max(mx, w)
    return SolutionStats(len(s), total, mx, frozenset(s.edges))
