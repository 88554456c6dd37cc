"""Dynamic forest indexes behind one interface.

Both implementations maintain a forest under link/cut with a dummy weight
per edge (1 = shared with the counterpart work tree, 2 = exclusive) and
answer path_edge_outside(u, v): some dummy-2 edge on the u-v path, the one
nearest to u. load(edges) fills an empty index with a whole forest at once.
The naive index walks paths in O(n); the link-cut index runs in O(log n)
amortized on the splay core in _lc_pure and loads a forest in O(n). The
planner always uses the link-cut index; the naive one is the reference
that tests check it against.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Optional

from ._lc_pure import LinkCutCore
from .graph import ContractError, DataError


class NaiveForestIndex:
    """Adjacency dict plus breadth-first path walks."""

    def __init__(self) -> None:
        self._adj: dict[int, dict[int, int]] = {}   # u -> {v: eid}
        self._edges: dict[int, tuple[int, int, int]] = {}  # eid -> (u, v, dummy)

    def link(self, eid: int, u: int, v: int, dummy: int) -> None:
        if eid in self._edges:
            raise DataError(f"edge {eid} already linked")
        if self.connected(u, v):
            raise DataError(f"link({u},{v}) would close a cycle")
        self._edges[eid] = (u, v, dummy)
        self._adj.setdefault(u, {})[v] = eid
        self._adj.setdefault(v, {})[u] = eid

    def load(self, edges: Iterable[tuple[int, int, int, int]]) -> None:
        """Link each (eid, u, v, dummy) into an empty index; on a cycle the
        index is emptied again before DataError propagates."""
        if self._edges:
            raise DataError("load needs an index without edges")
        try:
            for eid, u, v, dummy in edges:
                self.link(eid, u, v, dummy)
        except DataError:
            self._adj.clear()
            self._edges.clear()
            raise

    def cut(self, eid: int) -> None:
        try:
            u, v, _ = self._edges.pop(eid)
        except KeyError:
            raise DataError(f"edge {eid} not in index") from None
        del self._adj[u][v]
        del self._adj[v][u]

    def set_dummy(self, eid: int, dummy: int) -> None:
        u, v, _ = self._edges[eid]
        self._edges[eid] = (u, v, dummy)

    def dummy(self, eid: int) -> int:
        return self._edges[eid][2]

    def _path(self, u: int, v: int) -> Optional[list[int]]:
        if u == v:
            return []
        prev: dict[int, tuple[int, int]] = {u: (u, -1)}
        queue = deque([u])
        while queue:
            x = queue.popleft()
            for y, eid in self._adj.get(x, {}).items():
                if y in prev:
                    continue
                prev[y] = (x, eid)
                if y == v:
                    path = []
                    z = v
                    while z != u:
                        x2, e2 = prev[z]
                        path.append(e2)
                        z = x2
                    path.reverse()
                    return path
                queue.append(y)
        return None

    def connected(self, u: int, v: int) -> bool:
        return self._path(u, v) is not None

    def path_edges(self, u: int, v: int) -> list[int]:
        path = self._path(u, v)
        if path is None:
            raise DataError(f"{u} and {v} are not connected in the index")
        return path

    def path_edge_outside(self, u: int, v: int) -> int:
        for eid in self.path_edges(u, v):
            if self._edges[eid][2] == 2:
                return eid
        raise ContractError(f"no dummy-2 edge on path {u}..{v}")


class LinkCutForestIndex:
    """Link-cut trees with path-max aggregation over dummy weights.

    Edges are their own nodes (value = dummy weight); vertex nodes carry
    value 0 so a path maximum below 2 proves the precondition violated.
    """

    def __init__(self) -> None:
        self._core = LinkCutCore()
        self._vnode: dict[int, int] = {}
        self._enode: dict[int, tuple[int, int, int]] = {}  # eid -> (node, u, v)
        self._node_edge: dict[int, int] = {}               # edge node -> eid
        self._free_edge_nodes: list[int] = []

    def _vertex(self, v: int) -> int:
        node = self._vnode.get(v)
        if node is None:
            node = self._core.new_node(0)
            self._vnode[v] = node
        return node

    def _edge_node(self, dummy: int) -> int:
        if self._free_edge_nodes:
            en = self._free_edge_nodes.pop()
            self._core.set_val(en, dummy)
            return en
        return self._core.new_node(dummy)

    def _register(self, eid: int, en: int, u: int, v: int) -> None:
        self._enode[eid] = (en, u, v)
        self._node_edge[en] = eid

    def link(self, eid: int, u: int, v: int, dummy: int) -> None:
        if eid in self._enode:
            raise DataError(f"edge {eid} already linked")
        en = self._edge_node(dummy)
        if not self._core.link(self._vertex(u), en, self._vertex(v)):
            self._free_edge_nodes.append(en)
            raise DataError(f"link({u},{v}) would close a cycle")
        self._register(eid, en, u, v)

    def load(self, edges: Iterable[tuple[int, int, int, int]]) -> None:
        """Fill an index without edges with the forest of (eid, u, v, dummy)
        in O(n): one depth-first pass orients it, then every node gets its
        tree parent as path-parent, with no splay. A cycle or a repeated
        eid raises DataError before anything changes."""
        if self._enode:
            raise DataError("load needs an index without edges")
        edges = list(edges)
        if len({e[0] for e in edges}) != len(edges):
            raise DataError("load: repeated edge id")
        adj: dict[int, list[tuple[int, int]]] = {}   # u -> [(edge position, v)]
        for i, (eid, u, v, _) in enumerate(edges):
            adj.setdefault(u, []).append((i, v))
            adj.setdefault(v, []).append((i, u))
        # a depth-first pass picks |component| - 1 tree edges per component,
        # so the edges form a forest iff it picks all of them
        below: list[tuple[int, int]] = []   # (edge position, child vertex)
        seen: set[int] = set()
        for root in adj:
            if root in seen:
                continue
            seen.add(root)
            stack = [root]
            while stack:
                x = stack.pop()
                for i, y in adj[x]:
                    if y not in seen:
                        seen.add(y)
                        below.append((i, y))
                        stack.append(y)
        if len(below) != len(edges):
            tree = {i for i, _ in below}
            i = next(i for i in range(len(edges)) if i not in tree)
            eid, u, v, _ = edges[i]
            raise DataError(f"load: edge {eid} ({u},{v}) closes a cycle")
        pairs = []
        for i, y in below:
            eid, u, v, dummy = edges[i]
            en = self._edge_node(dummy)
            self._register(eid, en, u, v)
            pairs.append((en, self._vertex(v if y == u else u)))
            pairs.append((self._vertex(y), en))
        self._core.load(pairs)

    def cut(self, eid: int) -> None:
        entry = self._enode.pop(eid, None)
        if entry is None:
            raise DataError(f"edge {eid} not in index")
        en, u, v = entry
        self._core.cut(self._vnode[u], en, self._vnode[v])
        del self._node_edge[en]
        self._free_edge_nodes.append(en)

    def set_dummy(self, eid: int, dummy: int) -> None:
        en, _, _ = self._enode[eid]
        self._core.set_val(en, dummy)

    def connected(self, u: int, v: int) -> bool:
        if u not in self._vnode or v not in self._vnode:
            return u == v
        return self._core.connected(self._vnode[u], self._vnode[v])

    def path_edge_outside(self, u: int, v: int) -> int:
        if u not in self._vnode or v not in self._vnode:
            raise DataError(f"{u} and {v} are not both in the index")
        hit = self._core.path_max(self._vnode[u], self._vnode[v])
        if hit is None:
            raise DataError(f"{u} and {v} are not connected in the index")
        node, value = hit
        if value < 2:
            raise ContractError(f"no dummy-2 edge on path {u}..{v}")
        return self._node_edge[node]


def make_index(kind: str) -> NaiveForestIndex | LinkCutForestIndex:
    if kind == "naive":
        return NaiveForestIndex()
    if kind == "linkcut":
        return LinkCutForestIndex()
    raise DataError(f"unknown index kind {kind!r} (expected naive|linkcut)")
