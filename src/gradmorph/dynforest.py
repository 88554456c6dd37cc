"""The dynamic forest index of the msf planner.

LinkCutForestIndex maintains a forest under link/cut with a dummy weight
per edge (1 = shared with the counterpart work tree, 2 = exclusive) and
answers path_edge_outside(u, v): some dummy-2 edge on the u-v path, the one
nearest to u. load(edges) fills an empty index with a whole forest at once.
It runs in O(log n) amortized on the splay core LinkCutCore (Sleator and
Tarjan 1983) and loads a forest in O(n). Each linked or loaded edge gets
a new node, and a cut leaves its node unused: an index lives for one
plan_tree, so it holds O(n + k) nodes for k links. The tests check it
against a naive index that walks paths in O(n) (tests/naive_forest.py).
The replay verifier uses no index, so it stays independent of the
planner it checks.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .graph import ContractError, DataError


NEG = -1


class LinkCutCore:
    """Link-cut trees: splay trees with lazy reversal. Nodes are dense
    integer indices into parallel lists; each carries a value and a
    subtree max, so path-maximum queries return a witness node.
    LinkCutForestIndex builds its forest on one of these cores."""

    __slots__ = ("left", "right", "parent", "flip", "val", "mx")

    def __init__(self) -> None:
        self.left: list[int] = []
        self.right: list[int] = []
        self.parent: list[int] = []
        self.flip: list[bool] = []
        self.val: list[int] = []
        self.mx: list[int] = []

    def new_node(self, val: int) -> int:
        idx = len(self.val)
        self.left.append(NEG)
        self.right.append(NEG)
        self.parent.append(NEG)
        self.flip.append(False)
        self.val.append(val)
        self.mx.append(val)
        return idx

    # -- splay plumbing -------------------------------------------------

    def _push(self, x: int) -> None:
        if self.flip[x]:
            self.flip[x] = False
            l, r = self.left[x], self.right[x]
            self.left[x], self.right[x] = r, l
            if l != NEG:
                self.flip[l] = not self.flip[l]
            if r != NEG:
                self.flip[r] = not self.flip[r]

    def _pull(self, x: int) -> None:
        m = self.val[x]
        l, r = self.left[x], self.right[x]
        if l != NEG and self.mx[l] > m:
            m = self.mx[l]
        if r != NEG and self.mx[r] > m:
            m = self.mx[r]
        self.mx[x] = m

    def _rotate(self, x: int) -> None:
        left, right, parent = self.left, self.right, self.parent
        val, mx = self.val, self.mx
        p = parent[x]
        gp = parent[p]
        if left[p] == x:
            b = right[x]
            left[p] = b
            right[x] = p
        else:
            b = left[x]
            right[p] = b
            left[x] = p
        if b != NEG:
            parent[b] = p
        parent[p] = x
        parent[x] = gp
        if gp != NEG:   # a path-parent pointer stays as it is
            if left[gp] == p:
                left[gp] = x
            elif right[gp] == p:
                right[gp] = x
        # x now roots the nodes p rooted, so it takes p's old max
        m_old = mx[p]
        m = val[p]
        l, r = left[p], right[p]
        if l != NEG and mx[l] > m:
            m = mx[l]
        if r != NEG and mx[r] > m:
            m = mx[r]
        mx[p] = m
        mx[x] = m_old

    def _splay(self, x: int) -> None:
        left, right, parent, flip = self.left, self.right, self.parent, self.flip
        # push pending flips from the splay root down to x
        stack = [x]
        y = x
        while True:
            p = parent[y]
            if p == NEG or (left[p] != y and right[p] != y):
                break
            y = p
            stack.append(y)
        for y in reversed(stack):
            if flip[y]:
                flip[y] = False
                l, r = left[y], right[y]
                left[y], right[y] = r, l
                if l != NEG:
                    flip[l] = not flip[l]
                if r != NEG:
                    flip[r] = not flip[r]
        # x sits len(stack) - 1 levels deep: double steps, then one zig if odd
        rotate = self._rotate
        depth = len(stack) - 1
        for _ in range(depth // 2):
            p = parent[x]
            gp = parent[p]
            rotate(p if (left[gp] == p) == (left[p] == x) else x)
            rotate(x)
        if depth % 2:
            rotate(x)

    def _access(self, x: int) -> None:
        """Make the root..x path preferred; x ends as the root of its
        splay tree, with no right child and no path-parent."""
        splay, right, parent = self._splay, self.right, self.parent
        last = NEG
        y = x
        while y != NEG:
            splay(y)
            right[y] = last   # a detached child keeps y as path-parent
            self._pull(y)
            last = y
            y = parent[y]
        splay(x)

    # -- public surface ---------------------------------------------------

    def evert(self, x: int) -> None:
        self._access(x)
        self.flip[x] = not self.flip[x]
        self._push(x)

    def connected(self, x: int, y: int) -> bool:
        """Whether x and y share a tree. Leaves x everted: it is the root of
        its tree, and when the answer is False also of its splay tree."""
        self.evert(x)
        self._access(y)
        # x was a splay root without path-parent; access(y) pulls it into
        # y's splay tree exactly when the root..y path starts at x
        return x == y or self.parent[x] != NEG

    def link(self, x: int, m: int, y: int) -> bool:
        """Join the trees of x and y through the one-node tree m, as the
        path x - m - y, unless x and y are already connected. Returns
        whether it joined them; on False nothing changed but the roots."""
        if self.connected(x, y):
            return False
        # connected left x the root of its tree and of its splay tree
        self.parent[x] = m
        self.parent[m] = y
        return True

    def load(self, pairs: Iterable[tuple[int, int]]) -> None:
        """Bulk link: for each (x, p), make p the tree parent of x. Every x
        must be a one-node tree, and the pairs must orient a forest towards
        its roots. Each x stays a one-node preferred path whose
        path-parent is p, so no splay runs."""
        parent = self.parent
        for x, p in pairs:
            parent[x] = p

    def cut(self, x: int, m: int, y: int) -> None:
        """Remove the path x - m - y, leaving m a one-node tree."""
        left, right, parent = self.left, self.right, self.parent
        self.evert(x)
        self._access(y)
        self._splay(m)
        # the splay tree holds the path x, m, y in order, so m roots it
        # with leaf children x and y
        if not (left[m] == x and right[m] == y and left[x] == right[x] == NEG
                and left[y] == right[y] == NEG):
            raise RuntimeError("cut: x - m - y is not a path of the forest")
        left[m] = right[m] = parent[x] = parent[y] = NEG
        self.mx[m] = self.val[m]

    def set_val(self, x: int, val: int) -> None:
        self._splay(x)
        self.val[x] = val
        self._pull(x)

    def path_max(self, u: int, v: int) -> Optional[tuple[int, int]]:
        """(node, value) of the leftmost maximum-value node on the u..v
        path, left meaning nearest to u; None when u and v are in
        different trees."""
        if not self.connected(u, v):
            return None
        left, right, val, mx = self.left, self.right, self.val, self.mx
        push = self._push
        m = mx[v]
        x = v
        while True:
            push(x)
            l = left[x]
            if l != NEG and mx[l] == m:
                x = l
            elif val[x] == m:
                break
            else:
                x = right[x]
        self._splay(x)
        return x, m


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

    def _vertex(self, v: int) -> int:
        node = self._vnode.get(v)
        if node is None:
            node = self._core.new_node(0)
            self._vnode[v] = node
        return node

    def _register(self, eid: int, en: int, u: int, v: int) -> None:
        self._enode[eid] = (en, u, v)
        self._node_edge[en] = eid

    def link(self, eid: int, u: int, v: int, dummy: int) -> None:
        if eid in self._enode:
            raise DataError(f"edge {eid} already linked")
        en = self._core.new_node(dummy)
        if not self._core.link(self._vertex(u), en, self._vertex(v)):
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
            en = self._core.new_node(dummy)
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


def make_index(kind: str) -> LinkCutForestIndex:
    if kind != "linkcut":
        raise DataError(f"unknown index kind {kind!r} (expected linkcut)")
    return LinkCutForestIndex()
