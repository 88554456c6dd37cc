"""The dynamic forest index of the msf planner.

LinkCutForestIndex maintains a forest under link/cut with a dummy weight
per edge (1 = shared with the counterpart work tree, 2 = exclusive) and
answers path_edge_outside(u, v): some dummy-2 edge on the u-v path, the one
nearest to u. load(edges) fills an empty index with a whole forest at once.
It is a link-cut tree (Sleator and Tarjan 1983): splay trees with lazy
reversal, O(log n) amortized a call, and a forest loads in O(n). Each
linked or loaded edge gets a new node, and a cut leaves its node unused:
an index lives for one plan_tree, so it holds O(n + k) nodes for k links.
The tests check it against a naive index that walks paths in O(n)
(tests/naive_forest.py). The replay verifier uses no index, so it stays
independent of the planner it checks.
"""

from __future__ import annotations

from typing import Iterable

from .graph import ContractError, DataError


INDEX_KIND = "linkcut"   # the index the msf planner builds, as manifests record it
NEG = -1


class LinkCutForestIndex:
    """Link-cut trees with path-max aggregation over dummy weights.

    Nodes are dense integer indices into parallel lists; each carries a
    value and a subtree max, so a path maximum returns a witness node.
    Edges are their own nodes (value = dummy weight); vertex nodes carry
    value 0 so a path maximum below 2 proves the precondition violated.
    """

    __slots__ = ("left", "right", "parent", "flip", "val", "mx",
                 "_vnode", "_enode", "_node_edge")

    def __init__(self) -> None:
        self.left: list[int] = []
        self.right: list[int] = []
        self.parent: list[int] = []
        self.flip: list[bool] = []
        self.val: list[int] = []
        self.mx: list[int] = []
        self._vnode: dict[int, int] = {}
        self._enode: dict[int, tuple[int, int, int]] = {}  # eid -> (node, u, v)
        self._node_edge: dict[int, int] = {}               # edge node -> eid

    def _new_node(self, val: int) -> int:
        idx = len(self.val)
        self.left.append(NEG)
        self.right.append(NEG)
        self.parent.append(NEG)
        self.flip.append(False)
        self.val.append(val)
        self.mx.append(val)
        return idx

    def _vertex(self, v: int) -> int:
        node = self._vnode.get(v)
        if node is None:
            node = self._new_node(0)
            self._vnode[v] = node
        return node

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

    def _evert(self, x: int) -> None:
        self._access(x)
        self.flip[x] = not self.flip[x]
        self._push(x)

    def _connected(self, x: int, y: int) -> bool:
        """Whether nodes x and y share a tree. Leaves x the root of its tree,
        and when they do not, of its splay tree too."""
        self._evert(x)
        self._access(y)
        # x was a splay root without path-parent; access(y) pulls it into
        # y's splay tree exactly when the root..y path starts at x
        return x == y or self.parent[x] != NEG

    # -- the index --------------------------------------------------------

    def link(self, eid: int, u: int, v: int, dummy: int) -> None:
        """Link u and v by edge node eid, unless that closes a cycle."""
        if eid in self._enode:
            raise DataError(f"edge {eid} already linked")
        en = self._new_node(dummy)
        x, y = self._vertex(u), self._vertex(v)
        if self._connected(x, y):
            raise DataError(f"link({u},{v}) would close a cycle")
        # _connected left x the root of its tree and of its splay tree
        self.parent[x] = en
        self.parent[en] = y
        self._enode[eid] = (en, u, v)
        self._node_edge[en] = eid

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
        # each child vertex y is a one-node preferred path whose path-parent
        # is its edge node, and that node's path-parent is y's tree parent
        parent = self.parent
        for i, y in below:
            eid, u, v, dummy = edges[i]
            en = self._new_node(dummy)
            self._enode[eid] = (en, u, v)
            self._node_edge[en] = eid
            parent[en] = self._vertex(v if y == u else u)
            parent[self._vertex(y)] = en

    def cut(self, eid: int) -> None:
        """Remove the path u - eid - v, leaving the edge node unused."""
        entry = self._enode.pop(eid, None)
        if entry is None:
            raise DataError(f"edge {eid} not in index")
        en, u, v = entry
        x, y = self._vnode[u], self._vnode[v]
        left, right, parent = self.left, self.right, self.parent
        self._evert(x)
        self._access(y)
        self._splay(en)
        # the splay tree holds the path x, en, y in order, so en roots it
        # with leaf children x and y
        if not (left[en] == x and right[en] == y and left[x] == right[x] == NEG
                and left[y] == right[y] == NEG):
            raise ContractError(f"cut: edge {eid} ({u},{v}) is not a path "
                                "of the forest")
        left[en] = right[en] = parent[x] = parent[y] = NEG
        self.mx[en] = self.val[en]
        del self._node_edge[en]

    def set_dummy(self, eid: int, dummy: int) -> None:
        en = self._enode[eid][0]
        self._splay(en)
        self.val[en] = dummy
        self._pull(en)

    def path_edge_outside(self, u: int, v: int) -> int:
        """The dummy-2 edge on the u..v path nearest to u: the leftmost
        maximum-value node of the path's splay tree."""
        vnode = self._vnode
        if u not in vnode or v not in vnode:
            raise DataError(f"{u} and {v} are not both in the index")
        x = vnode[v]
        if not self._connected(vnode[u], x):
            raise DataError(f"{u} and {v} are not connected in the index")
        left, right, val, mx = self.left, self.right, self.val, self.mx
        push = self._push
        m = mx[x]
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
        if m < 2:
            raise ContractError(f"no dummy-2 edge on path {u}..{v}")
        return self._node_edge[x]


def make_index(kind: str) -> LinkCutForestIndex:
    if kind != "linkcut":
        raise DataError(f"unknown index kind {kind!r} (expected linkcut)")
    return LinkCutForestIndex()
