"""Link-cut tree core (splay trees with lazy reversal), after Sleator and
Tarjan 1983.

Nodes are dense integer indices into parallel lists; each carries a value
and a subtree max, so path-maximum queries return a witness node.
dynforest.LinkCutForestIndex builds its forest on one of these cores.
"""

from __future__ import annotations

from typing import Iterable, Optional

NEG = -1


class LinkCutCore:
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
