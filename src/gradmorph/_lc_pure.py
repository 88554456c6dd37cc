"""Link-cut tree core (splay trees with lazy reversal), after Sleator and
Tarjan 1983.

Nodes are dense integer indices into parallel lists; each carries a value
and a subtree max, so path-maximum queries return a witness node.
dynforest.LinkCutForestIndex builds its forest on one of these cores.
"""

from __future__ import annotations

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

    def _is_root(self, x: int) -> bool:
        p = self.parent[x]
        return p == NEG or (self.left[p] != x and self.right[p] != x)

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
        p = self.parent[x]
        gp = self.parent[p]
        p_was_root = self._is_root(p)
        if self.left[p] == x:
            self.left[p] = self.right[x]
            if self.right[x] != NEG:
                self.parent[self.right[x]] = p
            self.right[x] = p
        else:
            self.right[p] = self.left[x]
            if self.left[x] != NEG:
                self.parent[self.left[x]] = p
            self.left[x] = p
        self.parent[p] = x
        self.parent[x] = gp
        if not p_was_root:
            if self.left[gp] == p:
                self.left[gp] = x
            else:
                self.right[gp] = x
        self._pull(p)
        self._pull(x)

    def _splay(self, x: int) -> None:
        # push pending flips from the splay root down to x
        stack = [x]
        y = x
        while not self._is_root(y):
            y = self.parent[y]
            stack.append(y)
        while stack:
            self._push(stack.pop())
        while not self._is_root(x):
            p = self.parent[x]
            if not self._is_root(p):
                gp = self.parent[p]
                if (self.left[gp] == p) == (self.left[p] == x):
                    self._rotate(p)
                else:
                    self._rotate(x)
            self._rotate(x)

    def _access(self, x: int) -> None:
        self._splay(x)
        if self.right[x] != NEG:
            self.right[x] = NEG  # detached child keeps x as path-parent
            self._pull(x)
        while self.parent[x] != NEG:
            y = self.parent[x]
            self._splay(y)
            self.right[y] = x
            self._pull(y)
            self._splay(x)

    # -- public surface ---------------------------------------------------

    def evert(self, x: int) -> None:
        self._access(x)
        self.flip[x] = not self.flip[x]
        self._push(x)

    def find_root(self, x: int) -> int:
        self._access(x)
        while True:
            self._push(x)
            if self.left[x] == NEG:
                break
            x = self.left[x]
        self._splay(x)
        return x

    def connected(self, x: int, y: int) -> bool:
        if x == y:
            return True
        return self.find_root(x) == self.find_root(y)

    def link(self, x: int, y: int) -> None:
        """Attach x's tree under y; x becomes the root of its tree first."""
        self.evert(x)
        self.parent[x] = y

    def cut_adjacent(self, x: int, y: int) -> None:
        """Remove the tree edge between adjacent nodes x and y."""
        self.evert(x)
        self._access(y)
        # path is exactly [x, y]: y is splay root, x its left child
        self._push(y)
        if self.left[y] != x:
            raise RuntimeError("cut_adjacent: nodes are not adjacent")
        self.parent[x] = NEG
        self.left[y] = NEG
        self._pull(y)

    def set_val(self, x: int, val: int) -> None:
        self._splay(x)
        self.val[x] = val
        self._pull(x)

    def path_max(self, u: int, v: int) -> tuple[int, int]:
        """(node, value) of the leftmost maximum-value node on the u..v
        path, left meaning nearest to u."""
        self.evert(u)
        self._access(v)
        m = self.mx[v]
        x = v
        while True:
            self._push(x)
            l = self.left[x]
            if l != NEG and self.mx[l] == m:
                x = l
            elif self.val[x] == m:
                break
            else:
                x = self.right[x]
        self._splay(x)
        return x, m
