# cython: language_level=3, boundscheck=False, wraparound=False, cdivision=True
"""Compiled link-cut tree core: same interface as _lc_pure.LinkCutCore."""

from cpython.mem cimport PyMem_Free, PyMem_Malloc, PyMem_Realloc

cdef int NEG = -1


cdef class LinkCutCore:
    cdef int *left
    cdef int *right
    cdef int *parent
    cdef char *flip
    cdef int *val
    cdef int *mx
    cdef int n
    cdef int cap
    cdef int *stack
    cdef int stack_cap

    def __cinit__(self):
        self.cap = 64
        self.n = 0
        self.left = <int *> PyMem_Malloc(self.cap * sizeof(int))
        self.right = <int *> PyMem_Malloc(self.cap * sizeof(int))
        self.parent = <int *> PyMem_Malloc(self.cap * sizeof(int))
        self.flip = <char *> PyMem_Malloc(self.cap * sizeof(char))
        self.val = <int *> PyMem_Malloc(self.cap * sizeof(int))
        self.mx = <int *> PyMem_Malloc(self.cap * sizeof(int))
        self.stack_cap = 64
        self.stack = <int *> PyMem_Malloc(self.stack_cap * sizeof(int))
        if (self.left == NULL or self.right == NULL or self.parent == NULL
                or self.flip == NULL or self.val == NULL or self.mx == NULL
                or self.stack == NULL):
            raise MemoryError()

    def __dealloc__(self):
        PyMem_Free(self.left)
        PyMem_Free(self.right)
        PyMem_Free(self.parent)
        PyMem_Free(self.flip)
        PyMem_Free(self.val)
        PyMem_Free(self.mx)
        PyMem_Free(self.stack)

    cdef void _grow(self) except *:
        cdef int new_cap = self.cap * 2
        self.left = <int *> PyMem_Realloc(self.left, new_cap * sizeof(int))
        self.right = <int *> PyMem_Realloc(self.right, new_cap * sizeof(int))
        self.parent = <int *> PyMem_Realloc(self.parent, new_cap * sizeof(int))
        self.flip = <char *> PyMem_Realloc(self.flip, new_cap * sizeof(char))
        self.val = <int *> PyMem_Realloc(self.val, new_cap * sizeof(int))
        self.mx = <int *> PyMem_Realloc(self.mx, new_cap * sizeof(int))
        if (self.left == NULL or self.right == NULL or self.parent == NULL
                or self.flip == NULL or self.val == NULL or self.mx == NULL):
            raise MemoryError()
        self.cap = new_cap

    def new_node(self, int value) -> int:
        if self.n == self.cap:
            self._grow()
        cdef int idx = self.n
        self.left[idx] = NEG
        self.right[idx] = NEG
        self.parent[idx] = NEG
        self.flip[idx] = 0
        self.val[idx] = value
        self.mx[idx] = value
        self.n += 1
        return idx

    cdef bint _is_root(self, int x):
        cdef int p = self.parent[x]
        return p == NEG or (self.left[p] != x and self.right[p] != x)

    cdef void _push(self, int x):
        cdef int l, r
        if self.flip[x]:
            self.flip[x] = 0
            l = self.left[x]
            r = self.right[x]
            self.left[x] = r
            self.right[x] = l
            if l != NEG:
                self.flip[l] = not self.flip[l]
            if r != NEG:
                self.flip[r] = not self.flip[r]

    cdef void _pull(self, int x):
        cdef int m = self.val[x]
        cdef int l = self.left[x]
        cdef int r = self.right[x]
        if l != NEG and self.mx[l] > m:
            m = self.mx[l]
        if r != NEG and self.mx[r] > m:
            m = self.mx[r]
        self.mx[x] = m

    cdef void _rotate(self, int x):
        cdef int p = self.parent[x]
        cdef int gp = self.parent[p]
        cdef bint p_was_root = self._is_root(p)
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

    cdef void _splay(self, int x) except *:
        cdef int top = 0
        cdef int y = x
        cdef int p, gp
        while True:
            if top == self.stack_cap:
                self.stack_cap *= 2
                self.stack = <int *> PyMem_Realloc(
                    self.stack, self.stack_cap * sizeof(int))
                if self.stack == NULL:
                    raise MemoryError()
            self.stack[top] = y
            top += 1
            if self._is_root(y):
                break
            y = self.parent[y]
        while top > 0:
            top -= 1
            self._push(self.stack[top])
        while not self._is_root(x):
            p = self.parent[x]
            if not self._is_root(p):
                gp = self.parent[p]
                if (self.left[gp] == p) == (self.left[p] == x):
                    self._rotate(p)
                else:
                    self._rotate(x)
            self._rotate(x)

    cdef void _access(self, int x) except *:
        cdef int y
        self._splay(x)
        if self.right[x] != NEG:
            self.right[x] = NEG
            self._pull(x)
        while self.parent[x] != NEG:
            y = self.parent[x]
            self._splay(y)
            self.right[y] = x
            self._pull(y)
            self._splay(x)

    def evert(self, int x):
        self._access(x)
        self.flip[x] = not self.flip[x]
        self._push(x)

    def find_root(self, int x) -> int:
        self._access(x)
        while True:
            self._push(x)
            if self.left[x] == NEG:
                break
            x = self.left[x]
        self._splay(x)
        return x

    def connected(self, int x, int y) -> bool:
        if x == y:
            return True
        return self.find_root(x) == self.find_root(y)

    def link(self, int x, int y):
        self.evert(x)
        self.parent[x] = y

    def cut_adjacent(self, int x, int y):
        self.evert(x)
        self._access(y)
        self._push(y)
        if self.left[y] != x:
            raise RuntimeError("cut_adjacent: nodes are not adjacent")
        self.parent[x] = NEG
        self.left[y] = NEG
        self._pull(y)

    def set_val(self, int x, int value):
        self._splay(x)
        self.val[x] = value
        self._pull(x)

    def path_max(self, int u, int v):
        cdef int m, x, l
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
