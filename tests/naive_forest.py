"""The naive forest index: an adjacency dict walked breadth first, O(n) a
path. The reference that tests check `dynforest.LinkCutForestIndex` and the
msf planner against; it answers the same calls with the same witnesses."""

from collections import deque
from typing import Iterable, Optional

from gradmorph.graph import ContractError, DataError


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
