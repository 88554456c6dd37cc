"""Seeded random instance generators shared by tests and the benchmark
harness. Every generator takes an explicit random.Random so runs are
reproducible from a single seed."""

from __future__ import annotations

import random
from bisect import bisect_left

from .graph import Graph, Matching, SpanningForest, UnionFind, UpdateEvent


def random_graph(rng: random.Random, n: int, m: int,
                 w_lo: float = 1.0, w_hi: float = 1.0,
                 connected: bool = False) -> Graph:
    """n vertices, about m distinct edges, uniform weights in [w_lo, w_hi]."""
    g = Graph()
    for v in range(n):
        g.ensure_vertex(v)

    def weight() -> float:
        return w_lo if w_lo == w_hi else rng.uniform(w_lo, w_hi)

    if connected and n > 1:
        order = list(range(n))
        rng.shuffle(order)
        for i in range(1, n):
            g.add_edge(order[i], order[rng.randrange(i)], weight())
    tries = 0
    while g.num_edges() < m and tries < 20 * m + 100:
        tries += 1
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and not g.has_edge(u, v):
            g.add_edge(u, v, weight())
    return g


def random_matching(rng: random.Random, g: Graph,
                    density: float = 0.7) -> Matching:
    """Greedy matching over a shuffled edge order, thinned by density."""
    m = Matching(g)
    eids = list(g.edge_ids())
    rng.shuffle(eids)
    for eid in eids:
        if rng.random() > density:
            continue
        u, v = g.endpoints(eid)
        if m.matched_edge(u) is None and m.matched_edge(v) is None:
            m.add(eid)
    return m


def random_spanning_forest(rng: random.Random, g: Graph) -> SpanningForest:
    """Uniformly shuffled Kruskal skeleton: a random spanning forest."""
    eids = list(g.edge_ids())
    rng.shuffle(eids)
    uf = UnionFind(g.vertices)
    chosen = []
    for eid in eids:
        u, v = g.endpoints(eid)
        if uf.union(u, v):
            chosen.append(eid)
    return SpanningForest(g, chosen)


def random_update_stream(rng: random.Random, n: int, steps: int,
                         delete_prob: float = 0.4,
                         w_lo: float = 1.0, w_hi: float = 1.0,
                         vertex_ops: bool = False) -> list[UpdateEvent]:
    """Mixed insert/delete stream over vertex ids 0..n-1, valid against an
    initially empty graph.

    Present edges and vertices are kept as sorted lists, updated with
    bisect, so each draw picks from the sorted sequence without sorting it.
    """
    present: list[tuple[int, int]] = []   # sorted
    vertices = list(range(n))             # sorted
    events: list[UpdateEvent] = []
    for _ in range(steps):
        roll = rng.random()
        if vertex_ops and roll < 0.02 and len(vertices) > 4:
            v = rng.choice(vertices)
            del vertices[bisect_left(vertices, v)]
            present = [k for k in present if v not in k]
            events.append(UpdateEvent.vertex_delete(v))
            continue
        if vertex_ops and roll < 0.04:
            fresh = (vertices[-1] if vertices else -1) + 1 + rng.randrange(3)
            vertices.append(fresh)   # above every id, so the list stays sorted
            events.append(UpdateEvent.vertex_insert(fresh, ()))
            continue
        if present and roll < delete_prob:
            u, v = rng.choice(present)
            del present[bisect_left(present, (u, v))]
            events.append(UpdateEvent.edge_delete(u, v))
        else:
            if len(vertices) < 2:
                continue
            u, v = rng.sample(vertices, 2)
            u, v = min(u, v), max(u, v)
            i = bisect_left(present, (u, v))
            if i < len(present) and present[i] == (u, v):
                continue
            w = w_lo if w_lo == w_hi else rng.uniform(w_lo, w_hi)
            present.insert(i, (u, v))
            events.append(UpdateEvent.edge_insert(u, v, w))
    return events
