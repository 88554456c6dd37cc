import math
import random

import pytest
from hypothesis import settings

from gradmorph.gen import random_graph, random_matching
from gradmorph.graph import ContractError, Graph, Matching

# Derandomized and without an example database, so a red run reproduces
# anywhere; pytest --hypothesis-profile can still pick another profile.
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


def path_graph(n: int, weights=None) -> Graph:
    g = Graph()
    for v in range(n):
        g.ensure_vertex(v)
    for v in range(n - 1):
        w = 1.0 if weights is None else weights[v]
        g.add_edge(v, v + 1, w)
    return g


def cycle_graph(n: int, weights=None) -> Graph:
    g = Graph()
    for v in range(n):
        g.ensure_vertex(v)
    for v in range(n):
        w = 1.0 if weights is None else weights[v]
        g.add_edge(v, (v + 1) % n, w)
    return g


def alternating_cycle_fixture(k: int, blue_w: float, red_w: float):
    """2k-cycle with alternating source/target matchings."""
    g = cycle_graph(2 * k, [blue_w if i % 2 == 0 else red_w for i in range(2 * k)])
    blues = [g.edge_id(2 * i, 2 * i + 1) for i in range(k)]
    reds = [g.edge_id(2 * i + 1, (2 * i + 2) % (2 * k)) for i in range(k)]
    return g, Matching(g, blues), Matching(g, reds)


def audit(g: Graph) -> None:
    """Full-structure invariant check of g; raises ContractError on breach."""
    for eid, (u, v, w) in g._edges.items():
        if u == v:
            raise ContractError(f"self-loop {eid}")
        if u not in g._vertices or v not in g._vertices:
            raise ContractError(f"edge {eid} has missing endpoint")
        if not (w > 0 and math.isfinite(w)):
            raise ContractError(f"edge {eid} has weight {w}, not positive and finite")
        if g._by_pair.get((min(u, v), max(u, v))) != eid:
            raise ContractError(f"pair index out of sync for edge {eid}")
        if eid not in g._adj[u] or eid not in g._adj[v]:
            raise ContractError(f"adjacency out of sync for edge {eid}")
    if len(g._by_pair) != len(g._edges):
        raise ContractError("pair index size mismatch")
    for v, eids in g._adj.items():
        for eid in eids:
            if eid not in g._edges or v not in g._edges[eid][:2]:
                raise ContractError(f"stale adjacency entry {eid} at vertex {v}")


def pinned_matching_pairs():
    """Fixed random graphs with two matchings each, built in shuffled edge
    order, so a matching's order differs from its id order."""
    for seed in range(10):
        rng = random.Random(2000 + seed)
        n = rng.randint(4, 80)
        g = random_graph(rng, n, 2 * n, 1.0, 9.0)
        yield g, random_matching(rng, g), random_matching(rng, g)
