"""Seeded input generators for the benchmark workloads.

Every generator returns text in gradmorph's own file formats, so the
program receives only generated inputs, and the same seed gives
byte-identical text. Generation always happens outside the timed regions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from gradmorph.gen import random_graph, random_matching, random_spanning_forest
from gradmorph.graph import Graph, Matching, SpanningForest
from gradmorph.io import emit_edge_set, emit_graph
from gradmorph.oracles import msf_exact

MWM_EPSILONS = (0.05, 0.1, 0.25)
MATCH_BLOCK = 12      # one block holds every (problem, family, epsilon) mix
FOREST_BLOCK = 3      # msf -> random, random -> msf, random -> random


def instance_rng(seed: int, workload: str, index: int) -> random.Random:
    return random.Random(f"{seed}/{workload}/{index}")


@dataclass(frozen=True)
class TransformInput:
    problem: str                 # "mcm" | "mwm" | "msf"
    family: str                  # how the pair was built
    epsilon: float | None
    graph: str
    source: str
    target: str


def _texts(g: Graph, src, tgt) -> tuple[str, str, str]:
    return (emit_graph(g), emit_edge_set(g, src.edge_ids()),
            emit_edge_set(g, tgt.edge_ids()))


def _path_pair(rng: random.Random, n: int) -> tuple[Graph, Matching, Matching]:
    """One long path whose two alternate edge classes are the matchings."""
    order = list(range(n))
    rng.shuffle(order)
    g = Graph()
    for v in range(n):
        g.ensure_vertex(v)
    for a, b in zip(order, order[1:]):
        g.add_edge(a, b, rng.uniform(1.0, 100.0))
    path = [g.edge_id(a, b) for a, b in zip(order, order[1:])]
    return g, Matching(g, path[0::2]), Matching(g, path[1::2])


def match_instance(seed: int, index: int, n: int) -> TransformInput:
    """Instance `index` of match-transform: problems alternate mcm/mwm,
    families alternate sparse random/path-heavy, epsilon cycles."""
    rng = instance_rng(seed, "match-transform", index)
    problem = "mcm" if index % 2 == 0 else "mwm"
    family = "random" if (index // 2) % 2 == 0 else "path"
    eps = MWM_EPSILONS[(index // 4) % 3] if problem == "mwm" else None
    if family == "random":
        g = random_graph(rng, n, 3 * n, 1.0, 100.0)
        src, tgt = random_matching(rng, g), random_matching(rng, g)
    else:
        g, src, tgt = _path_pair(rng, n)
    return TransformInput(problem, family, eps, *_texts(g, src, tgt))


def forest_instance(seed: int, index: int, n: int) -> TransformInput:
    """Instance `index` of forest-transform on a connected random graph."""
    rng = instance_rng(seed, "forest-transform", index)
    g = random_graph(rng, n, int(1.4 * n), 1.0, 100.0, connected=True)
    kind = index % FOREST_BLOCK
    if kind == 0:
        family = "msf->random"
        src, tgt = SpanningForest(g, msf_exact(g)), random_spanning_forest(rng, g)
    elif kind == 1:
        family = "random->msf"
        src, tgt = random_spanning_forest(rng, g), SpanningForest(g, msf_exact(g))
    else:
        family = "random->random"
        src, tgt = random_spanning_forest(rng, g), random_spanning_forest(rng, g)
    return TransformInput("msf", family, None, *_texts(g, src, tgt))


class _IndexedSet:
    """List plus position map: O(1) add, remove and uniform choice."""

    def __init__(self, items=()) -> None:
        self.items = list(items)
        self.pos = {x: i for i, x in enumerate(self.items)}

    def __len__(self) -> int:
        return len(self.items)

    def __contains__(self, x) -> bool:
        return x in self.pos

    def add(self, x) -> None:
        self.pos[x] = len(self.items)
        self.items.append(x)

    def remove(self, x) -> None:
        i = self.pos.pop(x)
        last = self.items.pop()
        if last != x:
            self.items[i] = last
            self.pos[last] = i

    def choice(self, rng: random.Random):
        return self.items[rng.randrange(len(self.items))]


def update_stream(seed: int, workload: str, n: int, warmup: int, churn: int,
                  w_lo: float = 1.0, w_hi: float = 1.0) -> tuple[str, str]:
    """(warm-up text, churn text) in the update-file format.

    The warm-up inserts `warmup` random edges into the n-vertex graph. The
    churn that follows is balanced, so the graph stays near its warm-up
    size: 1% vertex deletions, 1% re-insertions of a deleted vertex with
    as many fresh edges as the mean degree, and otherwise an edge deletion
    with probability E / (E + warmup) for E present edges, else an edge
    insertion. At E = warmup both are equally likely, and the edge count
    reverts to it instead of drifting. Each event costs O(1) expected
    time (a vertex deletion O(degree)), unlike gen.random_update_stream,
    which sorts every present edge on each deletion.
    """
    rng = random.Random(f"{seed}/{workload}/stream")
    present = _IndexedSet(range(n))
    absent = _IndexedSet()
    edges = _IndexedSet()
    adj: dict[int, set[tuple[int, int]]] = {v: set() for v in range(n)}

    def weight() -> float:
        return w_lo if w_lo == w_hi else rng.uniform(w_lo, w_hi)

    def link(u: int, v: int) -> None:
        key = (u, v) if u < v else (v, u)
        edges.add(key)
        adj[u].add(key)
        adj[v].add(key)

    def unlink(key: tuple[int, int]) -> None:
        edges.remove(key)
        adj[key[0]].discard(key)
        adj[key[1]].discard(key)

    def insert_edge(out: list[str]) -> None:
        while True:
            u, v = present.choice(rng), present.choice(rng)
            if u != v and ((u, v) if u < v else (v, u)) not in edges:
                break
        link(u, v)
        out.append(f"+e {u} {v} {weight()!r}")

    warm: list[str] = []
    for _ in range(warmup):
        insert_edge(warm)
    timed: list[str] = []
    for _ in range(churn):
        roll = rng.random()
        if roll < 0.01 and len(present) > 2:
            v = present.choice(rng)
            present.remove(v)
            for key in list(adj[v]):
                unlink(key)
            absent.add(v)
            timed.append(f"-v {v}")
        elif roll < 0.02 and len(absent):
            v = absent.choice(rng)
            absent.remove(v)
            degree = min(len(present),
                         int(2 * len(edges) / len(present) + rng.random()))
            nbrs: set[int] = set()
            while len(nbrs) < degree:
                nbrs.add(present.choice(rng))
            present.add(v)
            flat = []
            for u in sorted(nbrs):
                link(u, v)
                flat.append(f"{u} {weight()!r}")
            timed.append(" ".join([f"+v {v}"] + flat))
        elif rng.random() * (len(edges) + warmup) < len(edges):
            key = edges.choice(rng)
            unlink(key)
            timed.append(f"-e {key[0]} {key[1]}")
        else:
            insert_edge(timed)
    return "\n".join(warm) + "\n", "\n".join(timed) + "\n"
