"""Timing harness: planner scaling fits.

The scaling checks time the planners across a size ladder and report the
spread of time / (n log n) (or time / n) ratios; the advertised runtime
shapes hold when the spread stays within a small factor. They also time
the replay of each planned script, at the granularity `gradmorph
transform` uses.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass

from .gen import random_graph, random_spanning_forest
from .graph import Graph, Matching, SpanningForest
from .mcm import plan_mcm
from .msf import plan_msf
from .mwm import plan_mwm_auto
from .oracles import msf_exact
from .script import replay, transform_granularity


@dataclass
class ScalingResult:
    sizes: list[int]
    seconds: list[float]
    ratios: list[float]          # time / model(n)
    spread: float                # max ratio / min ratio
    replay_seconds: list[float]  # replay of each planned script

    def fits_within(self, factor: float) -> bool:
        return self.spread <= factor


def _best_of(fn, repeats: int = 3):
    """(fastest wall time of fn over repeats, fn's last result)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _path_heavy_matching_pair(rng: random.Random, n: int) -> tuple[Graph, Matching, Matching]:
    """Long alternating paths: worst-case-ish component structure."""
    g = Graph()
    for v in range(n):
        g.ensure_vertex(v)
    for v in range(n - 1):
        g.add_edge(v, v + 1, rng.uniform(1.0, 100.0))
    src = Matching(g, [g.edge_id(v, v + 1) for v in range(0, n - 2, 2)])
    tgt = Matching(g, [g.edge_id(v, v + 1) for v in range(1, n - 2, 2)])
    return g, src, tgt


def matching_planner_scaling(problem: str, sizes: list[int],
                             seed: int = 7, eps: float = 0.1) -> ScalingResult:
    rng = random.Random(seed)
    granularity = transform_granularity(problem)
    secs, replay_secs = [], []
    for n in sizes:
        g, src, tgt = _path_heavy_matching_pair(rng, n)
        # a plan of a few ms is at the mercy of host noise: the smaller the
        # instance, the more repeats its best time takes
        repeats = 3 if n >= 100_000 else 9 if n >= 10_000 else 25
        if problem == "mcm":
            t, script = _best_of(lambda: plan_mcm(g, src, tgt), repeats)
        else:
            t, script = _best_of(lambda: plan_mwm_auto(g, src, tgt, eps), repeats)
        secs.append(t)
        replay_secs.append(_best_of(
            lambda: replay(g, src.edge_ids(), script, granularity))[0])
    ratios = [t / n for t, n in zip(secs, sizes)]
    return ScalingResult(sizes, secs, ratios, max(ratios) / min(ratios),
                         replay_secs)


def msf_planner_scaling(sizes: list[int], seed: int = 7) -> ScalingResult:
    rng = random.Random(seed)
    secs, replay_secs = [], []
    for n in sizes:
        g = random_graph(rng, n, int(1.4 * n), 1.0, 100.0, connected=True)
        src = SpanningForest(g, msf_exact(g))
        target = random_spanning_forest(rng, g)
        # best of 3 steadies the short plans; one run of the largest is
        # long enough to time
        repeats = 3 if n < 100_000 else 1
        t, script = _best_of(lambda: plan_msf(g, src, target), repeats)
        secs.append(t)
        replay_secs.append(_best_of(
            lambda: replay(g, src.edge_ids(), script), repeats)[0])
    ratios = [t / (n * math.log(n)) for t, n in zip(secs, sizes)]
    return ScalingResult(sizes, secs, ratios, max(ratios) / min(ratios),
                         replay_secs)
