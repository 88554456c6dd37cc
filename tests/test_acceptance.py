"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Tolerances are pinned here: integer-exact for cardinality and adversary
counts, 1e-9 relative for weighted floors, factor-3 spread for the runtime
shape fits.
"""

import math
import random

from gradmorph.adversary import (ExactPathMaintainer,
                                 run_decremental_mirror,
                                 run_incremental_adversary)
from gradmorph.bench import (matching_planner_scaling, msf_planner_scaling)
from gradmorph.dynforest import make_index
from gradmorph.gen import (random_graph, random_matching,
                           random_spanning_forest, random_update_stream)
from gradmorph.graph import Graph, Matching, SpanningForest, solution_stats
from gradmorph.mcm import plan_mcm
from gradmorph.msf import plan_msf
from gradmorph.mwm import plan_mwm_auto
from gradmorph.oracles import (exhaustive_transform_search,
                               max_matching_exact, max_weight_matching_exact)
from gradmorph.oracles import msf_exact
from gradmorph.script import check_guarantee, phase_budget, replay
from gradmorph.sim import make_inner, run_simulation
from gradmorph.wrapper import WrappedMatching

from naive_forest import NaiveForestIndex

REL_TOL = 1e-9


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num:02d} {name}: {verdict} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def _replay_to_plan_at_largest(scaling) -> float:
    """Replay time over plan time at the ladder's largest size."""
    return scaling.replay_seconds[-1] / scaling.seconds[-1]


def test_criterion_01_mcm_suite():
    rng = random.Random(101)
    worst_margin = None
    for _ in range(1000):
        n = rng.randint(2, 200)
        g = random_graph(rng, n, rng.randint(0, 2 * n))
        src, tgt = random_matching(rng, g), random_matching(rng, g)
        script = plan_mcm(g, src, tgt)
        assert all(len(p) <= 3 for p in script.phases)
        report = replay(g, src.edge_ids(), script, "per-phase")
        res = check_guarantee(report, solution_stats(g, src),
                              solution_stats(g, tgt), "mcm")
        assert res.ok, res.reason
        assert report.final_edges >= set(tgt.edge_ids())
        floor = min(len(src), len(tgt) - 1)
        margin = report.worst_size - floor
        worst_margin = margin if worst_margin is None else min(worst_margin, margin)
    _report(1, "mcm transformation suite", True,
            f"1000 instances, min size margin over floor = {worst_margin}")


def test_criterion_02_mwm_suite():
    rng = random.Random(202)
    checked = 0
    for _ in range(1000):
        n = rng.randint(2, 200)
        g = random_graph(rng, n, rng.randint(0, 2 * n), 1.0, 100.0)
        src, tgt = random_matching(rng, g), random_matching(rng, g)
        src_stats, tgt_stats = solution_stats(g, src), solution_stats(g, tgt)
        for eps in (0.5, 0.1, 0.02):
            script = plan_mwm_auto(g, src, tgt, eps)
            budget = phase_budget("mwm", eps)
            assert all(len(p) <= budget for p in script.phases)
            report = replay(g, src.edge_ids(), script, "per-op")
            res = check_guarantee(report, src_stats, tgt_stats, "mwm", eps)
            assert res.ok, (res.reason, eps)
            final = report.boundaries[-1].weight
            assert final >= tgt_stats.total_weight * (1 - REL_TOL) - REL_TOL
            checked += 1
    _report(2, "mwm transformation suite", True,
            f"{checked} plans across eps in {{0.5, 0.1, 0.02}}")


def test_criterion_03_msf_suite():
    rng = random.Random(303)
    for i in range(500):
        n = rng.randint(2, 500)
        g = random_graph(rng, n, int(1.4 * n), 1.0, 100.0,
                         connected=(i % 2 == 0))
        kruskal = SpanningForest(g, msf_exact(g))
        other = random_spanning_forest(rng, g)
        for a, b in ((kruskal, other), (other, kruskal)):
            script = plan_msf(g, a, b)
            assert all(len(p) == 2 for p in script.phases)
            report = replay(g, a.edge_ids(), script, "per-phase")
            res = check_guarantee(report, solution_stats(g, a),
                                  solution_stats(g, b), "msf")
            assert res.ok, res.reason
            assert report.final_edges == frozenset(b.edge_ids())
    scaling = msf_planner_scaling([1000, 10_000, 100_000], seed=31)
    replay_to_plan = _replay_to_plan_at_largest(scaling)
    _report(3, "msf transformation suite",
            scaling.fits_within(3.0) and replay_to_plan <= 2.0,
            f"500 instances x 2 directions; n log n ratio spread "
            f"{scaling.spread:.2f} over {scaling.sizes}; replay/plan "
            f"{replay_to_plan:.2f} at n={scaling.sizes[-1]}")


def test_criterion_04_index_differential():
    rng = random.Random(404)
    naive = NaiveForestIndex()
    linkcut = make_index("linkcut")
    n = 150
    edges, alive, next_eid, queries, ops = {}, [], 0, 0, 0
    while ops < 100_000:
        ops += 1
        roll = rng.random()
        if roll < 0.42:
            u, v = rng.randrange(n), rng.randrange(n)
            if u == v or naive.connected(u, v):
                continue
            d = rng.choice((1, 2))
            naive.link(next_eid, u, v, d)
            linkcut.link(next_eid, u, v, d)
            edges[next_eid] = (u, v)
            alive.append(next_eid)
            next_eid += 1
        elif roll < 0.58 and alive:
            pos = rng.randrange(len(alive))
            eid = alive[pos]
            alive[pos] = alive[-1]
            alive.pop()
            naive.cut(eid)
            linkcut.cut(eid)
            del edges[eid]
        elif roll < 0.72 and alive:
            eid = rng.choice(alive)
            d = rng.choice((1, 2))
            naive.set_dummy(eid, d)
            linkcut.set_dummy(eid, d)
        elif alive:
            eid = rng.choice(alive)
            u, _ = edges[eid]
            v = rng.randrange(n)
            if u == v or not naive.connected(u, v):
                continue
            path = naive.path_edges(u, v)
            if not any(naive.dummy(e) == 2 for e in path):
                continue
            queries += 1
            expected = naive.path_edge_outside(u, v)
            got = linkcut.path_edge_outside(u, v)
            assert got in path and naive.dummy(got) == 2
            assert got == expected, (got, expected)
    _report(4, "forest index differential", queries > 5000,
            f"100000 ops, {queries} path queries, naive vs linkcut")


def test_criterion_05_wrapper_recourse_and_approximation():
    rng = random.Random(505)
    events = random_update_stream(rng, 500, 100_000, delete_prob=0.42,
                                  vertex_ops=True)
    details = []
    for eps in (0.1, 0.05):
        g = Graph()
        for v in range(500):
            g.ensure_vertex(v)
        wrapped = WrappedMatching(g, make_inner("batch:2.0", g), eps)
        result = run_simulation(g, wrapped, events)
        bound = 16 * math.ceil(1 / eps)
        assert result.max_recourse <= bound, (eps, result.max_recourse)
        details.append(f"eps={eps}: max {result.max_recourse} <= {bound}")
    # control: the bare subject bursts at least once
    g = Graph()
    for v in range(500):
        g.ensure_vertex(v)
    control = run_simulation(g, make_inner("batch:2.0", g), events)
    burst = any(r.recourse_added + r.recourse_removed >= max(2, r.output_size)
                for r in control.rows)
    assert burst, "unwrapped control never burst"
    # small instances with an exact oracle at every step
    worst = 1.0
    for _ in range(20):
        n = rng.randint(8, 16)
        g = Graph()
        for v in range(n):
            g.ensure_vertex(v)
        inner = make_inner("batch:0.5", g)
        wrapped = WrappedMatching(g, inner, 0.1)
        small_events = random_update_stream(rng, n, 400, delete_prob=0.4)
        res = run_simulation(g, wrapped, small_events, oracle_check=True)
        if res.worst_ratio is not None:
            worst = max(worst, res.worst_ratio)
    declared = 1.5 * (1 + 2 * 1.25 * 0.1) ** 2  # beta (1 + 2 eps')^2
    assert worst <= declared + REL_TOL, worst
    _report(5, "wrapper worst-case recourse", True,
            "; ".join(details) + f"; control bursts; oracle worst ratio "
            f"{worst:.3f} <= {declared:.3f}")


def test_criterion_06_weighted_wrapper():
    rng = random.Random(606)
    details = []
    for psi, n, steps in ((2.0, 800, 25_000), (10.0, 2600, 35_000)):
        events = random_update_stream(rng, n, steps, delete_prob=0.38,
                                      w_lo=1.0, w_hi=psi)
        g = Graph()
        for v in range(n):
            g.ensure_vertex(v)
        wrapped = WrappedMatching(g, make_inner("batch:2.0", g), 0.1,
                                  weighted=True, psi=psi)
        result = run_simulation(g, wrapped, events)
        bound = 16 * math.ceil(psi / 0.1)
        assert result.max_recourse <= bound, (psi, result.max_recourse)
        phases = {r.window_phase for r in result.rows}
        assert "second" in phases, "windows never engaged"
        details.append(f"psi={psi}: max {result.max_recourse} <= {bound}")
    # weight floor against the exact weighted oracle on tiny instances
    eps = 0.1
    for psi in (2.0, 10.0):
        for _ in range(8):
            n = rng.randint(6, 12)
            g = Graph()
            for v in range(n):
                g.ensure_vertex(v)
            inner = make_inner("greedy", g)
            wrapped = WrappedMatching(g, inner, eps, weighted=True, psi=psi)
            for ev in random_update_stream(rng, n, 150, delete_prob=0.35,
                                           w_lo=1.0, w_hi=psi):
                delta = g.apply_update(ev)
                wrapped.handle_update(ev, delta)
                opt_w = sum(g.weight(e) for e in max_weight_matching_exact(g))
                floor = opt_w * (1 - eps) / (
                    inner.beta * psi * (1 + 2 * wrapped.window_ratio) ** 2)
                assert wrapped.current_weight() >= floor - REL_TOL
    _report(6, "weighted wrapper", True,
            "; ".join(details) + "; tiny-instance weight floors hold")


def test_criterion_07_stale_matching_approximation():
    rng = random.Random(707)
    done = 0
    while done < 1000:
        n = rng.randint(6, 12)
        warm = rng.randint(8, 40)
        events = random_update_stream(rng, n, warm + 24, delete_prob=0.35)
        g = Graph()
        for ev in events[:warm]:
            g.apply_update(ev)
        frozen = Matching(g)
        for eid in sorted(g.edge_ids()):
            u, v = g.endpoints(eid)
            if frozen.matched_edge(u) is None and frozen.matched_edge(v) is None:
                frozen.add(eid)
        if not frozen:
            continue
        done += 1
        eps_prime = rng.choice((0.5, 0.25))
        k = math.floor(eps_prime * len(frozen))
        for ev in events[warm:warm + k]:
            delta = g.apply_update(ev)
            for eid, _, _, _ in delta.removed:
                if eid in frozen:
                    frozen.remove(eid)
        opt = len(max_matching_exact(g))
        # beta = 2 (maximal); beta (1 + 2 eps') = 4 or 3, integer exact
        factor = 4 if eps_prime == 0.5 else 3
        assert factor * len(frozen) >= opt, (factor, len(frozen), opt)
    _report(7, "stale matching approximation", True,
            "1000 trials, integer-exact factor check")


def test_criterion_08_lower_bound():
    details = []
    for eps in (0.1, 0.05):
        run, _ = run_incremental_adversary(
            lambda g: ExactPathMaintainer(g), eps, 400)
        bound = (1 / 8) / eps
        incr = run.result.mean_recourse
        assert incr >= bound, (eps, incr)
        assert run.complete_fraction() == 1.0
        drun = run_decremental_mirror(
            lambda g: ExactPathMaintainer(g), eps, 400)
        decr = drun.result.mean_recourse
        assert decr >= bound, (eps, "decremental")
        details.append(f"eps={eps}: incr {incr:.2f} / "
                       f"decr {decr:.2f} >= {bound:.2f}")
    _report(8, "recourse lower bound", True, "; ".join(details))


def test_criterion_09_remark_fixtures():
    # (a) unweighted alternating 4-cycle: no 3-change schedule holds size 2
    g = Graph()
    for i in range(4):
        g.add_edge(i, (i + 1) % 4, 1.0)
    blues = {g.edge_id(0, 1), g.edge_id(2, 3)}
    reds = {g.edge_id(1, 2), g.edge_id(3, 0)}
    res_tight = exhaustive_transform_search(g, blues, reds, delta=3, floor=2,
                                            floor_kind="size")
    res_slack = exhaustive_transform_search(g, blues, reds, delta=3, floor=1,
                                            floor_kind="size")
    assert not res_tight.feasible and res_slack.feasible
    # (b) weighted alternating 6-cycle, k=3, A=10, d=1: any schedule dips
    # at least A - k d below w(M), even with phases of 3 ceil(1/eps) + 3 ops
    k, a, d = 3, 10.0, 1.0
    g2 = Graph()
    for i in range(2 * k):
        g2.add_edge(i, (i + 1) % (2 * k), a if i % 2 == 0 else a + d)
    blues2 = {g2.edge_id(2 * i, 2 * i + 1) for i in range(k)}
    reds2 = {g2.edge_id(2 * i + 1, (2 * i + 2) % (2 * k)) for i in range(k)}
    w_src = k * a
    delta_budget = 3 * math.ceil(1 / 0.5) + 3
    res_b = exhaustive_transform_search(
        g2, blues2, reds2, delta=delta_budget,
        floor=w_src - (a - k * d) + 1.0, floor_kind="weight", granularity="op")
    res_b_slack = exhaustive_transform_search(
        g2, blues2, reds2, delta=delta_budget, floor=0.0,
        floor_kind="weight", granularity="op")
    assert not res_b.feasible and res_b_slack.feasible
    _report(9, "impossibility fixtures", True,
            "4-cycle size dip and weighted 6-cycle deficit both certified")


def test_criterion_10_planner_runtime_shape():
    mcm = matching_planner_scaling("mcm", [1000, 10_000, 100_000], seed=41)
    mwm = matching_planner_scaling("mwm", [1000, 10_000, 100_000], seed=42)
    mcm_rp, mwm_rp = _replay_to_plan_at_largest(mcm), _replay_to_plan_at_largest(mwm)
    ok = (mcm.fits_within(3.0) and mwm.fits_within(3.0)
          and mcm_rp <= 2.0 and mwm_rp <= 2.0)
    _report(10, "planner runtime shape", ok,
            f"time/n spread: mcm {mcm.spread:.2f}, mwm {mwm.spread:.2f} "
            f"across {mcm.sizes}; replay/plan at n={mcm.sizes[-1]}: "
            f"mcm {mcm_rp:.2f}, mwm {mwm_rp:.2f}")
