import hashlib
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gradmorph.graph
import gradmorph.mwm
import gradmorph.wrapper
from gradmorph.gen import random_graph, random_matching, random_spanning_forest
from gradmorph.graph import (ContractError, DataError, Graph, Matching,
                             SpanningForest, solution_stats)
from gradmorph.mcm import Exchange, plan_mcm, target_only_ids
from gradmorph.msf import plan_msf
from gradmorph.mwm import (AlternatingComponent, _decompose, order_components,
                           plan_mwm_auto, plan_mwm_groups, prefix_min_index,
                           prefix_sums)
from gradmorph.oracles import msf_exact
from gradmorph.script import (TransformationScript, check_guarantee,
                              phase_budget, replay)

from conftest import alternating_cycle_fixture, path_graph, pinned_matching_pairs


def _pair_path(weights):
    """Graph: path alternating blue/red with the given weights, plus the
    source/target matchings; weights = [b1, r1, b2, r2, ...]."""
    g = Graph()
    for i, w in enumerate(weights):
        g.add_edge(i, i + 1, w)
    blues = [g.edge_id(i, i + 1) for i in range(0, len(weights), 2)]
    reds = [g.edge_id(i, i + 1) for i in range(1, len(weights), 2)]
    return g, Matching(g, blues), Matching(g, reds)


def decompose(g, source, target):
    """The alternating components of two valid matchings: source-only ids
    blue, target-only ids red."""
    s, t = source.edges.keys(), target.edges.keys()
    return _decompose(g, s - t, t - s)


def test_decompose_identity_and_shared_exclusion():
    g = path_graph(6)
    shared = g.edge_id(0, 1)
    src = Matching(g, [shared, g.edge_id(2, 3)])
    tgt = Matching(g, [shared, g.edge_id(3, 4)])
    comps = decompose(g, src, tgt)
    assert len(comps) == 1
    assert shared not in comps[0].run
    assert decompose(g, src, src) == []


def test_decompose_degrees_at_most_two(rng):
    # brute oracle: every H vertex has <= 1 blue and <= 1 red; components
    # partition H exactly
    for _ in range(80):
        g = random_graph(rng, rng.randint(2, 14), rng.randint(0, 24), 1.0, 9.0)
        src, tgt = random_matching(rng, g), random_matching(rng, g)
        comps = decompose(g, src, tgt)
        sym = set(src.edge_ids()) ^ set(tgt.edge_ids())
        seen = [e for comp in comps for e in comp.run if e is not None]
        assert sorted(seen) == sorted(sym)
        for comp in comps:
            run = comp.run
            assert len(run) == 2 * comp.k() > 0
            # blue (source-only) ids at even positions, red at odd ones
            assert all(e in src.edges for e in run[::2] if e is not None)
            assert all(e in tgt.edges for e in run[1::2] if e is not None)
            # None only at a path's ends, never in a cycle
            inner = run if comp.kind == "cycle" else run[1:-1]
            assert None not in inner
            assert comp.colored_weight == pytest.approx(
                sum(g.weight(r) for r in run[1::2] if r is not None)
                - sum(g.weight(b) for b in run[::2] if b is not None))


def test_decompose_lists_paths_then_cycles():
    # a 4-cycle with ids 0-3 and a path with ids 4-5: the path comes first
    g = Graph()
    for u, v in ((0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6)):
        g.add_edge(u, v, 1.0)
    comps = decompose(g, Matching(g, [0, 2, 4]), Matching(g, [1, 3, 5]))
    assert [(c.kind, c.run) for c in comps] == [("path", [4, 5]),
                                                ("cycle", [0, 1, 2, 3])]


def test_two_disjoint_paths_two_components():
    g = Graph()
    g.add_edge(0, 1, 1.0)
    g.add_edge(1, 2, 2.0)
    g.add_edge(10, 11, 1.0)
    g.add_edge(11, 12, 2.0)
    src = Matching(g, [g.edge_id(0, 1), g.edge_id(10, 11)])
    tgt = Matching(g, [g.edge_id(1, 2), g.edge_id(11, 12)])
    comps = decompose(g, src, tgt)
    assert len(comps) == 2 and all(c.kind == "path" for c in comps)


def _fake_comp(colored):
    return AlternatingComponent("path", [], colored)


def test_order_components_rule():
    ordered = order_components([_fake_comp(-3.0), _fake_comp(5.0)])
    assert [c.colored_weight for c in ordered] == [5.0, -3.0]
    ordered = order_components([_fake_comp(1.0), _fake_comp(2.0)])
    assert [c.colored_weight for c in ordered] == [1.0, 2.0]
    ordered = order_components([_fake_comp(4.0), _fake_comp(-1.0), _fake_comp(-2.0)])
    running, sums = 0.0, []
    for c in ordered:
        running += c.colored_weight
        sums.append(running)
    assert sums == [4.0, 3.0, 1.0]
    ordered = order_components([_fake_comp(0.0), _fake_comp(-1.0), _fake_comp(3.0)])
    assert [c.colored_weight for c in ordered] == [3.0, -1.0, 0.0]


def test_prefix_min_index_examples():
    g, src, tgt = _pair_path([1.0, 2.0, 1.0, 2.0])  # all r >= b
    run = decompose(g, src, tgt)[0].run
    assert prefix_min_index(prefix_sums(g, run)) == 0
    g, src, tgt = _pair_path([5.0, 1.0, 1.0, 7.0])
    run = decompose(g, src, tgt)[0].run
    assert prefix_sums(g, run) == [0.0, -4.0, 2.0]
    assert prefix_min_index(prefix_sums(g, run)) == 1
    # absent slots count 0: a path that opens with a red edge
    g, src, tgt = _pair_path([1.0, 4.0, 2.0])
    run = decompose(g, tgt, src)[0].run
    assert run[0] is None and prefix_sums(g, run) == [0.0, 1.0, -1.0]
    assert prefix_min_index(prefix_sums(g, run)) == 2


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.floats(0.5, 9.5), st.floats(0.5, 9.5)),
                min_size=1, max_size=6))
@example(pairs=[(0.5000000000000001, 0.5)])  # improvement below 1e-15
def test_prefix_min_is_exhaustive_argmin(pairs):
    weights = [w for pair in pairs for w in pair]
    g, src, tgt = _pair_path(weights)
    sums = prefix_sums(g, decompose(g, src, tgt)[0].run)
    idx = prefix_min_index(sums)
    best = min(range(len(sums)), key=lambda i: (sums[i], i))
    assert idx == best


def test_replace_blue_red_spec_examples():
    """ReplaceBlueRed as the planner runs it: a whole path removes each blue
    and adds each red in walk order; a path whose credited prefix minimum
    dips below zero plays its suffix, then its prefix. No red of these
    paths outweighs the blues that block it, so the pre-pass plans none."""
    def ops(weights, eps):
        g, src, tgt = _pair_path(weights)
        return [[(kind, g.weight(eid)) for kind, eid in group]
                for group in plan_mwm_groups(g, src, tgt, eps)]

    # prefix sums 0, 1, 2, 2: whole, in one phase with no light blue
    assert ops([1.0, 2.0, 1.0, 2.0, 2.0, 2.0], 0.1) == [
        [("remove", 1.0), ("add", 2.0), ("remove", 1.0), ("add", 2.0),
         ("remove", 2.0), ("add", 2.0)]]
    # prefix sums 0, -4, 2, 2: the suffix from pair 2, then pair 1; a
    # phase ends after each light blue (below 0.5 * 12) and each slice
    assert ops([5.0, 1.0, 1.0, 7.0, 6.0, 6.0], 0.5) == [
        [("remove", 1.0)], [("add", 7.0), ("remove", 6.0), ("add", 6.0)],
        [("remove", 5.0)], [("add", 1.0)]]


def _master_check(g, src, tgt, eps):
    script = plan_mwm_auto(g, src, tgt, eps)
    budget = phase_budget("mwm", eps)
    assert all(len(p) <= budget for p in script.phases)
    report = replay(g, src.edge_ids(), script, "per-op")
    src_stats = solution_stats(g, src)
    tgt_stats = solution_stats(g, tgt)
    res = check_guarantee(report, src_stats, tgt_stats, "mwm", eps)
    assert res.ok, (res.reason, res.boundary)
    assert all(b.valid for b in report.boundaries)
    final_w = report.boundaries[-1].weight
    assert final_w >= tgt_stats.total_weight - 1e-9
    if tgt_stats.total_weight > src_stats.total_weight:
        assert report.final_edges >= set(tgt.edge_ids())
    return report


def test_plan_identity_and_parameter_errors():
    g, src, tgt = _pair_path([1.0, 2.0])
    assert plan_mwm_auto(g, src, src, 0.5).phases == []
    with pytest.raises(DataError):
        plan_mwm_auto(g, src, tgt, 0.0)
    with pytest.raises(DataError):
        plan_mwm_auto(g, src, tgt, 0.6)


def test_planners_validate_each_matching_once(monkeypatch, rng):
    """plan_mcm, and plan_mwm_auto in either direction, check each matching
    once a call; plan_msf checks each forest once."""
    calls = []

    def counting(check):
        def counted(g, s):
            calls.append(s)
            return check(g, s)
        return counted

    for name in ("validate_matching", "validate_forest"):
        monkeypatch.setattr(gradmorph.graph, name,
                            counting(getattr(gradmorph.graph, name)))
    g = random_graph(rng, 40, 120, 1.0, 9.0)
    a, b = random_matching(rng, g), random_matching(rng, g)
    light, heavy = sorted((a, b), key=Matching.weight)
    for source, target in ((light, heavy), (heavy, light)):
        calls.clear()
        plan_mwm_auto(g, source, target, 0.2)
        assert calls == [source, target]
        calls.clear()
        plan_mcm(g, source, target)
        assert calls == [source, target]
    forests = (SpanningForest(g, msf_exact(g)), random_spanning_forest(rng, g))
    calls.clear()
    plan_msf(g, *forests)
    assert calls == list(forests)


def test_single_component_floors():
    g, src, tgt = _pair_path([5.0, 1.0, 1.0, 7.0])
    report = _master_check(g, src, tgt, 0.5)
    w, w_max = 6.0, 5.0
    assert report.worst_weight >= w - w_max - 1e-9


def test_heavy_fixture_one_phase():
    # all blues heavy (>= eps * w(M)): the whole component runs in one
    # phase. On a cycle no red outweighs its two blue neighbours, so the
    # good-edge pre-pass plans nothing and the component is the whole plan
    k = 5
    g, src, tgt = alternating_cycle_fixture(k, 10.0, 11.0)
    eps = 1.0 / k  # every blue is exactly eps * w(M) = 10
    script = plan_mwm_auto(g, src, tgt, eps)
    assert len(script.phases) == 1
    assert len(script.phases[0]) == 2 * k <= 3 * math.ceil(1 / eps) + 3
    _master_check(g, src, tgt, eps)


def test_the_feed_holds_ops_to_the_floor_and_phases_to_the_budget(monkeypatch):
    # a 4-cycle whose heavier target edges are each blocked twice, so the
    # pre-pass takes none: one feed of its whole run, a 4-op phase
    def cycle(*weights):
        g = Graph()
        b1, r1, b2, r2 = (g.add_edge(v, (v + 1) % 4, w)
                          for v, w in enumerate(weights))
        return g, Matching(g, [b1, b2]), Matching(g, [r1, r2])

    g, src, tgt = cycle(10.0, 15.0, 10.0, 15.0)
    b1, r1, b2, r2 = range(4)
    assert plan_mwm_groups(g, src, tgt, 0.5) == [
        [("remove", b1), ("add", r1), ("remove", b2), ("add", r2)]]
    # unrotated, the cycle 10, 1, 10, 19.5 falls to 1.0 after its second
    # removal, below w(source) - W = 10; rotated to its prefix minimum, as
    # planned, it never does
    light = cycle(10.0, 1.0, 10.0, 19.5)
    assert plan_mwm_groups(*light, 0.5) == [
        [("remove", b2), ("add", r2), ("remove", b1), ("add", r1)]]
    with monkeypatch.context() as m:
        m.setattr(gradmorph.mwm, "prefix_min_index", lambda sums: 0)
        with pytest.raises(ContractError,
                           match="op-end weight 1.0 below floor 9.99999998"):
            plan_mwm_groups(*light, 0.5)
    monkeypatch.setattr(gradmorph.mwm, "phase_budget", lambda problem, eps: 3)
    with pytest.raises(ContractError, match="phase of 4 ops exceeds budget 3"):
        plan_mwm_groups(g, src, tgt, 0.5)


def test_weighted_cycle_remark_fixture():
    k, a, d = 3, 10.0, 1.0
    g, src, tgt = alternating_cycle_fixture(k, a, a + d)
    report = _master_check(g, src, tgt, 0.5)
    # forced deficit: some op boundary dips at least a - k*d below w(M)
    w_src = k * a
    assert report.worst_weight <= w_src - (a - k * d) + 1e-9
    assert report.worst_weight >= w_src - a - 1e-9  # th:app floor


def test_drained_weighted_exchange_strictly_raises_the_weight(rng):
    # the good-edge pre-pass: the mcm exchange core with weights for worth
    # and cost, whose groups open every plan toward a heavier target
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 30), rng.randint(0, 60), 1.0, 100.0)
        src, tgt = random_matching(rng, g), random_matching(rng, g)
        groups = list(Exchange(g, src, target_only_ids(src, tgt),
                               g.weight, g.weight).drain())
        for (kind, added), *removed in groups:
            # strictly: the added edge outweighs the blockers it removes
            assert kind == "add" and all(k == "remove" for k, _ in removed)
            assert g.weight(added) > sum(g.weight(eid) for _, eid in removed)
        if groups:
            # replayed, with its running float sum, the weight never falls
            script = TransformationScript(g, "mwm", 0.5, groups)
            report = replay(g, src.edge_ids(), script, "per-phase")
            weights = [b.weight for b in report.boundaries]
            assert all(a <= b + 1e-9 for a, b in zip(weights, weights[1:]))
        if src.edges.keys() != tgt.edges.keys() and tgt.weight() > src.weight():
            assert plan_mwm_groups(g, src, tgt, 0.5)[:len(groups)] == groups


def test_master_property_random_sweep(rng):
    for eps in (0.5, 0.1, 0.02):
        for _ in range(40):
            n = rng.randint(2, 50)
            g = random_graph(rng, n, rng.randint(0, 2 * n), 1.0, 100.0)
            src, tgt = random_matching(rng, g), random_matching(rng, g)
            _master_check(g, src, tgt, eps)


def test_equal_weight_different_edges():
    g = Graph()
    a = g.add_edge(0, 1, 5.0)
    b = g.add_edge(2, 3, 5.0)
    src, tgt = Matching(g, [a]), Matching(g, [b])
    # not heavier, so planned the other way and reversed: ends exactly at b
    assert _master_check(g, src, tgt, 0.5).final_edges == {b}


def test_reverse_direction_floors_reference_lighter(rng):
    for _ in range(30):
        g = random_graph(rng, rng.randint(2, 30), rng.randint(0, 50), 1.0, 100.0)
        src, tgt = random_matching(rng, g), random_matching(rng, g)
        if sum(g.weight(e) for e in tgt.edges) > sum(g.weight(e) for e in src.edges):
            src, tgt = tgt, src  # force the reversed branch
        report = _master_check(g, src, tgt, 0.1)
        # reversed scripts end exactly at the target
        assert report.final_edges == frozenset(tgt.edge_ids())


def test_reversed_plan_adds_each_isolated_target_edge_first(rng):
    # planned target -> source, the target-only edges that no source edge
    # touches are kept, then leave in 1-op phases, ascending; reversed, the
    # plan opens by adding each of them in its own phase, descending
    g = Graph()
    heavy = g.add_edge(0, 1, 5.0)
    a, b = g.add_edge(2, 3, 1.0), g.add_edge(4, 5, 1.0)
    assert plan_mwm_groups(g, Matching(g, [heavy]), Matching(g, [a, b]), 0.5) \
        == [[("add", b)], [("add", a)], [("remove", heavy)]]
    several = 0
    for eps in (0.5, 0.1):
        for _ in range(40):
            n = rng.randint(2, 40)
            g = random_graph(rng, n, rng.randint(0, 2 * n), 1.0, 100.0)
            # thin matchings leave many target edges with free endpoints
            src, tgt = random_matching(rng, g, 0.3), random_matching(rng, g, 0.3)
            if tgt.weight() > src.weight():
                src, tgt = tgt, src  # force the reversed branch
            isolated = [e for e in tgt.edges if e not in src.edges and all(
                src.matched_edge(x) is None for x in g.edge(e)[:2])]
            groups = plan_mwm_groups(g, src, tgt, eps)
            assert groups[:len(isolated)] == [
                [("add", e)] for e in sorted(isolated, reverse=True)]
            several += len(isolated) > 1
    assert several >= 5


def test_op_count_linear():
    # one alternating path of 2,000 edges whose target (the odd edges) is
    # heavier; each op of either direction touches a distinct edge of the
    # symmetric difference
    g = path_graph(2001, [1.5 if v % 2 else 1.0 for v in range(2000)])
    src = Matching(g, [g.edge_id(v, v + 1) for v in range(0, 1999, 2)])
    tgt = Matching(g, [g.edge_id(v, v + 1) for v in range(1, 1998, 2)])
    assert tgt.weight() > src.weight()
    bound = len(src) + len(tgt)
    assert plan_mwm_auto(g, src, tgt, 0.1).num_ops() <= bound
    assert plan_mwm_auto(g, tgt, src, 0.1).num_ops() <= bound


def test_window_plan_is_the_verified_script(rng):
    """The groups a wrapper window plays are the phases of the script that
    replay verifies, in both directions."""
    for _ in range(40):
        n = rng.randint(2, 40)
        g = random_graph(rng, n, rng.randint(0, 2 * n), 1.0, 100.0)
        a, b = random_matching(rng, g), random_matching(rng, g)
        for src, tgt in ((a, b), (b, a)):
            for eps in (0.4, 0.1):
                script = plan_mwm_auto(g, src, tgt, eps)
                assert plan_mwm_groups(g, src, tgt, eps) == script.phases
                plan = gradmorph.wrapper.plan_mwm_auto(g, src, tgt, eps)
                assert plan == script


# sha256 over the JSON of every script planned between pinned_matching_pairs,
# both ways and at two epsilons; any change to the decomposition or to the
# phase order moves it
PINNED_MWM_DIGEST = "b620feeafc27acb7e0a64f0b3e06a416c0a7b6ddaca84b226c74c836fbbfbc92"


def test_plan_mwm_auto_scripts_are_pinned():
    digest = hashlib.sha256()
    for g, a, b in pinned_matching_pairs():
        for x, y in ((a, b), (b, a)):
            for eps in (0.1, 0.5):
                digest.update(plan_mwm_auto(g, x, y, eps).to_json().encode())
    assert digest.hexdigest() == PINNED_MWM_DIGEST
