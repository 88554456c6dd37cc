import hashlib
import re

import pytest

from gradmorph.gen import random_graph, random_matching
from gradmorph.graph import DataError, Matching, solution_stats
from gradmorph.mcm import (Exchange, _Overlay, plan_mcm, plan_target_only,
                           target_only_ids)
from gradmorph.script import TransformationScript, check_guarantee, replay

from conftest import alternating_cycle_fixture, path_graph, pinned_matching_pairs


def _mcm_exchange(g, current, target):
    return Exchange(g, current, target_only_ids(current, target),
                    lambda e: 2, lambda b: 1)


def _blockers(g, current, eid):
    """The current edges sharing an endpoint with eid, found by scanning
    every current edge."""
    ends = set(g.endpoints(eid))
    return [c for c in current.edges if ends & set(g.endpoints(c))]


def _instances(rng, count, w_hi=1.0):
    for _ in range(count):
        n = rng.randint(2, 40)
        g = random_graph(rng, n, rng.randint(0, 3 * n), 1.0, w_hi)
        yield g, random_matching(rng, g), random_matching(rng, g)


def test_exchange_mcm_good_is_at_most_one_blocker(rng):
    g = path_graph(4)
    m = Matching(g, [g.edge_id(0, 1)])
    core = _mcm_exchange(g, m, m)
    assert not core.good and not core.rest
    g, current, target = alternating_cycle_fixture(2, 1.0, 1.0)
    core = _mcm_exchange(g, current, target)
    assert not core.good and list(core.rest) == target.edge_ids()
    for g, current, target in _instances(rng, 60):
        core = _mcm_exchange(g, current, target)
        only = target_only_ids(current, target)
        assert list(core.good) == [
            e for e in only if len(_blockers(g, current, e)) <= 1]
        assert core.rest == {e: 2 for e in only
                             if len(_blockers(g, current, e)) == 2}


def test_exchange_weighted_good_outweighs_its_blockers(rng):
    for g, current, target in _instances(rng, 60, 100.0):
        core = Exchange(g, current, target_only_ids(current, target),
                        g.weight, g.weight)
        for e in target_only_ids(current, target):
            blocked = sum(map(g.weight, _blockers(g, current, e)))
            assert (e in core.good) == (g.weight(e) > blocked)
            assert (e in core.rest) == (g.weight(e) <= blocked)


def test_drained_mcm_exchange_never_lowers_the_size(rng):
    for g, current, target in _instances(rng, 60):
        groups = list(_mcm_exchange(g, current, target).drain())
        size = len(current)
        for (kind, added), *removed in groups:
            assert kind == "add" and len(removed) <= 1
            assert all(k == "remove" for k, _ in removed)
            size += 1 - len(removed)
        if groups:
            script = TransformationScript(g, "mcm", None, groups)
            report = replay(g, current.edge_ids(), script)
            sizes = [b.size for b in report.boundaries]
            assert sizes == sorted(sizes) and sizes[-1] == size


def test_plan_mcm_rejects_an_invalid_source():
    g = path_graph(3)
    broken = [g.edge_id(0, 1), g.edge_id(1, 2)]
    m = Matching(g)
    m.edges = {e: None for e in broken}  # bypass add() checks
    with pytest.raises(DataError, match="source matching invalid"):
        plan_mcm(g, m, Matching(g))


def test_plan_mcm_refuses_an_index_that_disagrees_with_g():
    # plan_target_only reads the source's vertex index, so the gate checks
    # it: a blocker missing from the index would go unremoved
    g = path_graph(4)
    src = Matching(g, [g.edge_id(1, 2)])
    tgt = Matching(g, [g.edge_id(0, 1), g.edge_id(2, 3)])
    del src.vertex_index[2]
    with pytest.raises(DataError, match=re.escape(
            "source matching invalid: vertex index disagrees "
            f"(edge={g.edge_id(1, 2)}, vertex=2)")):
        plan_mcm(g, src, tgt)


def test_plan_identity():
    g = path_graph(4)
    m = Matching(g, [g.edge_id(1, 2)])
    assert plan_mcm(g, m, m).phases == []


def test_plan_path_fixture():
    g = path_graph(4)
    src = Matching(g, [g.edge_id(1, 2)])
    tgt = Matching(g, [g.edge_id(0, 1), g.edge_id(2, 3)])
    script = plan_mcm(g, src, tgt)
    e = g.edge_id
    assert script.phases == [[("add", e(0, 1)), ("remove", e(1, 2))],
                             [("add", e(2, 3))]]
    report = replay(g, src.edge_ids(), script)
    assert [b.size for b in report.boundaries] == [1, 1, 2]


def test_plan_cycle_forced_dip():
    g, src, tgt = alternating_cycle_fixture(2, 1.0, 1.0)
    script = plan_mcm(g, src, tgt)
    report = replay(g, src.edge_ids(), script)
    sizes = [b.size for b in report.boundaries]
    assert sizes == [2, 1, 2]
    assert report.final_edges >= set(tgt.edge_ids())


def _check_instance(g, src, tgt):
    script = plan_mcm(g, src, tgt)
    assert all(len(p) <= 3 for p in script.phases)
    report = replay(g, src.edge_ids(), script, "per-op")
    res = check_guarantee(report, solution_stats(g, src),
                          solution_stats(g, tgt), "mcm")
    assert res.ok, res
    assert report.final_edges >= set(tgt.edge_ids())
    assert script.num_ops() <= len(src) + 2 * len(tgt)
    # per-op validity under the phase-atomicity convention
    assert all(b.valid for b in report.boundaries)
    return report


def test_random_instances_master_property(rng):
    for _ in range(150):
        n = rng.randint(2, 60)
        g = random_graph(rng, n, rng.randint(0, 3 * n))
        src, tgt = random_matching(rng, g), random_matching(rng, g)
        _check_instance(g, src, tgt)


def test_growing_target_never_dips_below_source(rng):
    # the stronger floor: when |target| > |source|, sizes stay >= |source|
    tried = 0
    while tried < 60:
        n = rng.randint(4, 60)
        g = random_graph(rng, n, 3 * n)
        src = random_matching(rng, g, density=0.3)
        tgt = random_matching(rng, g, density=1.0)
        if len(tgt) <= len(src):
            continue
        tried += 1
        report = _check_instance(g, src, tgt)
        assert all(b.size >= len(src) for b in report.boundaries)
        assert report.boundaries[-1].size >= len(tgt)


def test_empty_source_and_empty_target(rng):
    g = random_graph(rng, 12, 20)
    tgt = random_matching(rng, g, density=1.0)
    _check_instance(g, Matching(g), tgt)
    src = random_matching(rng, g, density=1.0)
    _check_instance(g, src, Matching(g))


def test_overlay_keeps_matching_guards():
    g = path_graph(5)
    a, b, c, d = (g.edge_id(v, v + 1) for v in range(4))
    work = _Overlay(Matching(g, [b]))
    with pytest.raises(DataError, match=f"vertex 1 already matched by edge {b}"):
        work.add(a, 0, 1)
    with pytest.raises(DataError, match=f"edge {b} already in matching"):
        work.add(b, 1, 2)
    with pytest.raises(DataError, match=f"edge {c} not in matching"):
        work.remove(c, 2, 3)
    work.remove(b, 1, 2)
    with pytest.raises(DataError, match=f"edge {b} not in matching"):
        work.remove(b, 1, 2)
    work.add(a, 0, 1)
    work.add(d, 3, 4)
    assert (work.size, work.matched_edge(1), work.matched_edge(2)) == (2, a, None)


def test_core_groups_name_the_script_ops(rng):
    for _ in range(40):
        n = rng.randint(2, 60)
        g = random_graph(rng, n, rng.randint(0, 3 * n))
        src, tgt = random_matching(rng, g), random_matching(rng, g)
        only = [e for e in tgt.edges if e not in src.edges]
        groups = plan_target_only(g, src, only, len(tgt))
        assert plan_mcm(g, src, tgt).phases == groups


def test_plan_runtime_is_linear_in_instance():
    # op-count proxy for the O(|src|+|tgt|) claim on a long path
    g = path_graph(4000)
    src = Matching(g, [g.edge_id(v, v + 1) for v in range(0, 3998, 2)])
    tgt = Matching(g, [g.edge_id(v, v + 1) for v in range(1, 3997, 2)])
    script = plan_mcm(g, src, tgt)
    assert script.num_ops() <= len(src) + 2 * len(tgt)


# sha256 over the JSON of every script planned between pinned_matching_pairs,
# both ways; any change to the order in which target-only edges are
# exchanged moves it
PINNED_MCM_DIGEST = "cb2ab018ef863c4c210c1100124b5323effea7de6e88c85505053040b213861f"


def test_plan_mcm_scripts_are_pinned():
    digest = hashlib.sha256()
    for g, a, b in pinned_matching_pairs():
        for x, y in ((a, b), (b, a)):
            digest.update(plan_mcm(g, x, y).to_json().encode())
    assert digest.hexdigest() == PINNED_MCM_DIGEST
