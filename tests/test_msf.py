import hashlib
import random

import pytest

import gradmorph.msf
from gradmorph.dynforest import LinkCutForestIndex, make_index
from gradmorph.gen import random_graph, random_spanning_forest
from gradmorph.graph import (DataError, Graph, SpanningForest,
                             solution_stats, validate_forest)
from gradmorph.msf import TreeTransformState, plan_msf, plan_tree
from gradmorph.oracles import msf_exact
from gradmorph.script import TransformationScript, check_guarantee, replay

from naive_forest import NaiveForestIndex


def _triangle(w1, w2, w3):
    g = Graph()
    e1 = g.add_edge(0, 1, w1)
    e2 = g.add_edge(1, 2, w2)
    e3 = g.add_edge(0, 2, w3)
    return g, e1, e2, e3


def test_plan_tree_takes_lightest_cross_edge_first_ties_by_id():
    # hub 0 with shared spokes (0, a_i); the source tree hangs b_i off a_i
    # by a heavy edge, the target tree joins b_i to the hub, so every cross
    # edge (0, b_i) closes a cycle of its own and is one case-1 exchange
    g = Graph()
    src, tgt, cross = [], [], []
    for i, w in enumerate((4.0, 2.0, 7.0, 2.0)):
        a, b = 1 + 2 * i, 2 + 2 * i
        spoke = g.add_edge(0, a, 1.0)
        src += [spoke, g.add_edge(a, b, 9.0)]
        cross.append(g.add_edge(0, b, w))
        tgt += [spoke, cross[-1]]
    groups = plan_tree(g, src, list(reversed(tgt)))
    assert [group[1] for group in groups] == [
        ("add", cross[1]), ("add", cross[3]),   # the tie: smaller id first
        ("add", cross[0]), ("add", cross[2])]


def test_local_trans_case1():
    g, e1, e2, e3 = _triangle(1.0, 3.0, 2.0)
    state = TreeTransformState.create(g, [e1, e2], [e1, e3])
    case, ops = state.local_trans(e3)
    assert case == 1
    assert state.work_src == {e1, e3} == state.work_tgt
    assert ops == [("remove", e2), ("add", e3)]
    assert [g.weight(eid) for _, eid in ops] == [3.0, 2.0]


def test_local_trans_case2():
    g, e1, e2, e3 = _triangle(5.0, 1.0, 2.0)
    state = TreeTransformState.create(g, [e1, e2], [e1, e3])
    case, ops = state.local_trans(e3)
    assert case == 2
    assert state.work_tgt == {e1, e2} == state.work_src


def test_local_trans_rejects_non_cross_edges():
    g, e1, e2, e3 = _triangle(1.0, 3.0, 2.0)
    state = TreeTransformState.create(g, [e1, e2], [e1, e3])
    with pytest.raises(DataError):
        state.local_trans(e1)


def test_symmetric_difference_shrinks_by_two(rng):
    for _ in range(30):
        g = random_graph(rng, rng.randint(3, 24), 60, 1.0, 50.0, connected=True)
        t1 = random_spanning_forest(rng, g).edge_ids()
        t2 = random_spanning_forest(rng, g).edge_ids()
        state = TreeTransformState.create(g, t1, t2)
        while state.work_tgt - state.work_src:
            before = len(state.work_src ^ state.work_tgt)
            lightest = min(state.work_tgt - state.work_src,
                           key=lambda e: (g.weight(e), e))
            case, _ = state.local_trans(lightest)
            after = len(state.work_src ^ state.work_tgt)
            assert after == before - 2
            # both work trees stay spanning trees
            assert validate_forest(g, state.work_src).ok
            assert validate_forest(g, state.work_tgt).ok


def test_plan_tree_examples():
    g, e1, e2, e3 = _triangle(1.0, 3.0, 2.0)
    assert plan_tree(g, [e1, e2], [e1, e2]) == []
    assert plan_tree(g, [e1, e2], [e1, e3]) == [[("remove", e2), ("add", e3)]]


def test_plan_tree_case2_reverse_stitch():
    # force a case-2 step: cheapest cross edge loses to the tree edge
    g = Graph()
    e_ab = g.add_edge(0, 1, 1.0)
    e_bc = g.add_edge(1, 2, 2.0)
    e_ac = g.add_edge(0, 2, 5.0)
    src = [e_ab, e_bc]
    tgt = [e_ab, e_ac]
    groups = plan_tree(g, src, tgt)
    # the backward exchange [remove ac, add bc], reversed and inverted
    assert groups == [[("remove", e_bc), ("add", e_ac)]]
    script = TransformationScript(g, "msf", None, groups)
    report = replay(g, src, script, "per-phase")
    assert report.final_edges == frozenset(tgt)
    ceiling = max(sum(g.weight(e) for e in src), sum(g.weight(e) for e in tgt))
    assert all(b.weight <= ceiling + 1e-9 for b in report.phase_ends())


def _master_check(g, src, tgt):
    script = plan_msf(g, src, tgt)
    assert all(len(p) == 2 for p in script.phases)
    report = replay(g, src.edge_ids(), script, "per-phase")
    res = check_guarantee(report, solution_stats(g, src),
                          solution_stats(g, tgt), "msf")
    assert res.ok, (res.reason, res.boundary)
    assert report.final_edges == frozenset(tgt.edge_ids())
    return script, report


def test_plan_msf_identity_and_errors(rng):
    g = random_graph(rng, 10, 20, 1.0, 9.0, connected=True)
    f = SpanningForest(g, msf_exact(g))
    assert plan_msf(g, f, f).phases == []
    broken = SpanningForest(g, list(f.edges)[:-1])
    with pytest.raises(DataError):
        plan_msf(g, broken, f)


def test_plan_msf_disconnected_components_ordering(rng):
    # mixed-sign components: decreasing side must bank weight first
    g = Graph()
    # component A: weight rises 1 -> 6
    a1 = g.add_edge(0, 1, 1.0)
    a2 = g.add_edge(1, 2, 6.0)
    g.add_edge(0, 2, 6.0)
    # component B: weight falls 10 -> 8
    b1 = g.add_edge(10, 11, 10.0)
    b2 = g.add_edge(11, 12, 8.0)
    g.add_edge(10, 12, 8.0)
    src = SpanningForest(g, [a1, g.edge_id(0, 2), b1, g.edge_id(10, 12)])
    tgt = SpanningForest(g, [a1, a2, b1, b2])
    _master_check(g, src, tgt)
    _master_check(g, tgt, src)


def test_plan_msf_random_sweep(rng, monkeypatch):
    def check_with_index(index, g, src, tgt):
        # the planner always asks for msf.INDEX_KIND; swap in another index
        made = []
        with monkeypatch.context() as m:
            m.setattr(gradmorph.msf, "make_index",
                      lambda kind: made.append(kind) or index())
            script = _master_check(g, src, tgt)[0]
        assert made or not script.phases
        return script

    for trial in range(40):
        n = rng.randint(2, 40)
        connected = trial % 2 == 0
        g = random_graph(rng, n, int(1.5 * n), 1.0, 60.0, connected=connected)
        src = SpanningForest(g, msf_exact(g))
        tgt = random_spanning_forest(rng, g)
        script = _master_check(g, src, tgt)[0]
        # identical scripts regardless of index implementation
        assert all(check_with_index(index, g, src, tgt) == script
                   for index in (NaiveForestIndex, LinkCutForestIndex))
        check_with_index(NaiveForestIndex, g, tgt, src)


def test_kruskal_source_weight_ceiling(rng):
    # source = MST, target = random forest: trace never exceeds w(target)
    for _ in range(20):
        g = random_graph(rng, 30, 70, 1.0, 99.0, connected=True)
        src = SpanningForest(g, msf_exact(g))
        tgt = random_spanning_forest(rng, g)
        _, report = _master_check(g, src, tgt)
        w_tgt = sum(g.weight(e) for e in tgt.edges)
        assert all(b.weight <= w_tgt + 1e-9 for b in report.phase_ends())


def _pinned_instances():
    """Fixed connected and disconnected graphs, each with an MSF and two
    random spanning forests."""
    for seed in range(12):
        rng = random.Random(1000 + seed)
        n = rng.randint(2, 60)
        g = random_graph(rng, n, int(1.5 * n), 1.0, 60.0, connected=seed % 2 == 0)
        yield (g, SpanningForest(g, msf_exact(g)), random_spanning_forest(rng, g),
               random_spanning_forest(rng, g))


# sha256 over the JSON of every script _pinned_instances plans; any change to
# the witness the exchange picks, or to the component order, moves it
PINNED_MSF_DIGEST = "9f586af1b4d98ef87bb9a31a4ae6c051c049215ea9dc45cbbb2d2fec99ce2d7b"


def test_plan_msf_scripts_are_pinned():
    digest = hashlib.sha256()
    for g, a, b, c in _pinned_instances():
        for x, y in ((a, b), (b, a), (b, c), (c, b)):
            digest.update(plan_msf(g, x, y).to_json().encode())
    assert digest.hexdigest() == PINNED_MSF_DIGEST


def test_index_work_follows_the_difference(monkeypatch):
    # every edge an index receives is an exclusive edge of the initial work
    # trees (bulk load) or the one edge an exchange links
    received = []

    class CountingIndex:
        def __init__(self, index):
            self._index = index

        def load(self, edges):
            edges = list(edges)
            received.extend(edges)
            self._index.load(edges)

        def link(self, eid, u, v, dummy):
            received.append((eid, u, v, dummy))
            self._index.link(eid, u, v, dummy)

        def __getattr__(self, name):
            return getattr(self._index, name)

    monkeypatch.setattr(gradmorph.msf, "make_index",
                        lambda kind: CountingIndex(make_index(kind)))
    for g, a, b, c in _pinned_instances():
        for x, y in ((a, b), (b, a), (b, c)):
            received.clear()
            script = plan_msf(g, x, y)
            k2 = len(set(x.edge_ids()) ^ set(y.edge_ids()))
            assert len(received) <= k2 + len(script.phases)
            assert len(script.phases) == k2 // 2
