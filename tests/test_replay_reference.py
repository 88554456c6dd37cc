"""Differential tests: the incremental `script.replay` against the
full-rescan reference in tests/replay_reference.py, on planned, corrupted
and random scripts, including the errors both raise."""

import json
import random
import re

import pytest

from gradmorph.gen import random_graph, random_matching, random_spanning_forest
from gradmorph.graph import ContractError, DataError, Graph, SpanningForest, UnionFind
from gradmorph.mcm import plan_mcm
from gradmorph.msf import plan_msf
from gradmorph.mwm import plan_mwm_auto
from gradmorph.oracles import msf_exact
from gradmorph.script import TransformationScript, phase_budget, replay

from conftest import path_graph
from replay_reference import replay_reference

GRANULARITIES = ("per-phase", "per-op")


def _script(g, problem, phase_ops, eps=None, budget=None):
    """The script of literal (kind, u, v, w) ops, read on g as a script
    file is; it declares the problem's phase_budget unless given one."""
    if budget is None:
        budget = phase_budget(problem, eps)
    return TransformationScript.from_json(json.dumps({
        "problem": problem, "epsilon": eps, "budget": budget,
        "phases": [{"ops": [{"op": kind, "u": u, "v": v, "w": w}
                            for kind, u, v, w in ops]}
                   for ops in phase_ops]}), g)


def _same(g, source, script, granularity):
    fast = replay(g, source, script, granularity)
    assert fast == replay_reference(g, source, script, granularity)
    return fast


def _valid_flags(report):
    return [b.valid for b in report.boundaries]


@pytest.mark.parametrize("granularity", GRANULARITIES)
def test_empty_source_weighs_a_float_zero(granularity):
    g = Graph()
    g.add_edge(0, 1, 2.0)
    script = _script(g, "mwm", [[("add", 0, 1, 2.0)]], eps=0.5)
    first = _same(g, [], script, granularity).boundaries[0].weight
    assert repr(first) == "0.0"
    assert repr(replay_reference(g, [], script, granularity)
                .boundaries[0].weight) == "0.0"


@pytest.mark.parametrize("seed", range(6))
def test_planned_matching_scripts_agree(seed):
    rng = random.Random(seed)
    g = random_graph(rng, 80, 240, 1.0, 100.0)
    a, b = random_matching(rng, g), random_matching(rng, g)
    for script in (plan_mcm(g, a, b), plan_mwm_auto(g, a, b, 0.1)):
        assert script.phases
        for granularity in GRANULARITIES:
            report = _same(g, a.edge_ids(), script, granularity)
            _same(g, report.final_edges, script.reversed_script(), granularity)


@pytest.mark.parametrize("seed", range(6))
def test_planned_forest_scripts_agree(seed):
    rng = random.Random(seed)
    g = random_graph(rng, 60, 84, 1.0, 100.0, connected=seed % 2 == 0)
    lightest = SpanningForest(g, msf_exact(g))
    other = random_spanning_forest(rng, g)
    for src, tgt in ((lightest, other), (other, lightest)):
        script = plan_msf(g, src, tgt)
        for granularity in GRANULARITIES:
            report = _same(g, src.edge_ids(), script, granularity)
            assert all(b.valid for b in report.phase_ends())


@pytest.mark.parametrize("granularity", GRANULARITIES)
def test_conflicting_add_in_planned_script(granularity):
    rng = random.Random(3)
    g = random_graph(rng, 40, 120, 1.0, 9.0)
    a, b = random_matching(rng, g), random_matching(rng, g)
    script = plan_mcm(g, a, b)
    covered = {x for eid in a.edge_ids() for x in g.endpoints(eid)}
    conflict = next(eid for eid in sorted(g.edge_ids())
                    if eid not in a and covered & set(g.endpoints(eid)))
    script.phases.insert(0, [("add", conflict)])
    script.phases.append([("remove", conflict)])
    report = _same(g, a.edge_ids(), script, granularity)
    assert not report.phase_ends()[0].valid


@pytest.mark.parametrize("start_present", [True, False])
def test_edge_removed_readded_and_removed_in_one_phase(start_present):
    # The exemption of (0,1) ends at its first removal, so once re-added it
    # conflicts with (1,2) at op boundaries even though it leaves again.
    g = path_graph(4)
    ops = [("remove", 0, 1, 1.0), ("add", 0, 1, 1.0),
           ("add", 1, 2, 1.0), ("remove", 0, 1, 1.0)]
    if not start_present:
        ops.insert(0, ("add", 0, 1, 1.0))
    source = [g.edge_id(0, 1)] if start_present else []
    script = _script(g, "mcm", [ops, [("remove", 1, 2, 1.0)]])
    report = _same(g, source, script, "per-op")
    flags = _valid_flags(report)
    assert flags[-3:] == [False, True, True]   # op 2, phase 0 end, phase 1 end
    _same(g, source, script, "per-phase")


def test_pending_removal_is_exempt_at_op_boundaries():
    g = path_graph(3)
    script = _script(g, "mcm", [[("add", 1, 2, 1.0), ("remove", 0, 1, 1.0)]])
    report = _same(g, [g.edge_id(0, 1)], script, "per-op")
    assert _valid_flags(report) == [True, True, True]


@pytest.mark.parametrize("granularity", GRANULARITIES)
def test_forest_cycle_closed_then_broken(granularity):
    # triangle 0-1-2 with a pendant 2-3; |V| - c(G) = 3 edges are needed
    g = Graph()
    e01, e12, e02, e23 = (g.add_edge(0, 1, 1.0), g.add_edge(1, 2, 2.0),
                          g.add_edge(0, 2, 3.0), g.add_edge(2, 3, 4.0))
    script = _script(g, "msf", [
        [("remove", 2, 3, 4.0), ("add", 0, 2, 3.0)],   # closes the triangle
        [("add", 2, 3, 4.0), ("remove", 0, 1, 1.0)],   # breaks it, spans again
        [("remove", 1, 2, 2.0), ("add", 0, 1, 1.0)],
    ])
    report = _same(g, [e01, e12, e23], script, granularity)
    assert [b.valid for b in report.phase_ends()] == [False, True, True]
    assert report.final_edges == {e01, e02, e23}


def test_forest_cycle_stays_until_broken():
    # a cycle that survives several right-sized boundaries
    g = Graph()
    e01, e12, e02 = g.add_edge(0, 1, 1.0), g.add_edge(1, 2, 1.0), g.add_edge(0, 2, 1.0)
    e34, e45, e35 = g.add_edge(3, 4, 1.0), g.add_edge(4, 5, 1.0), g.add_edge(3, 5, 1.0)
    script = _script(g, "msf", [
        [("remove", 3, 4, 1.0), ("add", 0, 2, 1.0)],
        [("remove", 4, 5, 1.0), ("add", 3, 4, 1.0)],
        [("remove", 3, 4, 1.0), ("add", 4, 5, 1.0)],
        [("remove", 0, 1, 1.0), ("add", 3, 4, 1.0)],
    ])
    report = _same(g, [e01, e12, e34, e45], script, "per-phase")
    assert _valid_flags(report) == [True, False, False, False, True]


@pytest.mark.parametrize("granularity", GRANULARITIES)
def test_invalid_sources(granularity):
    g = path_graph(4)
    two_at_1 = [g.edge_id(0, 1), g.edge_id(1, 2)]
    script = _script(g, "mcm", [[("remove", 0, 1, 1.0)]])
    report = _same(g, two_at_1, script, granularity)
    assert _valid_flags(report) == [False, True]

    tri = Graph()
    e01, e12, e02 = tri.add_edge(0, 1, 1.0), tri.add_edge(1, 2, 1.0), tri.add_edge(0, 2, 1.0)
    tri.ensure_vertex(3)
    script = _script(tri, "msf", [[("remove", 0, 2, 1.0)]])
    report = _same(tri, [e01, e12, e02], script, granularity)
    assert _valid_flags(report) == [False, True]
    # too few edges to span, then right-sized but cyclic
    report = _same(tri, [e01], _script(tri, "msf", [[("add", 1, 2, 1.0)],
                                                    [("add", 0, 2, 1.0)]]),
                   granularity)
    assert _valid_flags(report) == [False, True, False]


def _error(fn, *args):
    with pytest.raises((DataError, ContractError)) as info:
        fn(*args)
    return type(info.value), str(info.value)


# fault -> (problem, epsilon, phase ops, the error both replays raise). The
# last four are refused where a script is made, so they are set on a made
# script: its fields are mutable, and both replays check them again. A
# script declares its budget by its problem and epsilon, so an epsilon that
# phase_budget refuses is a declared budget that no phase can be held to.
STRUCTURAL = {
    "adding present": ("mcm", None, [[("add", 0, 1, 1.0)],
                                     [("add", 2, 3, 1.0), ("add", 0, 1, 1.0)]],
                       "phase 1 op 1: adding present edge (0,1)"),
    "removing absent": ("msf", None, [[("add", 0, 1, 1.0)],
                                      [("remove", 1, 2, 1.0)]],
                        "phase 1 op 0: removing absent edge (1,2)"),
    "unknown op kind": ("mcm", None, [[("add", 0, 1, 1.0), ("flip", 1, 2, 1.0)]],
                        "phase 0 op 1: unknown op kind 'flip'"),
    "unknown problem tag": ("mst", None, [[("add", 0, 1, 1.0)]],
                            "unknown problem 'mst'"),
    "is empty": ("mcm", None, [[("add", 0, 1, 1.0)], []], "phase 1 is empty"),
    "declared budget": ("mwm", 0.9, [[("add", 0, 1, 1.0)]],
                        "mwm needs epsilon in (0, 1/2], got 0.9"),
}


@pytest.mark.parametrize("granularity", GRANULARITIES)
@pytest.mark.parametrize("expected", sorted(STRUCTURAL))
def test_structural_errors_match(expected, granularity):
    g = path_graph(5)
    problem, eps, phase_ops, error = STRUCTURAL[expected]
    script = _script(g, "mcm", [])
    script.problem, script.epsilon = problem, eps
    script.phases = [[(kind, g.edge_id(u, v)) for kind, u, v, _ in ops]
                     for ops in phase_ops]
    fast = _error(replay, g, [], script, granularity)
    assert fast == _error(replay_reference, g, [], script, granularity)
    assert fast == (DataError, error)


# an endpoint pair, its recorded weight, the problem, the budget and the
# phases' structure are checked where the script is read, before either
# replay sees it: error -> (problem, declared budget or None for Δ, phases)
READ_ERRORS = {
    "phase 1 op 0: edge (2,9) not in graph":
        ("mcm", None, [[("add", 0, 1, 1.0)], [("add", 2, 9, 1.0)]]),
    "phase 1 op 0: recorded weight 5.0 != graph weight 1.0":
        ("mcm", None, [[("add", 0, 1, 1.0)], [("add", 2, 3, 5.0)]]),
    "unknown problem 'mst'": ("mst", 3, [[("add", 0, 1, 1.0)]]),
    "malformed script JSON: budget 3 is not the msf phase budget 2":
        ("msf", 3, [[("add", 0, 1, 1.0), ("add", 1, 2, 1.0), ("add", 2, 3, 1.0)]]),
    "phase 1 is empty": ("mcm", None, [[("add", 0, 1, 1.0)], []]),
    "phase 0 op 1: unknown op kind 'flip'":
        ("mwm", None, [[("add", 0, 1, 1.0), ("flip", 1, 2, 1.0)]]),
}


@pytest.mark.parametrize("expected", sorted(READ_ERRORS))
def test_read_errors_name_location(expected):
    g = path_graph(5)
    problem, budget, phase_ops = READ_ERRORS[expected]
    eps = 0.25 if problem == "mwm" else None
    with pytest.raises(DataError, match=f"^{re.escape(expected)}$"):
        _script(g, problem, phase_ops, eps, budget)


@pytest.mark.parametrize("granularity", GRANULARITIES)
def test_both_refuse_a_script_on_another_graph(granularity):
    rng = random.Random(5)
    g = random_graph(rng, 30, 60, 1.0, 9.0)
    a, b = random_matching(rng, g), random_matching(rng, g)
    script = plan_mcm(g, a, b)
    twin = TransformationScript.from_json(script.to_json(), g)
    copy = Graph()
    for _, u, v, w in g.edges():
        copy.add_edge(u, v, w)
    # the same ids on an equal graph are still another graph's ids
    fast = _error(replay, copy, a.edge_ids(), twin, granularity)
    assert fast == _error(replay_reference, copy, a.edge_ids(), twin,
                          granularity)
    assert fast == (DataError, "the script names the edge ids of another graph")
    _same(g, a.edge_ids(), twin, granularity)


@pytest.mark.parametrize("granularity", GRANULARITIES)
def test_both_name_an_id_that_left_the_graph(granularity):
    rng = random.Random(6)
    g = random_graph(rng, 30, 60, 1.0, 9.0)
    a, b = random_matching(rng, g), random_matching(rng, g)
    script = plan_mcm(g, a, b)
    (pi, oi), eid = next(((pi, oi), eid)
                         for pi, ops in enumerate(script.phases)
                         for oi, (kind, eid) in enumerate(ops) if kind == "add")
    g.remove_edge_id(eid)
    fast = _error(replay, g, a.edge_ids(), script, granularity)
    assert fast == _error(replay_reference, g, a.edge_ids(), script,
                          granularity)
    assert fast == (DataError, f"phase {pi} op {oi}: no edge with id {eid}")


def test_unknown_granularity_matches():
    g = path_graph(3)
    script = _script(g, "mcm", [])
    fast = _error(replay, g, [], script, "per-edge")
    assert fast == _error(replay_reference, g, [], script, "per-edge")


def _random_script(rng, g, problem, source):
    """Structurally valid random ops: adds of absent edges and removals of
    present ones, so states wander through conflicts and cycles."""
    state = set(source)
    eids = sorted(g.edge_ids())
    phases = []
    for _ in range(rng.randrange(1, 12)):
        ops = []
        for _ in range(rng.randrange(1, 5)):
            eid = rng.choice(eids)
            kind = "remove" if eid in state else "add"
            (state.discard if kind == "remove" else state.add)(eid)
            ops.append((kind, eid))
        phases.append(ops)
    return TransformationScript(g, problem, None, phases)


@pytest.mark.parametrize("problem", ["mcm", "msf"])
def test_random_scripts_agree(problem):
    rng = random.Random(17)
    for trial in range(150):
        g = random_graph(rng, rng.randrange(2, 9), rng.randrange(1, 14),
                         1.0, 4.0, connected=trial % 3 == 0)
        source = [e for e in sorted(g.edge_ids()) if rng.random() < 0.4]
        script = _random_script(rng, g, problem, source)
        for granularity in GRANULARITIES:
            _same(g, source, script, granularity)


def _forest_walk(rng, g, source, need, phases):
    """A random msf script from source that keeps closing and breaking
    cycles: mostly 2-op exchanges, whose removal breaks a cycle of the
    state when there is one and whose add reconnects or closes one at
    random; lone adds and removals that move the size off need and back;
    and edges added and removed within one phase."""
    state = set(source)
    eids = sorted(g.edge_ids())

    def split(edges):
        """(edges closing a cycle, union-find over the others)"""
        uf, closing = UnionFind(g.vertices), []
        for e in sorted(edges):
            if not uf.union(*g.endpoints(e)):
                closing.append(e)
        return closing, uf

    def pick_add(edges):
        absent = [e for e in eids if e not in state]
        _, uf = split(edges)
        joining = [e for e in absent
                   if uf.find(g.endpoints(e)[0]) != uf.find(g.endpoints(e)[1])]
        return rng.choice(joining if joining and rng.random() < 0.6 else absent)

    def pick_remove():
        closing, _ = split(state)
        return rng.choice(closing if closing and rng.random() < 0.8
                          else sorted(state))

    out = []
    for _ in range(phases):
        roll = rng.random()
        if roll < 0.15:
            e = pick_add(state)
            ops = [("add", e), ("remove", e)]
        elif roll < 0.3 or len(state) != need:
            grow = len(state) < need or (len(state) == need and rng.random() < 0.5)
            ops = [("add", pick_add(state)) if grow else ("remove", pick_remove())]
        else:
            cut = pick_remove()
            ops = [("remove", cut), ("add", pick_add(state - {cut}))]
        for kind, e in ops:
            (state.add if kind == "add" else state.discard)(e)
        out.append(ops)
    return TransformationScript(g, "msf", None, out)


@pytest.mark.parametrize("seed", range(4))
def test_forest_replay_agrees_at_hundreds_of_vertices(seed):
    rng = random.Random(1500 + seed)
    n = rng.randrange(200, 401)
    # about 1.1 n edges over n vertices: several components and isolated
    # vertices, plus isolated vertices beyond the generator's range
    g = random_graph(rng, n, int(1.1 * n), 1.0, 100.0)
    for v in range(n, n + 5):
        g.ensure_vertex(v)
    assert len(set(g._component_labels().values())) > 5
    forest = random_spanning_forest(rng, g).edge_ids()
    extra = next(e for e in sorted(g.edge_ids()) if e not in set(forest))
    need = len(forest)
    for source in (forest, forest + [extra]):   # the second holds a cycle
        script = _forest_walk(rng, g, source, need, 120)
        for granularity in GRANULARITIES:
            report = _same(g, source, script, granularity)
            right_size = [b.valid for b in report.boundaries if b.size == need]
            assert 0 < sum(right_size) < len(right_size)
            empty = _same(g, source, TransformationScript(g, "msf", None, []),
                          granularity)
            assert _valid_flags(empty) == [len(source) == need]
