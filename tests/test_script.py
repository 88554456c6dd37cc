import ast
import inspect
import json
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradmorph.graph import (DEFAULT_TOLERANCE, DataError, Graph, Matching,
                             SpanningForest, solution_stats)
import gradmorph.script
from gradmorph.gen import (random_graph, random_matching,
                           random_spanning_forest)
from gradmorph.mcm import plan_mcm
from gradmorph.msf import plan_msf
from gradmorph.mwm import plan_mwm_auto
from gradmorph.script import (PROBLEMS, TransformationScript,
                              check_guarantee, phase_budget, replay,
                              report_to_csv_rows)

from conftest import path_graph


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


@pytest.mark.parametrize("offset, accepted", [(0.5, True), (-0.5, True),
                                              (2.0, False), (-2.0, False),
                                              (math.nan, False)])
def test_recorded_weight_checked_with_relative_slack(offset, accepted):
    g = Graph()
    w = 1e6
    g.add_edge(0, 1, w)
    recorded = w + offset * DEFAULT_TOLERANCE * w   # slack is relative here
    if accepted:
        script = _script(g, "mcm", [[("add", 0, 1, recorded)]])
        assert replay(g, [], script).final_edges == {g.edge_id(0, 1)}
    else:
        with pytest.raises(DataError, match=re.escape(
                f"phase 0 op 0: recorded weight {recorded} != graph weight {w}")):
            _script(g, "mcm", [[("add", 0, 1, recorded)]])


def test_empty_script_single_snapshot():
    g = path_graph(3)
    src = Matching(g, [g.edge_id(0, 1)])
    report = replay(g, src.edge_ids(), _script(g, "mcm", []))
    assert len(report.boundaries) == 1
    assert report.final_edges == frozenset(src.edge_ids())


def test_single_add_on_isolated_edge():
    g = Graph()
    g.add_edge(0, 1, 2.0)
    report = replay(g, [], _script(g, "mcm", [[("add", 0, 1, 2.0)]]))
    assert report.boundaries[-1].size == 1
    assert report.boundaries[-1].valid


def test_replay_structural_errors_name_location():
    g = path_graph(3)
    with pytest.raises(DataError, match="phase 0 op 0"):
        replay(g, [], _script(g, "mcm", [[("remove", 0, 1, 1.0)]]))
    with pytest.raises(DataError, match="phase 0 op 1"):
        replay(g, [], _script(g, "mcm", [[("add", 0, 1, 1.0), ("add", 0, 1, 1.0)]]))
    # an endpoint pair and its weight are checked where the script is read
    with pytest.raises(DataError, match=re.escape(
            "phase 1 op 0: edge (0,9) not in graph")):
        _script(g, "mcm", [[("add", 0, 1, 1.0)], [("add", 0, 9, 1.0)]])
    with pytest.raises(DataError, match=re.escape(
            "phase 0 op 1: recorded weight 5.0 != graph weight 1.0")):
        _script(g, "mcm", [[("add", 0, 1, 1.0), ("add", 2, 1, 5.0)]])


def test_conflicting_add_is_recorded_not_raised():
    g = path_graph(3)
    src = Matching(g, [g.edge_id(0, 1)])
    script = _script(g, "mcm", [[("add", 1, 2, 1.0)]])
    report = replay(g, src.edge_ids(), script)
    assert not report.boundaries[-1].valid
    stats = solution_stats(g, src)
    result = check_guarantee(report, stats, stats, "mcm")
    assert not result.ok and "invalid" in result.reason


def test_phase_budget_enforced():
    g = path_graph(8)
    # a script declares its problem's Δ: any other budget is a read error
    with pytest.raises(DataError, match=re.escape(
            "malformed script JSON: budget 1 is not the mcm phase budget 3")):
        _script(g, "mcm", [[("add", 0, 1, 1.0)]], budget=1)
    # a phase over Δ replays, and check_guarantee names it
    ops = [("add", 2 * i, 2 * i + 1, 1.0) for i in range(4)]
    report = replay(g, [], _script(g, "mcm", [ops]))
    res = check_guarantee(report, solution_stats(g, Matching(g)),
                          solution_stats(g, Matching(g, report.final_edges)), "mcm")
    assert res.reason == "phase 0 has 4 ops > 3"


def test_check_guarantee_mcm_arithmetic():
    g = path_graph(6)
    src = Matching(g, [g.edge_id(0, 1), g.edge_id(2, 3)])
    report = replay(g, src.edge_ids(), _script(g, "mcm", [
        [("remove", 2, 3, 1.0)],
        [("add", 4, 5, 1.0)],
    ]))
    # sizes 2,1,2 with |M|=2, |M'|=2: floor = min(2, 1) = 1 -> pass
    stats2 = solution_stats(g, src)
    tgt2 = solution_stats(g, Matching(g, [g.edge_id(0, 1), g.edge_id(4, 5)]))
    assert check_guarantee(report, stats2, tgt2, "mcm").ok
    # target size 3 -> floor 2, the dip to 1 fails
    tgt3 = solution_stats(g, Matching(g, [g.edge_id(0, 1), g.edge_id(2, 3),
                                          g.edge_id(4, 5)]))
    res = check_guarantee(report, stats2, tgt3, "mcm")
    assert not res.ok and res.boundary.size == 1


def test_check_guarantee_mwm_floor_arithmetic():
    # w(M)=100, W=5, eps=0.1: floor = max(95, 90) = 95; a 94 phase end fails
    g = Graph()
    edges = [g.add_edge(2 * i, 2 * i + 1, 5.0) for i in range(20)]
    src = Matching(g, edges)
    u0, v0 = g.endpoints(edges[0])
    u1, v1 = g.endpoints(edges[1])
    extra = g.add_edge(100, 101, 4.0)
    script = _script(g, "mwm", [
        [("remove", u0, v0, 5.0), ("remove", u1, v1, 5.0),
         ("add", 100, 101, 4.0)],
    ], eps=0.1)
    assert extra in g.edge_ids()
    report = replay(g, src.edge_ids(), script, "per-phase")
    stats_src = solution_stats(g, src)
    res = check_guarantee(report, stats_src, stats_src, "mwm", 0.1)
    assert not res.ok and res.boundary.weight == pytest.approx(94.0)
    # per-op granularity catches the op-end dip to 90 < w - W = 95 first
    report_op = replay(g, src.edge_ids(), script, "per-op")
    res = check_guarantee(report_op, stats_src, stats_src, "mwm", 0.1)
    assert not res.ok and res.boundary.weight == pytest.approx(90.0)
    # a 99 phase end passes the floor of its lighter target, max(94, 89.1)
    ok_script = _script(g, "mwm", [
        [("remove", u0, v0, 5.0), ("add", 100, 101, 4.0)],
    ], eps=0.1)
    report = replay(g, src.edge_ids(), ok_script, "per-phase")
    tgt = solution_stats(g, Matching(g, report.final_edges))
    assert check_guarantee(report, stats_src, tgt, "mwm", 0.1).ok


def test_check_guarantee_problem_mismatch():
    g = path_graph(3)
    report = replay(g, [], _script(g, "mcm", []))
    stats = solution_stats(g, Matching(g))
    with pytest.raises(DataError):
        check_guarantee(report, stats, stats, "msf")


def test_check_guarantee_msf():
    g = Graph()
    e1 = g.add_edge(0, 1, 1.0)
    e2 = g.add_edge(1, 2, 5.0)
    e3 = g.add_edge(0, 2, 2.0)
    from gradmorph.graph import SpanningForest
    src = SpanningForest(g, [e1, e2])
    tgt = SpanningForest(g, [e1, e3])
    script = _script(g, "msf", [[("remove", 1, 2, 5.0), ("add", 0, 2, 2.0)]])
    report = replay(g, src.edge_ids(), script)
    res = check_guarantee(report, solution_stats(g, src),
                          solution_stats(g, tgt), "msf")
    assert res.ok
    bad = _script(g, "msf", [[("remove", 1, 2, 5.0), ("add", 0, 2, 2.0),
                              ("remove", 0, 2, 2.0)]])
    report = replay(g, src.edge_ids(), bad)
    res = check_guarantee(report, solution_stats(g, src),
                          solution_stats(g, tgt), "msf")
    assert not res.ok  # 3-op phase and non-spanning end


@pytest.mark.parametrize("problem, src, tgt, ops, reason", [
    # an mwm phase that ends on two edges at vertex 1
    ("mwm", [], [(0, 1)], [("add", 0, 1, 1.0), ("add", 1, 2, 5.0)],
     "invalid matching at phase end"),
    # an msf phase that ends on the triangle, a cycle
    ("msf", [(0, 1), (1, 2)], [(0, 1), (0, 2)], [("add", 0, 2, 2.0)],
     "invalid forest at phase end"),
    # an msf phase that ends on a spanning tree heavier than both ends
    ("msf", [(0, 1), (0, 2)], [(0, 1), (0, 2)],
     [("remove", 0, 2, 2.0), ("add", 1, 2, 5.0)],
     "phase-end weight 6.0 > ceiling 3.0"),
])
def test_check_guarantee_names_each_phase_end_fault(problem, src, tgt, ops,
                                                     reason):
    g = Graph()
    for u, v, w in ((0, 1, 1.0), (1, 2, 5.0), (0, 2, 2.0)):
        g.add_edge(u, v, w)
    kind = Matching if problem == "mwm" else SpanningForest
    src, tgt = (kind(g, [g.edge_id(u, v) for u, v in pairs])
                for pairs in (src, tgt))
    eps = 0.5 if problem == "mwm" else None
    report = replay(g, src.edge_ids(), _script(g, problem, [ops], eps),
                    gradmorph.script.transform_granularity(problem))
    res = check_guarantee(report, solution_stats(g, src),
                          solution_stats(g, tgt), problem, eps)
    assert not res.ok and res.reason == reason
    assert res.boundary == report.boundaries[-1]


def test_check_guarantee_holds_a_script_to_its_target():
    # from no edge to (0,1): no phase, or one that adds (1,2), keeps every
    # floor, but neither ends holding (0,1)
    g = path_graph(3)
    src, tgt = Matching(g), Matching(g, [g.edge_id(0, 1)])
    for phases in ([], [[("add", 1, 2, 1.0)]]):
        report = replay(g, [], _script(g, "mcm", phases))
        res = check_guarantee(report, solution_stats(g, src),
                              solution_stats(g, tgt), "mcm")
        assert not res.ok and res.boundary is None
        assert res.reason == "final state lacks 1 of 1 target edges"


def test_phase_budget_is_the_rule_for_every_problem():
    assert phase_budget("mcm") == 3 and phase_budget("msf") == 2
    # 3 * ceil(1/eps) + 3
    for eps, delta in ((0.5, 9), (0.3, 15), (0.25, 15), (0.1, 33), (0.02, 153)):
        assert phase_budget("mwm", eps) == delta
    for eps in (None, 0, -0.1, 0.51, 1.0, math.nan):
        with pytest.raises(DataError, match=r"mwm needs epsilon in \(0, 1/2\], got"):
            phase_budget("mwm", eps)
    with pytest.raises(DataError, match="unknown problem 'mst'"):
        phase_budget("mst")
    for problem in ("mcm", "msf"):
        with pytest.raises(DataError, match=f"^{problem} takes no epsilon, got 0.25$"):
            phase_budget(problem, 0.25)


def _one_phase(problem, n_ops, eps):
    """A graph, source and target, and a one-phase script of n_ops ops
    that declares the problem's Δ and meets every floor of the problem. A
    matching phase adds n_ops disjoint edges to the empty matching; the
    msf phase exchanges (1,2) for (0,2) on a triangle, then keeps going."""
    g = Graph()
    if problem == "msf":
        ids = [g.add_edge(0, 1, 1.0), g.add_edge(1, 2, 5.0), g.add_edge(0, 2, 2.0)]
        src, tgt = SpanningForest(g, ids[:2]), SpanningForest(g, [ids[0], ids[2]])
        ops = [("remove", 1, 2, 5.0), ("add", 0, 2, 2.0), ("remove", 0, 1, 1.0)]
    else:
        ids = [g.add_edge(2 * i, 2 * i + 1, 1.0) for i in range(n_ops)]
        src, tgt = Matching(g), Matching(g, ids)
        ops = [("add", 2 * i, 2 * i + 1, 1.0) for i in range(n_ops)]
    return g, src, tgt, _script(g, problem, [ops[:n_ops]], eps)


@pytest.mark.parametrize("problem, eps", [("mcm", None), ("mwm", 0.5),
                                          ("msf", None)])
def test_check_guarantee_holds_each_phase_to_phase_budget(problem, eps):
    # replay plays a phase over Δ; the guarantee holds each phase to Δ
    delta = phase_budget(problem, eps)
    for n_ops in (delta, delta + 1):
        g, src, tgt, script = _one_phase(problem, n_ops, eps)
        report = replay(g, src.edge_ids(), script)
        res = check_guarantee(report, solution_stats(g, src),
                              solution_stats(g, tgt), problem, eps)
        if n_ops == delta:
            assert res.ok, res.reason
        else:
            assert not res.ok and res.boundary is None
            assert res.reason == f"phase 0 has {n_ops} ops > {delta}"


def test_mwm_check_takes_delta_from_the_epsilon_it_checks():
    # a 10-op phase is within Δ = 15 at the script's eps = 0.25, but not
    # within Δ = 9 when checked at the larger eps = 0.5
    g, src, tgt, script = _one_phase("mwm", 10, 0.25)
    report = replay(g, src.edge_ids(), script, "per-op")
    stats = solution_stats(g, src), solution_stats(g, tgt)
    assert check_guarantee(report, *stats, "mwm", 0.25).ok
    res = check_guarantee(report, *stats, "mwm", 0.5)
    assert not res.ok and res.reason == "phase 0 has 10 ops > 9"
    with pytest.raises(DataError, match="mwm needs epsilon"):
        check_guarantee(report, *stats, "mwm", None)


def test_json_round_trip():
    g = Graph()
    for u, v, w in ((1, 2, 1.5), (2, 3, 2.0), (4, 5, 1.0)):
        g.add_edge(u, v, w)
    script = _script(g, "mwm", [
        [("add", 1, 2, 1.5), ("remove", 3, 2, 2.0)],
        [("add", 4, 5, 1.0)],
    ], eps=0.25)
    e = g.edge_id
    assert script.phases == [[("add", e(1, 2)), ("remove", e(2, 3))],
                             [("add", e(4, 5))]]
    again = TransformationScript.from_json(script.to_json(), g)
    assert again == script
    with pytest.raises(DataError):
        TransformationScript.from_json("{nope", g)
    with pytest.raises(DataError):
        TransformationScript.from_json("{\"problem\": \"mcm\"}", g)
    # JSON reads 1e400 as an infinite float, which is no vertex id
    infinite = script.to_json().replace('"u": 1,', '"u": 1e400,', 1)
    with pytest.raises(DataError, match="malformed script JSON: phase 0 op 0: "
                                        "vertex ids inf, 2 are not both integers"):
        TransformationScript.from_json(infinite, g)


@pytest.mark.parametrize("field, value, error", [
    ("u", 0.5, "phase 0 op 0: vertex ids 0.5, 1 are not both integers"),
    ("v", 1.7, "phase 0 op 0: vertex ids 0, 1.7 are not both integers"),
    ("u", True, "phase 0 op 0: vertex ids True, 1 are not both integers"),
    ("u", "0", "phase 0 op 0: vertex ids '0', 1 are not both integers"),
    ("budget", 3.9, "budget 3.9 is not an integer"),
    ("budget", True, "budget True is not an integer"),
    # the budget is the problem's Δ, and mcm takes no epsilon
    ("budget", 50, "budget 50 is not the mcm phase budget 3"),
    # a weight and an epsilon are JSON numbers, never bools or strings
    ("w", True, "phase 0 op 0: weight True is not a number"),
    ("w", "1.0", "phase 0 op 0: weight '1.0' is not a number"),
    ("epsilon", True, "epsilon True is not a finite number"),
    ("epsilon", "0.25", "epsilon '0.25' is not a finite number"),
    # a manifest records the epsilon it read, so it is one JSON can write
    ("epsilon", math.nan, "epsilon nan is not a finite number"),
    ("epsilon", math.inf, "epsilon inf is not a finite number")])
def test_from_json_reads_vertex_ids_and_budget_only_as_integers(field, value,
                                                                  error):
    # the graph reader refuses "e 0.5 1.7" too: nothing is truncated to an id
    g = Graph()
    g.add_edge(0, 1, 1.0)
    obj = {"problem": "mcm", "epsilon": None, "budget": 3,
           "phases": [{"ops": [{"op": "add", "u": 0, "v": 1, "w": 1.0}]}]}
    assert TransformationScript.from_json(json.dumps(obj), g).phases == [[("add", 0)]]
    (obj if field in ("budget", "epsilon") else obj["phases"][0]["ops"][0])[field] = value
    with pytest.raises(DataError, match=re.escape(f"malformed script JSON: {error}")):
        TransformationScript.from_json(json.dumps(obj), g)


@pytest.mark.parametrize("problem", ["mcm", "msf"])
def test_from_json_refuses_an_epsilon_for_mcm_and_msf(problem):
    obj = {"problem": problem, "epsilon": 7, "budget": phase_budget(problem),
           "phases": []}
    with pytest.raises(DataError, match=f"^{problem} takes no epsilon, got 7.0$"):
        TransformationScript.from_json(json.dumps(obj), path_graph(2))


def test_writers_name_the_op_whose_edge_the_graph_lost():
    g = path_graph(4)
    script = plan_mcm(g, Matching(g, [g.edge_id(1, 2)]),
                      Matching(g, [g.edge_id(0, 1), g.edge_id(2, 3)]))
    lost = next(eid for kind, eid in script.phases[-1] if kind == "add")
    i, j = len(script.phases) - 1, script.phases[-1].index(("add", lost))
    g.remove_edge_id(lost)
    for write in (script.to_json, script.to_json_obj):
        with pytest.raises(DataError,
                           match=f"^phase {i} op {j}: no edge with id {lost}$"):
            write()


@pytest.mark.parametrize("problem", PROBLEMS)
def test_planned_scripts_read_back_to_their_groups(problem):
    rng = random.Random(8)
    for trial in range(20):
        g = random_graph(rng, rng.randrange(2, 40), rng.randrange(1, 80),
                         1.0, 100.0, connected=trial % 2 == 0)
        if problem == "msf":
            script = plan_msf(g, random_spanning_forest(rng, g),
                              random_spanning_forest(rng, g))
        else:
            a, b = random_matching(rng, g), random_matching(rng, g)
            script = (plan_mcm(g, a, b) if problem == "mcm"
                      else plan_mwm_auto(g, a, b, 0.25))
        again = TransformationScript.from_json(script.to_json(), g)
        assert again.phases == script.phases
        assert again == script
        # a planned script declares its problem's phase budget
        assert script.to_json_obj()["budget"] == phase_budget(
            problem, 0.25 if problem == "mwm" else None)


@st.composite
def _scripts(draw):
    """A script of random ops on the edges of a graph it builds: vertex
    ids up to 2**62 and weights from subnormal to 1e300."""
    g = Graph()
    pairs = draw(st.lists(
        st.tuples(st.integers(0, 2**62), st.integers(-5, 2**62)).filter(
            lambda p: p[0] != p[1]),
        min_size=1, max_size=6, unique_by=lambda p: (min(p), max(p))))
    for u, v in pairs:
        g.add_edge(u, v, draw(st.floats(min_value=5e-324, max_value=1e300)))
    ops = st.tuples(st.sampled_from(["add", "remove"]),
                    st.sampled_from(sorted(g.edge_ids())))
    phases = draw(st.one_of(
        st.just([]), st.lists(ops, min_size=1, max_size=4).map(lambda o: [o]),
        st.lists(st.lists(ops, min_size=1, max_size=4), max_size=5)))
    problem = draw(st.sampled_from(PROBLEMS))
    eps = draw(st.floats(min_value=1e-9, max_value=0.5)) if problem == "mwm" else None
    return TransformationScript(g, problem, eps, phases)
# manifests: nested dicts and lists, booleans, None, numbers and strings
# that need escaping
_MANIFESTS = st.one_of(st.none(), st.dictionaries(st.text(max_size=6), st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=12), max_size=5))


@settings(max_examples=300, deadline=None)
@given(_scripts(), _MANIFESTS)
def test_script_writer_is_json_dumps_byte_for_byte(script, manifest):
    obj = script.to_json_obj()
    if manifest is None:
        assert script.to_json() == json.dumps(obj, indent=1)
    else:
        obj["manifest"] = manifest
        assert script.to_json(manifest) == json.dumps(obj, indent=1)


def test_reversed_script_round_trip():
    g = path_graph(4)
    src = Matching(g, [g.edge_id(1, 2)])
    script = _script(g, "mcm", [
        [("add", 0, 1, 1.0)] if False else [("remove", 1, 2, 1.0)],
        [("add", 0, 1, 1.0)],
        [("add", 2, 3, 1.0)],
    ])
    fwd = replay(g, src.edge_ids(), script)
    back = replay(g, fwd.final_edges, script.reversed_script())
    assert back.final_edges == frozenset(src.edge_ids())


@pytest.mark.parametrize("kind", ["flip", ["add"]])
def test_reversed_script_rejects_an_unknown_op_kind(kind):
    g = path_graph(2)
    error = re.escape(f"phase 0 op 0: unknown op kind {kind!r}")
    with pytest.raises(DataError, match=error):
        _script(g, "mcm", [[(kind, 0, 1, 1.0)]])
    # a made script's phases may still change: the undo checks them again
    script = _script(g, "mcm", [])
    script.phases.append([(kind, 0)])
    with pytest.raises(DataError, match=error):
        script.reversed_script()


def test_replay_deterministic_and_csv_shape():
    g = path_graph(4)
    script = _script(g, "mcm", [[("add", 0, 1, 1.0)], [("add", 2, 3, 1.0)]])
    r1 = replay(g, [], script, "per-op")
    r2 = replay(g, [], script, "per-op")
    assert r1 == r2
    rows = report_to_csv_rows(r1)
    assert rows[0][0] == "boundary_index"
    assert len(rows) == len(r1.boundaries) + 1


def test_replay_does_not_use_the_planners_forest_index():
    # the verifier must not share the link-cut index with the msf planner
    tree = ast.parse(inspect.getsource(gradmorph.script))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            imported.add(base)
            imported.update(f"{base}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert imported
    assert not any("dynforest" in name.split(".") for name in imported)
