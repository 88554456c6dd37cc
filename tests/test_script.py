import ast
import inspect
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradmorph.graph import (DEFAULT_TOLERANCE, DataError, Graph, Matching,
                             SpanningForest, solution_stats)
import gradmorph.script
from gradmorph.script import (ChangeOp, TransformationScript,
                              check_guarantee, phase_budget, replay,
                              report_to_csv_rows)

from conftest import path_graph


def _script(problem, budget, phase_ops, eps=None):
    return TransformationScript(
        problem, budget, eps,
        [[ChangeOp(*op) for op in ops] for ops in phase_ops])


@pytest.mark.parametrize("offset, accepted", [(0.5, True), (-0.5, True),
                                              (2.0, False), (-2.0, False)])
def test_recorded_weight_checked_with_relative_slack(offset, accepted):
    g = Graph()
    w = 1e6
    g.add_edge(0, 1, w)
    recorded = w + offset * DEFAULT_TOLERANCE * w   # slack is relative here
    script = _script("mcm", 3, [[("add", 0, 1, recorded)]])
    if accepted:
        assert replay(g, [], script).final_edges == {g.edge_id(0, 1)}
    else:
        with pytest.raises(DataError, match="recorded weight"):
            replay(g, [], script)


def test_empty_script_single_snapshot():
    g = path_graph(3)
    src = Matching(g, [g.edge_id(0, 1)])
    report = replay(g, src.edge_ids(), _script("mcm", 3, []))
    assert len(report.boundaries) == 1
    assert report.final_edges == frozenset(src.edge_ids())


def test_single_add_on_isolated_edge():
    g = Graph()
    g.add_edge(0, 1, 2.0)
    report = replay(g, [], _script("mcm", 3, [[("add", 0, 1, 2.0)]]))
    assert report.boundaries[-1].size == 1
    assert report.boundaries[-1].valid


def test_replay_structural_errors_name_location():
    g = path_graph(3)
    with pytest.raises(DataError, match="phase 0 op 0"):
        replay(g, [], _script("mcm", 3, [[("remove", 0, 1, 1.0)]]))
    with pytest.raises(DataError, match="phase 0 op 1"):
        replay(g, [], _script("mcm", 3, [[("add", 0, 1, 1.0), ("add", 0, 1, 1.0)]]))
    with pytest.raises(DataError, match="not in graph"):
        replay(g, [], _script("mcm", 3, [[("add", 0, 9, 1.0)]]))
    with pytest.raises(DataError, match="recorded weight"):
        replay(g, [], _script("mcm", 3, [[("add", 0, 1, 5.0)]]))


def test_conflicting_add_is_recorded_not_raised():
    g = path_graph(3)
    src = Matching(g, [g.edge_id(0, 1)])
    script = _script("mcm", 3, [[("add", 1, 2, 1.0)]])
    report = replay(g, src.edge_ids(), script)
    assert not report.boundaries[-1].valid
    stats = solution_stats(g, src)
    result = check_guarantee(report, stats, stats, "mcm")
    assert not result.ok and "invalid" in result.reason


def test_phase_budget_enforced():
    g = path_graph(5)
    script = _script("mcm", 1, [[("add", 0, 1, 1.0), ("add", 2, 3, 1.0)]])
    from gradmorph.graph import ContractError
    with pytest.raises(ContractError, match="budget"):
        replay(g, [], script)


def test_check_guarantee_mcm_arithmetic():
    g = path_graph(6)
    src = Matching(g, [g.edge_id(0, 1), g.edge_id(2, 3)])
    report = replay(g, src.edge_ids(), _script("mcm", 3, [
        [("remove", 2, 3, 1.0)],
        [("add", 4, 5, 1.0)],
    ]))
    # sizes 2,1,2 with |M|=2, |M'|=2: floor = min(2, 1) = 1 -> pass
    stats2 = solution_stats(g, src)
    assert check_guarantee(report, stats2, stats2, "mcm").ok
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
    script = _script("mwm", 10, [
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
    # a 96 phase end passes the 95 floor
    ok_script = _script("mwm", 10, [
        [("remove", u0, v0, 5.0), ("add", 100, 101, 4.0)],
    ], eps=0.1)
    report = replay(g, src.edge_ids(), ok_script, "per-phase")
    assert check_guarantee(report, stats_src, stats_src, "mwm", 0.1).ok


def test_check_guarantee_problem_mismatch():
    g = path_graph(3)
    report = replay(g, [], _script("mcm", 3, []))
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
    script = _script("msf", 2, [[("remove", 1, 2, 5.0), ("add", 0, 2, 2.0)]])
    report = replay(g, src.edge_ids(), script)
    res = check_guarantee(report, solution_stats(g, src),
                          solution_stats(g, tgt), "msf")
    assert res.ok
    bad = _script("msf", 3, [[("remove", 1, 2, 5.0), ("add", 0, 2, 2.0),
                              ("remove", 0, 2, 2.0)]])
    report = replay(g, src.edge_ids(), bad)
    res = check_guarantee(report, solution_stats(g, src),
                          solution_stats(g, tgt), "msf")
    assert not res.ok  # 3-op phase and non-spanning end


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


def _one_phase(problem, n_ops, eps):
    """A graph, source and target, and a one-phase script of n_ops ops
    that declares a budget of 50 and meets every floor of the problem. A
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
    return g, src, tgt, _script(problem, 50, [ops[:n_ops]], eps)


@pytest.mark.parametrize("problem, eps", [("mcm", None), ("mwm", 0.5),
                                          ("msf", None)])
def test_check_guarantee_holds_each_phase_to_phase_budget(problem, eps):
    # replay accepts the budget a script declares; the guarantee is Δ
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
    script = _script("mwm", 9, [
        [("add", 1, 2, 1.5), ("remove", 2, 3, 2.0)],
        [("add", 4, 5, 1.0)],
    ], eps=0.25)
    again = TransformationScript.from_json(script.to_json())
    assert again == script
    with pytest.raises(DataError):
        TransformationScript.from_json("{nope")
    with pytest.raises(DataError):
        TransformationScript.from_json("{\"problem\": \"mcm\"}")


# weights from subnormal to 1e300, vertex ids up to 2**62
_OPS = st.builds(ChangeOp, st.sampled_from(["add", "remove"]),
                 st.integers(0, 2**62), st.integers(-5, 2**62),
                 st.floats(min_value=5e-324, max_value=1e300))
_SCRIPTS = st.builds(
    TransformationScript, st.sampled_from(["mcm", "mwm", "msf"]),
    st.integers(1, 10**6),
    st.one_of(st.none(), st.floats(min_value=1e-9, max_value=0.5)),
    st.one_of(st.just([]), st.lists(_OPS, min_size=1, max_size=4).map(
        lambda ops: [ops]), st.lists(st.lists(_OPS, min_size=1, max_size=4),
                                     max_size=5)))
# manifests: nested dicts and lists, booleans, None, numbers and strings
# that need escaping
_MANIFESTS = st.one_of(st.none(), st.dictionaries(st.text(max_size=6), st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=12), max_size=5))


@settings(max_examples=300, deadline=None)
@given(_SCRIPTS, _MANIFESTS)
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
    script = _script("mcm", 3, [
        [("add", 0, 1, 1.0)] if False else [("remove", 1, 2, 1.0)],
        [("add", 0, 1, 1.0)],
        [("add", 2, 3, 1.0)],
    ])
    fwd = replay(g, src.edge_ids(), script)
    back = replay(g, fwd.final_edges, script.reversed_script())
    assert back.final_edges == frozenset(src.edge_ids())


def test_reversed_script_rejects_an_unknown_op_kind():
    script = TransformationScript.from_json(json.dumps({
        "problem": "mcm", "epsilon": None, "budget": 3,
        "phases": [{"ops": [{"op": "flip", "u": 0, "v": 1, "w": 1.0}]}]}))
    with pytest.raises(DataError, match="phase 0 op 0: unknown op kind 'flip'"):
        script.reversed_script()


def test_replay_deterministic_and_csv_shape():
    g = path_graph(4)
    script = _script("mcm", 3, [[("add", 0, 1, 1.0)], [("add", 2, 3, 1.0)]])
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
