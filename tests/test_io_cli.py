import json
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradmorph import io
from gradmorph.cli import main
from gradmorph.gen import (random_graph, random_matching,
                           random_spanning_forest, random_update_stream)
from gradmorph.graph import (DEFAULT_TOLERANCE, ContractError, DataError, Graph,
                             SpanningForest)
from gradmorph.io import (canonical_digest, emit_edge_set, emit_graph,
                          emit_updates, parse_edge_set, parse_graph,
                          parse_updates)
from gradmorph.oracles import msf_exact
from gradmorph.script import TransformationScript
from gradmorph.wrapper import (RECOURSE_FACTOR, SIM_FACTOR, SMALL_FACTOR,
                               STEP_WORK_FACTOR, WINDOW_RATIO_FACTOR)


def test_graph_round_trip(rng):
    g = random_graph(rng, 20, 35, 1.0, 9.0)
    g.ensure_vertex(99)  # isolated vertex must survive
    text = emit_graph(g)
    g2 = parse_graph(text)
    assert g2.vertices == g.vertices
    assert sorted((u, v, w) for _, u, v, w in g2.edges()) == \
        sorted((u, v, w) for _, u, v, w in g.edges())
    assert emit_graph(g2) == text


def test_graph_parse_errors_name_lines():
    with pytest.raises(DataError, match="line 2"):
        parse_graph("e 1 2 1.0\nz 3 4\n")
    with pytest.raises(DataError, match="line 3"):
        parse_graph("e 1 2 1.0\n# fine\ne 1 2 2.0\n")


def test_edge_set_round_trip(rng):
    g = random_graph(rng, 16, 30, 1.0, 5.0)
    m = random_matching(rng, g)
    text = emit_edge_set(g, m.edge_ids())
    back = parse_edge_set(text, g)
    assert sorted(back) == sorted(m.edge_ids())


def test_update_stream_round_trip(rng):
    events = random_update_stream(rng, 12, 120, vertex_ops=True)
    text = emit_updates(events)
    assert parse_updates(text) == events
    with pytest.raises(DataError, match="line 1"):
        parse_updates("+e 1\n")
    with pytest.raises(DataError, match="odd neighbor"):
        parse_updates("+v 7 1\n")


@pytest.mark.parametrize("w", ["inf", "-inf", "nan", "0"])
def test_parse_rejects_non_finite_or_non_positive_weights(w):
    with pytest.raises(DataError, match="line 1: weight"):
        parse_graph(f"e 0 1 {w}\n")
    with pytest.raises(DataError, match="line 1: weight"):
        parse_updates(f"+e 0 1 {w}\n")
    with pytest.raises(DataError, match="line 2: weight"):
        parse_updates(f"+e 0 1\n+v 5 0 1.0 1 {w}\n")


def _graph_state(g):
    """Every table of g, with each iteration order as a list."""
    return (list(g._vertices), list(g._edges.items()), list(g._by_pair.items()),
            [(v, list(eids)) for v, eids in g._adj.items()], g._next_id,
            g._labels)


def _outcome(parse, *args):
    """What parse(*args) gives: its result, or the text of its DataError."""
    try:
        return parse(*args)
    except DataError as exc:
        return f"DataError: {exc}"


# small ids so that pairs repeat and self-loops occur, and a few large ones;
# weights from subnormal to 1e300, and the ones a graph file must refuse
_IDS = st.one_of(st.integers(0, 6), st.integers(-2, 2**40))
_WEIGHTS = st.one_of(st.floats(min_value=5e-324, max_value=1e300),
                     st.sampled_from([1.0, 0.0, -1.0, math.nan, math.inf]))
# lines that only the per-line reader accepts or refuses: comments, blank
# lines, 3-token edges (weight 1.0), extra tokens, unknown records and
# non-integer ids
_ODD_LINES = st.sampled_from([
    "# a comment", "", "   ", "e 1 2", "e 2 3 4.5 extra", "v 3 extra",
    "e 1 2 3.0 # trailing", "z 1", "v x", "e 1.5 2 1.0", "e 1 b 1.0",
    "e 1 2 w", "v", "e 1"])


@st.composite
def _graph_texts(draw):
    """(text, canonical): a graph file in emit_graph's layout, or one that
    mixes in other lines, record orders and separators."""
    lines = [f"v {v}" for v in draw(st.lists(_IDS, max_size=6))]
    lines += [f"e {u} {v} {w!r}" for u, v, w
              in draw(st.lists(st.tuples(_IDS, _IDS, _WEIGHTS), max_size=12))]
    if draw(st.booleans()):
        return "".join(line + "\n" for line in lines), True
    lines += draw(st.lists(_ODD_LINES, max_size=4))
    lines = _regrouped(draw, draw(st.permutations(lines)))
    sep = draw(st.sampled_from([" ", "  ", "\t", "\n"]))
    end = draw(st.sampled_from(["\n", "\r\n", " \n"]))
    return "".join(line.replace(" ", sep) + end for line in lines), False


def _regrouped(draw, lines):
    """lines, perhaps with two neighbours joined on one line, so that one
    line holds two records, the same tokens on other lines."""
    if len(lines) > 1 and draw(st.booleans()):
        i = draw(st.integers(0, len(lines) - 2))
        lines[i:i + 2] = [lines[i] + " " + lines[i + 1]]
    return lines


@settings(max_examples=400, deadline=None)
@given(_graph_texts())
def test_bulk_graph_parse_matches_the_line_reader(case):
    # the bulk path builds the same tables, ids and iteration orders as the
    # per-line reader, or leaves the text to it, so errors are unchanged
    text, canonical = case
    expected = _outcome(io._parse_graph_lines, text)
    got = _outcome(parse_graph, text)
    bulk = io._parse_graph_bulk(text)
    if isinstance(expected, str):
        assert got == expected and bulk is None
        return
    assert _graph_state(got) == _graph_state(expected)
    # a text in the layout falls back only on a failed check; 12 weights
    # of at most 1e300 cannot overflow the check's sum
    assert bulk is not None or not canonical
    if bulk is not None:
        assert _graph_state(bulk) == _graph_state(expected)


@st.composite
def _edge_set_texts(draw):
    """(graph, text, canonical): a valid graph and a solution file naming
    its edges in either order, pairs it lacks, or other lines."""
    g = Graph()
    for u, v, w in draw(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8),
                                           st.floats(1.0, 9.0)), max_size=12)):
        if u != v and not g.has_edge(u, v):
            g.add_edge(u, v, w)
    pairs = [(u, v) for _, u, v, _ in g.edges()]
    lines = [f"{a} {b}" if draw(st.booleans()) else f"{b} {a}"
             for a, b in draw(st.lists(st.sampled_from(pairs), max_size=6))] \
        if pairs else []
    lines += [f"{a} {b}" for a, b in draw(st.lists(
        st.tuples(st.integers(0, 10), st.integers(0, 10)), max_size=2))]
    if draw(st.booleans()):
        return g, "".join(line + "\n" for line in lines), True
    lines += draw(st.lists(st.sampled_from(
        ["# c", "", "1", "1 2 3", "x 2", "0 1 # c"]), max_size=3))
    lines = _regrouped(draw, draw(st.permutations(lines)))
    sep = draw(st.sampled_from([" ", "\t", "\n"]))
    return g, "".join(line.replace(" ", sep) + draw(st.sampled_from(["\n", "\r\n"]))
                      for line in lines), False


@settings(max_examples=300, deadline=None)
@given(_edge_set_texts())
def test_bulk_edge_set_parse_matches_the_line_reader(case):
    g, text, canonical = case
    expected = _outcome(io._parse_edge_set_lines, text, g)
    assert _outcome(parse_edge_set, text, g) == expected
    bulk = io._parse_edge_set_bulk(text, g)
    # in the layout, only an unknown pair leaves the text to the line reader
    assert bulk is not None or not canonical or isinstance(expected, str)
    if bulk is not None:
        assert bulk == expected


def test_bulk_parse_reads_emit_graph_output(rng):
    g = random_graph(rng, 30, 60, 1.0, 9.0)
    g.ensure_vertex(99)
    text = emit_graph(g)
    bulk = io._parse_graph_bulk(text)
    assert bulk is not None
    assert _graph_state(bulk) == _graph_state(io._parse_graph_lines(text))
    m = random_matching(rng, g)
    solution = emit_edge_set(g, m.edge_ids())
    assert io._parse_edge_set_bulk(solution, bulk) == \
        io._parse_edge_set_lines(solution, bulk)


def test_canonical_digest_ignores_trailing_space():
    assert canonical_digest("a b \n") == canonical_digest("a b\n")


@pytest.fixture
def workdir(tmp_path, rng):
    g = random_graph(rng, 14, 24, 1.0, 9.0)
    src = random_matching(rng, g)
    tgt = random_matching(rng, g)
    (tmp_path / "g.txt").write_text(emit_graph(g))
    (tmp_path / "from.txt").write_text(emit_edge_set(g, src.edge_ids()))
    (tmp_path / "to.txt").write_text(emit_edge_set(g, tgt.edge_ids()))
    return tmp_path


def test_cli_transform_replay_mcm(workdir, capsys):
    out = workdir / "s.json"
    rc = main(["transform", "--problem", "mcm",
               "--graph", str(workdir / "g.txt"),
               "--from", str(workdir / "from.txt"),
               "--to", str(workdir / "to.txt"),
               "--out", str(out)])
    assert rc == 0
    summary = capsys.readouterr().out
    assert "phases=" in summary
    # where the time went: planning, then the replay that verified the plan
    fields = dict(f.split("=") for f in summary.split())
    assert float(fields["wall_seconds"]) >= 0
    assert float(fields["replay_seconds"]) >= 0
    rc = main(["replay", "--graph", str(workdir / "g.txt"),
               "--from", str(workdir / "from.txt"),
               "--to", str(workdir / "to.txt"),
               "--script", str(out),
               "--csv", str(workdir / "rep.csv")])
    assert rc == 0
    lines = (workdir / "rep.csv").read_text().splitlines()
    assert lines[0].startswith("# manifest:")
    assert lines[1].split(",")[0] == "boundary_index"


def test_cli_transform_deterministic(workdir):
    args = ["transform", "--problem", "mcm",
            "--graph", str(workdir / "g.txt"),
            "--from", str(workdir / "from.txt"),
            "--to", str(workdir / "to.txt")]
    main(args + ["--out", str(workdir / "a.json")])
    main(args + ["--out", str(workdir / "b.json")])
    assert (workdir / "a.json").read_bytes() == (workdir / "b.json").read_bytes()


def test_cli_corrupted_script_fails_replay(workdir, capsys):
    out = workdir / "s.json"
    main(["transform", "--problem", "mcm",
          "--graph", str(workdir / "g.txt"),
          "--from", str(workdir / "from.txt"),
          "--to", str(workdir / "to.txt"), "--out", str(out)])
    obj = json.loads(out.read_text())
    removes = [(pi, oi) for pi, ph in enumerate(obj["phases"])
               for oi, op in enumerate(ph["ops"]) if op["op"] == "remove"]
    assert removes, "the fixture's mcm script has a removal to corrupt"
    pi, oi = removes[0]
    del obj["phases"][pi]["ops"][oi]
    if not obj["phases"][pi]["ops"]:
        del obj["phases"][pi]
    out.write_text(json.dumps(obj))
    rc = main(["replay", "--graph", str(workdir / "g.txt"),
               "--from", str(workdir / "from.txt"),
               "--to", str(workdir / "to.txt"), "--script", str(out)])
    assert rc == 2
    assert "guarantee violated" in capsys.readouterr().out


def test_cli_replay_holds_each_phase_to_the_problem_budget(tmp_path, capsys):
    # one 7-op phase on the 8-path, from (1,2),(3,4),(5,6) to (0,1),...,(6,7),
    # in a script that declares its problem's Δ: mcm's is 3, so the phase
    # is a violation, and mwm's is 9 at eps = 0.5. Each removal is followed
    # by an add, so the mwm script holds w - W = 2 at every op boundary.
    (tmp_path / "g.txt").write_text("".join(f"e {v} {v + 1} 1\n" for v in range(7)))
    (tmp_path / "from.txt").write_text("1 2\n3 4\n5 6\n")
    (tmp_path / "to.txt").write_text("0 1\n2 3\n4 5\n6 7\n")
    ops = [{"op": op, "u": u, "v": u + 1, "w": 1.0}
           for op, u in (("remove", 1), ("add", 0), ("remove", 3), ("add", 2),
                         ("remove", 5), ("add", 4), ("add", 6))]
    run = ["replay", "--graph", str(tmp_path / "g.txt"),
           "--from", str(tmp_path / "from.txt"),
           "--to", str(tmp_path / "to.txt"), "--script", str(tmp_path / "s.json")]
    for problem, eps, budget, rc, out in (
            ("mcm", None, 3, 2, "guarantee violated: phase 0 has 7 ops > 3\n"),
            ("mwm", 0.5, 9, 0, "guarantee holds: boundaries=8 worst_size=2 "
                               "worst_weight=2.0\n")):
        (tmp_path / "s.json").write_text(json.dumps(
            {"problem": problem, "epsilon": eps, "budget": budget,
             "phases": [{"ops": ops}]}))
        assert main(run) == rc
        assert capsys.readouterr().out == out


def test_cli_replay_holds_an_mwm_script_to_its_op_floor(tmp_path, capsys):
    # w(source) = 10 and W = 5, so the floor after every op is 5: the two
    # removals before the add leave 0. replay checks an mwm script per op,
    # as transform does, and records what it checked in its manifest.
    (tmp_path / "g.txt").write_text("e 0 1 5.0\ne 2 3 5.0\ne 1 2 10.5\n")
    (tmp_path / "from.txt").write_text("0 1\n2 3\n")
    (tmp_path / "to.txt").write_text("1 2\n")
    (tmp_path / "s.json").write_text(json.dumps(
        {"problem": "mwm", "epsilon": 0.25, "budget": 15, "phases": [{"ops": [
            {"op": "remove", "u": 0, "v": 1, "w": 5.0},
            {"op": "remove", "u": 2, "v": 3, "w": 5.0},
            {"op": "add", "u": 1, "v": 2, "w": 10.5}]}]}))
    mpath = tmp_path / "m.json"
    assert main(["--manifest-out", str(mpath), "replay",
                 "--graph", str(tmp_path / "g.txt"),
                 "--from", str(tmp_path / "from.txt"),
                 "--to", str(tmp_path / "to.txt"),
                 "--script", str(tmp_path / "s.json")]) == 2
    assert capsys.readouterr().out == (
        "guarantee violated: op-end weight 0.0 < 10.0 - 5.0 at boundary 2 "
        "(phase 0, op 1)\n")
    assert json.loads(mpath.read_text())["parameters"] == {
        "problem": "mwm", "epsilon": 0.25, "granularity": "per-op",
        "tolerance": DEFAULT_TOLERANCE}


def test_cli_transform_reports_the_heaviest_msf_boundary(tmp_path, capsys):
    # lighter is better for msf, so its worst boundary is its heaviest: here
    # the phase ends climb from the minimum forest to the random target
    rng = random.Random(5)
    g = random_graph(rng, 40, 56, 1.0, 100.0, connected=True)
    src = SpanningForest(g, msf_exact(g))
    tgt = random_spanning_forest(rng, g)
    (tmp_path / "g.txt").write_text(emit_graph(g))
    (tmp_path / "f1.txt").write_text(emit_edge_set(g, src.edge_ids()))
    (tmp_path / "f2.txt").write_text(emit_edge_set(g, tgt.edge_ids()))
    assert main(["transform", "--problem", "msf",
                 "--graph", str(tmp_path / "g.txt"),
                 "--from", str(tmp_path / "f1.txt"),
                 "--to", str(tmp_path / "f2.txt"),
                 "--out", str(tmp_path / "s.json")]) == 0
    fields = dict(f.split("=") for f in capsys.readouterr().out.split())
    w_src, w_tgt = (sum(g.weight(e) for e in f.edges) for f in (src, tgt))
    assert w_src < w_tgt
    assert float(fields["max_weight"]) == pytest.approx(w_tgt, rel=1e-9)


def test_cli_usage_and_data_errors(workdir, capsys):
    assert main(["transform", "--problem", "nope"]) == 1
    capsys.readouterr()
    rc = main(["transform", "--problem", "mwm", "--epsilon", "0",
               "--graph", str(workdir / "g.txt"),
               "--from", str(workdir / "from.txt"),
               "--to", str(workdir / "to.txt"),
               "--out", str(workdir / "x.json")])
    assert rc == 2
    assert capsys.readouterr().err == (
        "gradmorph: data: mwm needs epsilon in (0, 1/2], got 0.0\n")
    rc = main(["transform", "--problem", "mcm",
               "--graph", str(workdir / "missing.txt"),
               "--from", str(workdir / "from.txt"),
               "--to", str(workdir / "to.txt"),
               "--out", str(workdir / "x.json")])
    assert rc == 2
    capsys.readouterr()


@pytest.mark.parametrize("problem", ["mcm", "msf"])
def test_cli_transform_refuses_epsilon_for_mcm_and_msf(problem, workdir,
                                                       capsys):
    out = workdir / "s.json"
    assert main(["transform", "--problem", problem, "--epsilon", "7",
                 "--graph", str(workdir / "g.txt"),
                 "--from", str(workdir / "from.txt"),
                 "--to", str(workdir / "to.txt"), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"gradmorph: error: transform --epsilon applies to mwm only, "
        f"not to {problem}")
    assert not out.exists()


def test_cli_mwm_and_msf(workdir, rng, capsys, tmp_path):
    g = random_graph(rng, 20, 40, 1.0, 50.0, connected=True)
    (tmp_path / "g.txt").write_text(emit_graph(g))
    f1 = random_spanning_forest(rng, g)
    f2 = random_spanning_forest(rng, g)
    (tmp_path / "f1.txt").write_text(emit_edge_set(g, f1.edge_ids()))
    (tmp_path / "f2.txt").write_text(emit_edge_set(g, f2.edge_ids()))
    rc = main(["transform", "--problem", "msf",
               "--graph", str(tmp_path / "g.txt"),
               "--from", str(tmp_path / "f1.txt"),
               "--to", str(tmp_path / "f2.txt"),
               "--out", str(tmp_path / "s.json")])
    assert rc == 0
    rc = main(["replay", "--graph", str(tmp_path / "g.txt"),
               "--from", str(tmp_path / "f1.txt"),
               "--to", str(tmp_path / "f2.txt"),
               "--script", str(tmp_path / "s.json")])
    assert rc == 0
    m1 = random_matching(rng, g)
    m2 = random_matching(rng, g)
    (tmp_path / "m1.txt").write_text(emit_edge_set(g, m1.edge_ids()))
    (tmp_path / "m2.txt").write_text(emit_edge_set(g, m2.edge_ids()))
    rc = main(["transform", "--problem", "mwm", "--epsilon", "0.1",
               "--graph", str(tmp_path / "g.txt"),
               "--from", str(tmp_path / "m1.txt"),
               "--to", str(tmp_path / "m2.txt"),
               "--out", str(tmp_path / "w.json")])
    assert rc == 0
    rc = main(["replay", "--graph", str(tmp_path / "g.txt"),
               "--from", str(tmp_path / "m1.txt"),
               "--to", str(tmp_path / "m2.txt"),
               "--script", str(tmp_path / "w.json")])
    assert rc == 0
    capsys.readouterr()


def test_cli_weights_from_an_empty_source_print_as_floats(tmp_path, capsys):
    # the first boundary of an empty source weighs 0.0, not the integer 0
    (tmp_path / "g.txt").write_text("e 0 1 2.0\ne 1 2 1.0\ne 2 3 1.0\n")
    (tmp_path / "from.txt").write_text("")
    (tmp_path / "to.txt").write_text("0 1\n")
    files = ["--graph", str(tmp_path / "g.txt"), "--from",
             str(tmp_path / "from.txt"), "--to", str(tmp_path / "to.txt")]
    script, csv = str(tmp_path / "s.json"), tmp_path / "r.csv"
    assert main(["transform", "--problem", "mwm", "--epsilon", "0.5", *files,
                 "--out", script]) == 0
    assert "min_quality=0.0 " in capsys.readouterr().out
    assert main(["replay", *files, "--script", script, "--csv", str(csv)]) == 0
    assert capsys.readouterr().out == (
        "guarantee holds: boundaries=2 worst_size=0 worst_weight=0.0\n")
    assert csv.read_text().splitlines()[-2:] == ["0,-1,,1,0,0.0", "1,0,,1,1,2.0"]


@pytest.mark.parametrize("task", ["mwm", "msf"])
@pytest.mark.parametrize("graph, out", [("v 0\nv 1\n", "size=0 weight=0.0\n"),
                                        ("e 0 1 2.5\n", "size=1 weight=2.5\n")])
def test_cli_oracle_prints_every_weight_as_a_float(task, graph, out, tmp_path,
                                                   capsys):
    # an empty answer weighs 0.0, not the integer 0
    (tmp_path / "g.txt").write_text(graph)
    assert main(["oracle", "--task", task, "--graph", str(tmp_path / "g.txt")]) == 0
    assert capsys.readouterr().out == out


def test_cli_replay_names_an_absent_pair_and_a_wrong_weight(tmp_path, capsys):
    (tmp_path / "g.txt").write_text("e 0 1 1.0\ne 2 3 1.0\n")
    (tmp_path / "from.txt").write_text("")
    (tmp_path / "to.txt").write_text("0 1\n")
    script = tmp_path / "s.json"
    run = ["replay", "--graph", str(tmp_path / "g.txt"),
           "--from", str(tmp_path / "from.txt"),
           "--to", str(tmp_path / "to.txt"), "--script", str(script)]
    for (u, v, w), error in (
            ((1, 2, 1.0), "phase 0 op 0: edge (1,2) not in graph"),
            ((0, 1, 1.5), "phase 0 op 0: recorded weight 1.5 != graph weight 1.0"),
            # a vertex id is a JSON integer, never truncated to one
            ((0.5, 1.7, 1.0), "malformed script JSON: phase 0 op 0: vertex ids "
                              "0.5, 1.7 are not both integers")):
        script.write_text(json.dumps(
            {"problem": "mcm", "epsilon": None, "budget": 3,
             "phases": [{"ops": [{"op": "add", "u": u, "v": v, "w": w}]}]}))
        assert main(run) == 2
        assert capsys.readouterr().err == f"gradmorph: data: {error}\n"


_ADD_01 = {"op": "add", "u": 0, "v": 1, "w": 1.0}


@pytest.mark.parametrize("script, error", [
    # a weight and an epsilon are JSON numbers, never bools or strings
    ({"problem": "mcm", "epsilon": None, "budget": 3,
      "phases": [{"ops": [{**_ADD_01, "w": True}]}]},
     "malformed script JSON: phase 0 op 0: weight True is not a number"),
    ({"problem": "mcm", "epsilon": None, "budget": 3,
      "phases": [{"ops": [{**_ADD_01, "w": "1.0"}]}]},
     "malformed script JSON: phase 0 op 0: weight '1.0' is not a number"),
    ({"problem": "mwm", "epsilon": "0.25", "budget": 15,
      "phases": [{"ops": [_ADD_01]}]},
     "malformed script JSON: epsilon '0.25' is not a finite number"),
    ({"problem": "mwm", "epsilon": True, "budget": 15,
      "phases": [{"ops": [_ADD_01]}]},
     "malformed script JSON: epsilon True is not a finite number"),
    # a script file's structure is data, as its op kinds are
    ({"problem": "mcm", "epsilon": None, "budget": 3,
      "phases": [{"ops": [_ADD_01]}, {"ops": []}]},
     "phase 1 is empty"),
    # a script declares its problem's Δ, and mcm takes no epsilon
    ({"problem": "mcm", "epsilon": None, "budget": 0,
      "phases": [{"ops": [_ADD_01]}]},
     "malformed script JSON: budget 0 is not the mcm phase budget 3"),
    ({"problem": "mcm", "epsilon": 7, "budget": 3, "phases": []},
     "mcm takes no epsilon, got 7.0"),
    # phases and ops are JSON arrays, never objects
    ({"problem": "mcm", "epsilon": None, "budget": 3, "phases": {}},
     "malformed script JSON: phases is not a list"),
    ({"problem": "mcm", "epsilon": None, "budget": 3, "phases": [{"ops": {}}]},
     "malformed script JSON: phase 0: ops is not a list"),
])
def test_cli_replay_refuses_a_malformed_script_as_data(script, error, tmp_path,
                                                       capsys):
    (tmp_path / "g.txt").write_text("e 0 1 1.0\ne 1 2 1.0\n")
    (tmp_path / "from.txt").write_text("")
    (tmp_path / "to.txt").write_text("0 1\n")
    (tmp_path / "s.json").write_text(json.dumps(script))
    assert main(["replay", "--graph", str(tmp_path / "g.txt"),
                 "--from", str(tmp_path / "from.txt"),
                 "--to", str(tmp_path / "to.txt"),
                 "--script", str(tmp_path / "s.json")]) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", f"gradmorph: data: {error}\n")


@pytest.mark.parametrize("phases", [[], [{"ops": [{**_ADD_01, "u": 2}]}]],
                         ids=["no-phase", "adds-(1,2)"])
def test_cli_replay_holds_a_script_to_its_target(phases, tmp_path, capsys):
    # from no edge to (0,1): a script that keeps every floor but never
    # adds (0,1) does not end at its target
    (tmp_path / "g.txt").write_text("e 0 1 1.0\ne 1 2 1.0\n")
    (tmp_path / "from.txt").write_text("")
    (tmp_path / "to.txt").write_text("0 1\n")
    (tmp_path / "s.json").write_text(json.dumps(
        {"problem": "mcm", "epsilon": None, "budget": 3, "phases": phases}))
    assert main(["replay", "--graph", str(tmp_path / "g.txt"),
                 "--from", str(tmp_path / "from.txt"),
                 "--to", str(tmp_path / "to.txt"),
                 "--script", str(tmp_path / "s.json")]) == 2
    assert capsys.readouterr().out == (
        "guarantee violated: final state lacks 1 of 1 target edges\n")


def test_cli_simulate_and_adversary(tmp_path, capsys):
    trace = tmp_path / "t.csv"
    rc = main(["simulate", "--inner", "batch:2.0", "--epsilon", "0.1",
               "--n", "40", "--random-updates", "800",
               "--trace", str(trace)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "max_recourse=" in out
    header = trace.read_text().splitlines()[1]
    assert header == ("step,event,recourse_added,recourse_removed,"
                      "output_size,output_weight,inner_size,window_phase,"
                      "opt_size")
    rc = main(["simulate", "--inner", "greedy", "--epsilon", "0.1", "--n", "12",
               "--random-updates", "150", "--oracle-check"])
    assert rc == 0
    assert "worst_approx_ratio" in capsys.readouterr().out
    rc = main(["adversary", "--mode", "incr", "--epsilon", "0.1", "--n", "200",
               "--subject", "exact"])
    assert rc == 0
    assert "amortized_recourse=" in capsys.readouterr().out


def test_cli_simulate_no_wrap_control_and_decr(tmp_path, capsys):
    rc = main(["simulate", "--inner", "batch:2.0", "--epsilon", "0.1",
               "--n", "60", "--random-updates", "1500", "--no-wrap"])
    assert rc == 0
    bare = capsys.readouterr().out
    rc = main(["simulate", "--inner", "batch:2.0", "--epsilon", "0.1",
               "--n", "60", "--random-updates", "1500"])
    assert rc == 0
    wrapped = capsys.readouterr().out
    bare_max = int(bare.split("max_recourse=")[1].split()[0])
    wrapped_max = int(wrapped.split("max_recourse=")[1].split()[0])
    assert wrapped_max <= 160 < 9999
    assert bare_max >= wrapped_max  # the control is the bursty one
    rc = main(["adversary", "--mode", "decr", "--epsilon", "0.1", "--n", "200",
               "--subject", "exact"])
    assert rc == 0
    assert "mode=decr" in capsys.readouterr().out


def test_cli_bench(capsys):
    rc = main(["bench", "--problem", "mcm", "--sizes", "1000,4000"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "ratio_spread=" in out
    rows = [dict(re.findall(r"(\S+)=\s*(\S+)", line))
            for line in out.splitlines() if line.startswith("n=")]
    assert [int(r["n"]) for r in rows] == [1000, 4000]
    # replay/plan is taken before rounding: the unrounded seconds lie within
    # half a unit of their 4-decimal print, the ratio within half of its 2
    half = 5e-5
    for r in rows:
        plan, rep = float(r["seconds"]), float(r["replay_seconds"])
        assert plan > half and rep > 0
        lo, hi = (rep - half) / (plan + half), (rep + half) / (plan - half)
        assert lo - 0.005 <= float(r["replay/plan"]) <= hi + 0.005


def test_cli_oracle_and_search(tmp_path, capsys):
    g = Graph()
    for i in range(4):
        g.add_edge(i, (i + 1) % 4, 1.0)
    (tmp_path / "g.txt").write_text(emit_graph(g))
    rc = main(["oracle", "--task", "mcm", "--graph", str(tmp_path / "g.txt")])
    assert rc == 0 and "size=2" in capsys.readouterr().out
    (tmp_path / "a.txt").write_text("0 1\n2 3\n")
    (tmp_path / "b.txt").write_text("1 2\n0 3\n")
    rc = main(["oracle", "--task", "search", "--graph", str(tmp_path / "g.txt"),
               "--from", str(tmp_path / "a.txt"), "--to", str(tmp_path / "b.txt"),
               "--delta", "3", "--floor", "2"])
    assert rc == 0 and "feasible=False" in capsys.readouterr().out


def test_cli_manifest_out(tmp_path, workdir):
    mpath = tmp_path / "m.json"
    main(["--manifest-out", str(mpath),
          "transform", "--problem", "mcm",
          "--graph", str(workdir / "g.txt"),
          "--from", str(workdir / "from.txt"),
          "--to", str(workdir / "to.txt"),
          "--out", str(tmp_path / "s.json")])
    manifest = json.loads(mpath.read_text())
    assert manifest["command"] == "transform"
    assert set(manifest["inputs"]) == {"graph", "from", "to"}
    embedded = json.loads((tmp_path / "s.json").read_text())["manifest"]
    assert embedded == manifest


def test_cli_simulate_manifest_records_constants_used(tmp_path, capsys):
    mpath = tmp_path / "m.json"
    rc = main(["--manifest-out", str(mpath),
               "simulate", "--inner", "greedy", "--epsilon", "0.1",
               "--n", "30", "--random-updates", "200"])
    assert rc == 0
    capsys.readouterr()
    params = json.loads(mpath.read_text())["parameters"]
    assert params["constants"] == {
        "recourse_factor": RECOURSE_FACTOR, "sim_factor": SIM_FACTOR,
        "small_factor": SMALL_FACTOR, "window_ratio_factor": WINDOW_RATIO_FACTOR}
    assert params["tolerance"] == DEFAULT_TOLERANCE


def test_cli_simulate_reports_recourse_budget_and_windows(tmp_path, capsys):
    mpath = tmp_path / "m.json"
    rc = main(["--manifest-out", str(mpath),
               "simulate", "--inner", "greedy", "--epsilon", "0.1",
               "--n", "300", "--random-updates", "3000"])
    assert rc == 0
    printed = dict(re.findall(r"(\S+)=(\S+)", capsys.readouterr().out))
    results = json.loads(mpath.read_text())["results"]
    assert {k: int(printed[k]) for k in results} == results
    assert results["recourse_budget"] == RECOURSE_FACTOR * math.ceil(1 / 0.1)
    assert results["max_recourse"] <= results["recourse_budget"]
    assert results["windows"] > 0
    assert results["switches"] >= 0
    assert results["step_work_budget"] == STEP_WORK_FACTOR * math.ceil(1 / 0.1)
    assert 0 < results["max_step_work"] <= results["step_work_budget"]
    # the steps' latency, on stdout only: the manifest describes the run
    assert int(printed["updates_per_s"]) > 0
    p50, p99, top = (float(printed[f"step_us_{q}"]) for q in ("p50", "p99", "max"))
    assert 0 < p50 <= p99 <= top
    assert not {k for k in results if k.startswith(("step_us", "updates_per"))}


@pytest.mark.parametrize("argv, code", [
    ("simulate --inner batch:abc --epsilon 0.1 --random-updates 5", 2),
    ("adversary --mode full --epsilon 0.1 --n 50 --subject wrapped:batch:x", 2),
    ("adversary --mode full --epsilon 0.1 --n 50 --subject wrapped:wrapped:greedy", 2),
    ("simulate --inner greedy --epsilon 0.1 --random-updates 5 --psi inf", 2),
    ("simulate --inner greedy --epsilon 0.1 --random-updates 5 --psi nan", 2),
    ("adversary --mode incr --epsilon nan --n 50", 2),
    ("adversary --mode incr --epsilon inf --n 50", 2),
    ("adversary --mode full --epsilon inf --n 50", 2),
    ("bench --sizes abc", 1),
    ("bench --problem msf --sizes 1,100", 1),
    ("bench --problem mcm --sizes 0,100", 1),
    ("oracle --task search --graph {graph}", 1),
    # counts that describe no run: usage errors, except --random-updates 0,
    # which asks for no stream at all
    ("simulate --inner greedy --epsilon 0.2 --n -5 --random-updates 10", 1),
    ("simulate --inner greedy --epsilon 0.2 --n 1 --random-updates 10", 1),
    ("simulate --inner greedy --epsilon 0.2 --random-updates -3", 1),
    ("simulate --inner greedy --epsilon 0.2 --random-updates 0", 2),
    ("adversary --mode full --epsilon 0.1 --n 50 --rounds -1", 1),
    ("adversary --mode full --epsilon 0.1 --n 50 --rounds 0", 1),
    ("adversary --mode incr --epsilon 0.1 --n -3", 1),
    ("oracle --task search --graph {graph} --from {graph} --to {graph} "
     "--delta -2", 1),
    ("oracle --task search --graph {graph} --from {graph} --to {graph} "
     "--floor nan", 1),
])
def test_cli_bad_inputs_end_in_one_line_errors(argv, code, tmp_path, capsys):
    graph = tmp_path / "g.txt"
    graph.write_text("e 0 1 1.0\ne 1 2 1.0\n")
    assert main(argv.format(graph=graph).split()) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    last = err.strip().splitlines()[-1]
    assert (last.startswith("gradmorph: data: ") if code == 2
            else last.startswith("gradmorph") and ": error: " in last)


def test_cli_maps_budget_and_contract_errors(tmp_path, workdir, capsys,
                                             monkeypatch):
    g = Graph()
    for v in range(16):
        g.add_edge(v, v + 1, 1.0)
    (tmp_path / "g17.txt").write_text(emit_graph(g))
    assert main(["oracle", "--task", "mcm",
                 "--graph", str(tmp_path / "g17.txt")]) == 2
    assert capsys.readouterr().err.startswith("gradmorph: budget: ")

    def broken(*args):
        raise ContractError("planted")

    monkeypatch.setattr("gradmorph.cli.plan_mcm", broken)
    assert main(["transform", "--problem", "mcm",
                 "--graph", str(workdir / "g.txt"),
                 "--from", str(workdir / "from.txt"),
                 "--to", str(workdir / "to.txt"),
                 "--out", str(tmp_path / "s.json")]) == 3
    assert capsys.readouterr().err == "gradmorph: contract: planted\n"


def test_cli_simulate_refuses_weights_beyond_psi(tmp_path, capsys):
    (tmp_path / "u.txt").write_text("+e 0 1 1.0\n+e 2 3 1000.0\n")
    run = ["simulate", "--inner", "greedy", "--epsilon", "0.1", "--n", "4",
           "--updates", str(tmp_path / "u.txt")]
    assert main(run) == 0   # unweighted, weights are not read
    assert main(run + ["--psi", "2"]) == 2
    assert capsys.readouterr().err == (
        "gradmorph: data: weight 1000.0 on edge (2,3) breaks psi 2.0: "
        "weights seen span [1.0, 1000.0]\n")


def test_cli_transform_checks_what_it_replays(tmp_path, capsys, monkeypatch):
    """transform holds its replay to check_guarantee: a plan whose first
    phase ends below the mcm floor min(|from|, |to| - 1) = 2 is a contract
    violation, and no script is written."""
    (tmp_path / "g.txt").write_text("".join(f"e {v} {v + 1} 1.0\n"
                                            for v in range(5)))
    (tmp_path / "from.txt").write_text("1 2\n3 4\n")
    (tmp_path / "to.txt").write_text("0 1\n2 3\n4 5\n")

    def below_floor(g, src, tgt):
        e = g.edge_id
        return TransformationScript(g, "mcm", None, [
            [("remove", e(1, 2))],
            [("add", e(0, 1)), ("remove", e(3, 4)), ("add", e(2, 3))],
            [("add", e(4, 5))]])

    monkeypatch.setattr("gradmorph.cli.plan_mcm", below_floor)
    out = tmp_path / "s.json"
    assert main(["transform", "--problem", "mcm",
                 "--graph", str(tmp_path / "g.txt"),
                 "--from", str(tmp_path / "from.txt"),
                 "--to", str(tmp_path / "to.txt"), "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "gradmorph: contract: planned script guarantee violated: size 1 < "
        "floor 2 at boundary 1 (phase 0)\n")
    assert not out.exists()


def test_cli_simulate_reads_an_update_file(tmp_path, capsys):
    # the same stream from a file and from --seed gives the same trace rows
    seed, n, steps = 5, 40, 600
    events = random_update_stream(random.Random(seed), n, steps,
                                  vertex_ops=True)
    (tmp_path / "u.txt").write_text(emit_updates(events))
    run = ["simulate", "--inner", "batch:2.0", "--epsilon", "0.1",
           "--n", str(n)]
    assert main(run + ["--updates", str(tmp_path / "u.txt"),
                       "--trace", str(tmp_path / "t1.csv")]) == 0
    assert main(["--seed", str(seed)] + run + [
        "--random-updates", str(steps), "--trace", str(tmp_path / "t2.csv")]) == 0
    capsys.readouterr()
    rows = [(tmp_path / t).read_text().splitlines()[1:] for t in ("t1.csv", "t2.csv")]
    assert len(rows[0]) == len(events) + 1 and rows[0] == rows[1]
    # an empty file is a run of no steps, and of no step latency
    (tmp_path / "none.txt").write_text("")
    assert main(run + ["--updates", str(tmp_path / "none.txt")]) == 0
    out = capsys.readouterr().out
    assert out.startswith("steps=0 ") and out.endswith(
        " updates_per_s=0 step_us_p50=0.00 step_us_p99=0.00 step_us_max=0.00\n")
