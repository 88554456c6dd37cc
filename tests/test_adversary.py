import hashlib
import math

import pytest

from gradmorph.adversary import (ExactPathMaintainer, IncrementalAdversary,
                                 StaticSubject, canonical_path_matching,
                                 gen_fully_dynamic, path_length_param,
                                 run_decremental_mirror,
                                 run_incremental_adversary)
from gradmorph.cli import main
from gradmorph.graph import DataError, Graph, validate_matching
from gradmorph.wrapper import GreedyMaximalMatching, WrappedMatching
from gradmorph.sim import run_simulation

from conftest import audit


def test_path_length_param():
    assert path_length_param(0.25) == 1
    assert path_length_param(0.1) == 2
    assert path_length_param(0.05) == 5
    for eps in (0.0, math.inf, math.nan):
        with pytest.raises(DataError):
            path_length_param(eps)


def test_gen_fully_dynamic_stream_is_valid():
    events = gen_fully_dynamic(0.25, rounds=3, n=50)
    g = Graph()
    for ev in events:
        g.apply_update(ev)  # raises on duplicate insert / phantom delete
        audit(g)
    assert g.num_edges() == 0  # rounds tear down completely
    with pytest.raises(DataError):
        gen_fully_dynamic(0.01, rounds=1, n=10)


def test_smallest_round_is_three_edge_path():
    events = gen_fully_dynamic(0.25, rounds=1, n=10)
    inserts = [ev for ev in events if ev.kind == "+e"]
    deletes = [ev for ev in events if ev.kind == "-e"]
    assert len(inserts) == 3 and len(deletes) == 3


def test_exact_maintainer_always_canonical(rng):
    events = gen_fully_dynamic(0.1, rounds=2, n=60)
    g = Graph()
    subject = ExactPathMaintainer(g)
    for ev in events:
        delta = g.apply_update(ev)
        subject.handle_update(ev, delta)
        assert validate_matching(g, subject.matching_ids()).ok


def test_fully_dynamic_growth_recourse():
    eps = 0.05
    l = path_length_param(eps)
    events = gen_fully_dynamic(eps, rounds=2, n=200)
    g = Graph()
    subject = ExactPathMaintainer(g)
    result = run_simulation(g, subject, events)
    # growth-regime flips force roughly l changes per update
    assert result.mean_recourse >= l / 4


def test_incremental_exact_meets_lower_bound():
    for eps in (0.1, 0.05):
        run, events = run_incremental_adversary(
            lambda g: ExactPathMaintainer(g), eps, 400)
        assert run.complete_fraction() == 1.0
        assert run.result.mean_recourse >= (1 / 8) / eps
        # stream validity
        g = Graph()
        for ev in events:
            g.apply_update(ev)


def test_incremental_greedy_goes_incomplete():
    run, _ = run_incremental_adversary(
        lambda g: GreedyMaximalMatching(g), 0.1, 400)
    assert run.complete_fraction() < 1.0
    halted = [c for c in run.copies if c.status == "halted"]
    assert halted
    for c in halted:
        restricted, canonical = c.halt_witness
        assert restricted < canonical  # approximation violation witness


def test_incremental_static_all_incomplete():
    run, _ = run_incremental_adversary(lambda g: StaticSubject(g), 0.1, 400)
    assert run.complete_fraction() == 0.0


def test_decremental_mirror_bound():
    for eps in (0.1, 0.05):
        run = run_decremental_mirror(lambda g: ExactPathMaintainer(g), eps, 400)
        assert run.result.mean_recourse >= (1 / 8) / eps


def test_wrapped_subject_survives_adversary():
    # the wrapper keeps worst-case recourse low even on the adversary stream
    eps = 0.1
    run, events = run_incremental_adversary(
        lambda g: WrappedMatching(g, GreedyMaximalMatching(g), eps), eps, 400)
    assert run.result.max_recourse <= 16 * math.ceil(1 / eps)
    g = Graph()
    wrapped = WrappedMatching(g, GreedyMaximalMatching(g), eps)
    result = run_simulation(g, wrapped, events)
    assert result.max_recourse <= 16 * math.ceil(1 / eps)


def test_canonical_matching_helper():
    assert canonical_path_matching([5, 6, 7]) == {5, 7}
    assert canonical_path_matching([1]) == {1}
    assert canonical_path_matching([]) == set()


def test_infeasible_parameters():
    with pytest.raises(DataError):
        IncrementalAdversary(Graph(), StaticSubject(Graph()), 0.1, 5)


# sha256 of whole `adversary --trace` CSVs (manifest line included) and the
# printed line, at --seed 3 --epsilon 0.1 --n 200; any change to the streams
# or to how they are measured moves them
PINNED_ADVERSARY = [
    ("incr", "exact",
     "mode=incr updates=70 amortized_recourse=2.1143 complete_fraction=1.000 "
     "copies=10 l=2",
     "fd0fe12a60a2c46effbb778d8d2ad7e6e590d0c4a71d10a303a5010a6bc5127f"),
    ("incr", "wrapped:greedy",
     "mode=incr updates=50 amortized_recourse=0.4000 complete_fraction=0.000 "
     "copies=10 l=2",
     "d9eecf15f6cae52fe3d03ca60c234ea3f62703eb34698aa5ae9df715fa0a05ea"),
    ("full", "exact",
     "mode=full updates=140 amortized_recourse=1.3429 max_recourse=7",
     "cfc9e8d49d2caba18d289bad0063b19b8e1f7d153637931d22f192850af82de6"),
    ("full", "wrapped:greedy",
     "mode=full updates=140 amortized_recourse=0.5714 max_recourse=1",
     "94500e08055d2b767184c1517c416a85f89cc0fb2a631ac3e92b5bc8d8f637eb"),
]


@pytest.mark.parametrize(
    "mode, subject, line, digest", PINNED_ADVERSARY,
    ids=[f"{mode}-{subject}" for mode, subject, *_ in PINNED_ADVERSARY])
def test_adversary_outputs_are_pinned(tmp_path, capsys, mode, subject, line, digest):
    trace = tmp_path / "t.csv"
    assert main(["--seed", "3", "adversary", "--mode", mode, "--epsilon", "0.1",
                 "--n", "200", "--subject", subject, "--trace", str(trace)]) == 0
    assert capsys.readouterr().out == line + "\n"
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == digest


def test_incr_resumes_halted_copies_and_is_pinned(tmp_path, capsys, monkeypatch):
    # a batch subject lets halted copies become canonical again, so the
    # stream resumes them; sha256 of the printed line and the whole trace
    resumes = []
    find = IncrementalAdversary._find_resumable

    def counted(self):
        copy = find(self)
        if copy is not None:
            resumes.append(copy.index)
        return copy

    monkeypatch.setattr(IncrementalAdversary, "_find_resumable", counted)
    trace = tmp_path / "t.csv"
    assert main(["--seed", "3", "adversary", "--mode", "incr", "--epsilon", "0.1",
                 "--n", "400", "--subject", "batch:2.0", "--trace", str(trace)]) == 0
    out = capsys.readouterr().out.encode()
    assert resumes
    assert hashlib.sha256(out).hexdigest() == \
        "d858167d0cbfcbb142fe6b4c214244f9943f4c9005f7b59e805881cd2e8217d9"
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == \
        "4e7290120e11234a0e72ece6156d3ea2b00ade1ba05a8cd4512c8cba3778330a"


def test_decr_trace_has_one_delete_row_per_update(tmp_path, capsys):
    trace = tmp_path / "t.csv"
    assert main(["adversary", "--mode", "decr", "--epsilon", "0.1", "--n", "200",
                 "--subject", "greedy", "--trace", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "complete_fraction" not in out
    assert "copies=10 l=2" in out
    updates = int(out.split("updates=")[1].split()[0])
    rows = trace.read_text().splitlines()[2:]
    assert updates > 0
    assert len(rows) == updates
    assert all(row.split(",")[1].startswith("-e ") for row in rows)


def test_wrapped_exact_subject_runs_within_the_recourse_budget(tmp_path, capsys):
    # every subject can be wrapped: the exact maintainer is the tight
    # beta = 1 inner, and its wrapped run keeps the wrapper's budget
    eps, trace = 0.2, tmp_path / "t.csv"
    assert main(["--seed", "3", "adversary", "--mode", "incr", "--epsilon", str(eps),
                 "--n", "400", "--subject", "wrapped:exact", "--trace", str(trace)]) == 0
    out = capsys.readouterr().out
    rows = [row.split(",") for row in trace.read_text().splitlines()[2:]]
    assert len(rows) == int(out.split("updates=")[1].split()[0]) > 0
    assert max(int(row[2]) + int(row[3]) for row in rows) <= 16 * math.ceil(1 / eps)
