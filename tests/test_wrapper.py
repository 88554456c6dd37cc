import hashlib
import math

import pytest

from gradmorph.adversary import (ExactPathMaintainer, StaticSubject,
                                 gen_fully_dynamic)
from gradmorph.cli import main
from gradmorph.gen import random_update_stream
from gradmorph.graph import (ContractError, DataError, Graph, Matching,
                             UpdateEvent, validate_matching)
from gradmorph.oracles import max_matching_exact, max_weight_matching_exact
from gradmorph.sim import make_inner, run_simulation
from gradmorph.wrapper import (BatchRecompute, GreedyMaximalMatching,
                               InnerAlgorithm, OutputDelta, WindowState,
                               WrappedMatching, snapshot_truncated)


def _drive(g, algo, events, validate_every=1):
    deltas = []
    for i, ev in enumerate(events):
        delta = g.apply_update(ev)
        out = algo.handle_update(ev, delta)
        deltas.append(out)
        if i % validate_every == 0:
            assert validate_matching(g, algo.matching_ids()).ok
    return deltas


@pytest.mark.parametrize("name", ["greedy", "batch:2.0", "exact", "static"])
def test_inner_queries_describe_one_matching(name, rng):
    """Size, weight and ids of every inner algorithm agree at every step."""
    g = Graph()
    if name in ("exact", "static"):
        events = gen_fully_dynamic(0.1, rounds=2, n=60)
        inner = (ExactPathMaintainer if name == "exact" else StaticSubject)(g)
    else:
        for v in range(40):
            g.ensure_vertex(v)
        events = random_update_stream(rng, 40, 600, w_lo=1.0, w_hi=9.0,
                                      vertex_ops=True)
        inner = make_inner(name, g)
    # an empty matching weighs the float 0.0, as trace rows print it
    assert inner.current_weight() == 0.0
    assert isinstance(inner.current_weight(), float)
    assert isinstance(WrappedMatching(g, inner, 0.1).current_weight(), float)
    largest = 0
    for ev in events:
        inner.handle_update(ev, g.apply_update(ev))
        ids = inner.matching_ids()
        assert inner.current_size() == len(ids)
        assert inner.current_weight() == math.fsum(g.weight(e) for e in ids)
        assert isinstance(inner.current_weight(), float)
        assert validate_matching(g, ids).ok
        largest = max(largest, len(ids))
    assert (largest == 0) == (name == "static")


def test_greedy_on_incremental_star():
    g = Graph()
    inner = GreedyMaximalMatching(g)
    events = [UpdateEvent.edge_insert(0, i, 1.0) for i in range(1, 6)]
    _drive(g, inner, events)
    assert inner.current_size() == 1


def test_greedy_rematches_after_deletion(rng):
    g = Graph()
    inner = GreedyMaximalMatching(g)
    events = random_update_stream(rng, 30, 400, delete_prob=0.45)
    _drive(g, inner, events)
    # maximality: no graph edge has both endpoints free
    for eid, u, v, _ in g.edges():
        assert inner.matching.matched_edge(u) is not None or \
            inner.matching.matched_edge(v) is not None


def test_batch_recompute_swap_recourse_on_growing_path():
    g = Graph()
    inner = BatchRecompute(g, eps_in=0.5)
    big_swap = False
    for v in range(60):
        ev = UpdateEvent.edge_insert(v, v + 1, 1.0)
        delta = g.apply_update(ev)
        out = inner.handle_update(ev, delta)
        if out.recourse() >= max(2, inner.current_size()):
            big_swap = True
    assert big_swap


def test_batch_recompute_approximation(rng):
    for _ in range(25):
        g = Graph()
        n = rng.randint(4, 14)
        for v in range(n):
            g.ensure_vertex(v)
        inner = BatchRecompute(g, eps_in=0.5)
        events = random_update_stream(rng, n, 80, delete_prob=0.35)
        _drive(g, inner, events, validate_every=5)
        # force a recompute and compare at the recompute point
        inner._steps_until_recompute = 1
        filler = UpdateEvent.vertex_insert(10_000 + rng.randrange(1000))
        delta = g.apply_update(filler)
        inner.handle_update(filler, delta)
        opt = len(max_matching_exact(g))
        assert inner.current_size() * (1 + inner.eps_in / 4) >= opt - 1e-9


def test_snapshot_truncated():
    g = Graph()
    ids = [g.add_edge(2 * i, 2 * i + 1, 1.0) for i in range(10)]

    class Fixed(InnerAlgorithm):
        def matching_ids(self):
            return ids

        def current_weight(self):
            return float(len(ids))

        def handle_update(self, ev, delta):
            return OutputDelta()

    snap = snapshot_truncated(g, Fixed(), 30)
    assert len(snap) == 10
    snap = snapshot_truncated(g, Fixed(), 3)
    assert len(snap) == 3


def test_contract_violation_surfaced():
    g = Graph()
    a = g.add_edge(0, 1, 1.0)
    b = g.add_edge(1, 2, 1.0)
    dead = g.add_edge(5, 6, 1.0)
    g.remove_edge_id(dead)

    class Broken(InnerAlgorithm):
        def __init__(self, ids):
            self.ids = ids

        def matching_ids(self):
            return self.ids

        def handle_update(self, ev, delta):
            return OutputDelta()

    for ids, fault in (([a, b], "vertex 1 already matched"),
                       ([a, dead], f"no edge with id {dead}"),
                       ([b, b], f"edge {b} already in matching")):
        with pytest.raises(ContractError, match=f"sub-matching: {fault}"):
            snapshot_truncated(g, Broken(ids), 5)


def test_window_close_names_first_unabsorbed_target_edge():
    g = Graph()
    ids = [g.add_edge(2 * i, 2 * i + 1, 1.0) for i in range(6)]
    wrapped = WrappedMatching(g, GreedyMaximalMatching(g), 0.1)
    wrapped.output = Matching(g, ids[:2])
    # ids[5] dies (nothing to absorb), ids[1] is absorbed; of the two left,
    # the error names the first in the target's order, not the smaller id
    target = Matching(g, [ids[5], ids[1], ids[4], ids[3]])
    g.remove_edge_id(ids[5])
    wrapped.window = WindowState(length=2, first_half=1, frozen_target=target,
                                 groups=[], elapsed=1)
    with pytest.raises(ContractError, match=f"absorbing target edge {ids[4]}$"):
        wrapped._window_step(OutputDelta())


def test_wrap_parameter_errors():
    g = Graph()
    inner = GreedyMaximalMatching(g)
    with pytest.raises(DataError):
        WrappedMatching(g, inner, eps=0.6)
    with pytest.raises(DataError):
        WrappedMatching(g, inner, eps=0.0)
    with pytest.raises(DataError):
        WrappedMatching(g, inner, eps=0.1, weighted=True, psi=0.5)
    w = WrappedMatching(g, inner, eps=0.1)
    assert w.declared_beta == pytest.approx(2.0 * (1 + 2 * 0.125) ** 2)


def test_deletion_tombstone_recourse():
    g = Graph()
    inner = GreedyMaximalMatching(g)
    wrapped = WrappedMatching(g, inner, eps=0.1)
    events = [UpdateEvent.edge_insert(0, 1, 1.0),
              UpdateEvent.edge_insert(2, 3, 1.0),
              UpdateEvent.edge_insert(4, 5, 1.0)]
    _drive(g, wrapped, events)
    assert wrapped.current_size() == 3
    # deleting a non-matched edge: recourse 0
    ev = UpdateEvent.edge_insert(1, 2, 1.0)
    delta = g.apply_update(ev)
    wrapped.handle_update(ev, delta)
    ev = UpdateEvent.edge_delete(1, 2)
    delta = g.apply_update(ev)
    out = wrapped.handle_update(ev, delta)
    assert out.recourse() == 0
    # deleting an output-matched edge: exactly the tombstone
    ev = UpdateEvent.edge_delete(0, 1)
    delta = g.apply_update(ev)
    out = wrapped.handle_update(ev, delta)
    assert out.removed and len(out.removed) == 1


def test_vertex_delete_bounded_change(rng):
    g = Graph()
    inner = GreedyMaximalMatching(g)
    wrapped = WrappedMatching(g, inner, eps=0.2)
    events = random_update_stream(rng, 40, 300, delete_prob=0.2)
    _drive(g, wrapped, events)
    budget = wrapped.sim_budget
    v = next(iter(sorted(g.vertices)))
    ev = UpdateEvent.vertex_delete(v)
    delta = g.apply_update(ev)
    out = wrapped.handle_update(ev, delta)
    removed_by_tombstone = sum(
        1 for eid, *_ in delta.removed if eid in out.removed)
    assert removed_by_tombstone <= 1
    assert out.recourse() <= budget + 1


@pytest.mark.parametrize("inner_name", ["greedy", "batch:2.0"])
def test_recourse_bound_sweep(rng, inner_name):
    for eps in (0.4, 0.1):
        g = Graph()
        for v in range(80):
            g.ensure_vertex(v)
        inner = make_inner(inner_name, g)
        wrapped = WrappedMatching(g, inner, eps=eps)
        events = random_update_stream(rng, 80, 4000, delete_prob=0.4,
                                      vertex_ops=True)
        result = run_simulation(g, wrapped, events)
        assert result.max_recourse <= 16 * math.ceil(1 / eps)
        assert validate_matching(g, wrapped.matching_ids()).ok


def test_small_instance_tracks_inner(rng):
    # in the instant-switch regime the output equals the inner matching
    g = Graph()
    for v in range(10):
        g.ensure_vertex(v)
    inner = GreedyMaximalMatching(g)
    wrapped = WrappedMatching(g, inner, eps=0.1)
    events = random_update_stream(rng, 10, 200, delete_prob=0.4)
    for ev in events:
        delta = g.apply_update(ev)
        wrapped.handle_update(ev, delta)
        assert sorted(wrapped.matching_ids()) == sorted(inner.matching_ids())


def test_stale_matching_approximation_property(rng):
    """Freeze a maximal matching, apply <= floor(eps' |M|) updates, and the
    survivor is still a (beta (1 + 2 eps'))-approximation."""
    trials = 0
    while trials < 120:
        n = rng.randint(6, 14)
        warmup = rng.randint(10, 60)
        eps_prime = rng.choice((0.5, 0.25))
        events = random_update_stream(rng, n, warmup + 2 * n, delete_prob=0.35)
        g = Graph()
        for ev in events[:warmup]:
            g.apply_update(ev)
        frozen = Matching(g)
        for eid in sorted(g.edge_ids()):
            u, v = g.endpoints(eid)
            if frozen.matched_edge(u) is None and frozen.matched_edge(v) is None:
                frozen.add(eid)
        if not frozen:
            continue
        trials += 1
        beta = 2.0  # maximal matching
        k = math.floor(eps_prime * len(frozen))
        for ev in events[warmup:warmup + k]:
            delta = g.apply_update(ev)
            for eid, u, v, _ in delta.removed:
                frozen.discard_dead(eid, (u, v))
        opt = len(max_matching_exact(g))
        assert len(frozen) * beta * (1 + 2 * eps_prime) >= opt


def test_weighted_mode_validity_and_recourse(rng):
    psi = 4.0
    g = Graph()
    for v in range(60):
        g.ensure_vertex(v)
    inner = GreedyMaximalMatching(g)
    wrapped = WrappedMatching(g, inner, eps=0.1, weighted=True, psi=psi)
    events = random_update_stream(rng, 60, 2500, delete_prob=0.4,
                                  w_lo=1.0, w_hi=psi)
    result = run_simulation(g, wrapped, events)
    assert result.max_recourse <= 16 * math.ceil(psi / 0.1)
    assert validate_matching(g, wrapped.matching_ids()).ok


def test_weighted_small_instance_weight_floor(rng):
    # weighted analogue of the completeness bound, checked vs exact oracle
    psi = 2.0
    eps = 0.1
    for _ in range(10):
        g = Graph()
        for v in range(10):
            g.ensure_vertex(v)
        inner = GreedyMaximalMatching(g)
        wrapped = WrappedMatching(g, inner, eps=eps, weighted=True, psi=psi)
        events = random_update_stream(rng, 10, 150, delete_prob=0.35,
                                      w_lo=1.0, w_hi=psi)
        for ev in events:
            delta = g.apply_update(ev)
            wrapped.handle_update(ev, delta)
            opt_ids = max_weight_matching_exact(g)
            opt_w = sum(g.weight(e) for e in opt_ids)
            floor = opt_w * (1 - eps) / (
                inner.beta * psi * (1 + 2 * wrapped.window_ratio) ** 2)
            assert wrapped.current_weight() >= floor - 1e-9


# sha256 of whole `simulate --trace` CSVs (manifest line included) on two
# fixed seeded streams, one unweighted and one weighted; any change to a
# window's snapshot, plan or playback moves them
PINNED_TRACES = [
    (["--seed", "3", "simulate", "--inner", "greedy", "--epsilon", "0.1",
      "--n", "300", "--random-updates", "3000"],
     "4990a2c76f0086907aaebfa742bac8555defda18fbd8f98e6c2a7e6c2296e8d2"),
    (["--seed", "3", "simulate", "--inner", "batch:2.0", "--weighted",
      "--psi", "2", "--epsilon", "0.1", "--n", "400", "--random-updates", "2500"],
     "f470bd60c55ceef8577a499b3f77cda59c91bbeb0df1e45280eebf4764c6f118"),
]


@pytest.mark.parametrize("argv, digest", PINNED_TRACES)
def test_simulate_traces_are_pinned(tmp_path, capsys, argv, digest):
    trace = tmp_path / "t.csv"
    assert main(argv + ["--trace", str(trace)]) == 0
    capsys.readouterr()
    text = trace.read_bytes()
    phases = {row.split(b",")[7] for row in text.splitlines()[2:]}
    assert b"second" in phases  # windows were really planned and played
    assert hashlib.sha256(text).hexdigest() == digest
