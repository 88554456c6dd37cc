import gc
import hashlib
import math
import random
import re
import tracemalloc
import weakref
from itertools import count, filterfalse, islice

import pytest

import gradmorph.graph
import gradmorph.mcm
import gradmorph.wrapper
from gradmorph.adversary import (ExactPathMaintainer, StaticSubject,
                                 gen_fully_dynamic)
from gradmorph.cli import main
from gradmorph.gen import random_update_stream
from gradmorph.graph import (ContractError, DataError, Graph, Matching,
                             UpdateEvent, ValidityReport, require_valid,
                             validate_matching)
from gradmorph.oracles import max_matching_exact, max_weight_matching_exact
from gradmorph.script import TransformationScript
from gradmorph.sim import make_inner, run_simulation
from gradmorph.wrapper import (BOOTSTRAP_CAP, BatchRecompute,
                               GreedyMaximalMatching, InnerAlgorithm,
                               OutputDelta, WrappedMatching)


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


def _paths_next_to_shared(shared_count=2000, paths=5, weighted=False):
    """|M| = shared_count + 2 * paths with k = 2 * paths target-only
    edges: paths a-b-c-d where the output holds bc and the inner ab and
    cd, next to shared_count edges that both hold."""
    g = Graph()
    shared = [g.add_edge(2 * i, 2 * i + 1, 1.0) for i in range(shared_count)]
    output_only, target_only = [], []
    base = 2 * shared_count
    for a in range(base, base + 4 * paths, 4):
        ab, bc, cd = (g.add_edge(a + i, a + i + 1, 1.0) for i in range(3))
        output_only.append(bc)
        target_only += [ab, cd]
    inner = GreedyMaximalMatching(g)
    inner.matching = Matching(g, shared + target_only)
    wrapped = WrappedMatching(g, inner, 0.1, weighted=weighted)
    wrapped.adopt_output(shared + output_only)
    return g, wrapped, shared, output_only, target_only


def test_window_work_follows_the_difference(monkeypatch):
    # |M| = 2,010 with k = 10 target-only edges. No step reads the inner
    # matching, and no open, plan or close allocates a list or set of |M|
    # ids: apart from the plan step's check of the output, a window's work
    # follows the difference. Nor does any step build the snapshot as a
    # matching, and the planner core reads O(k) edge rows.
    _window_work(monkeypatch, weighted=False)


def test_weighted_window_work_follows_the_difference(monkeypatch):
    # A weighted window opens and closes as an unweighted one does, from
    # the mirror; its plan step builds the snapshot and plans it whole
    # with plan_mwm_auto, so only that step is exempt, and max_step_work
    # counts it.
    _window_work(monkeypatch, weighted=True)


def _spy(monkeypatch, module, name, calls):
    """Replace module.name by a pass-through that records each call's
    arguments and result in calls."""
    fn = getattr(module, name)

    def spied(*args):
        result = fn(*args)
        calls.append((args, result))
        return result

    monkeypatch.setattr(module, name, spied)


def _window_work(monkeypatch, weighted):
    g, wrapped, shared, output_only, target_only = _paths_next_to_shared(
        weighted=weighted)
    inner = wrapped.inner

    calls = {"build": 0, "rows": 0, "core": 0, "reads": 0}
    checked, plans = [], []
    init = Matching.__init__

    def counted_init(self, g, edge_ids=()):
        edge_ids = list(edge_ids)
        calls["build"] += bool(edge_ids)
        init(self, g, edge_ids)

    class CountingRows(dict):
        def __getitem__(self, eid):
            calls["rows"] += 1
            return super().__getitem__(eid)

    core = gradmorph.mcm.plan_target_only

    def counted_core(*args):
        rows = calls["rows"]
        result = core(*args)
        calls["core"] = calls["rows"] - rows
        return result

    def counted_read(*args):
        calls["reads"] += 1
        return []

    def counted_check(g, m):
        # the matching gate's passes over whole matchings, recorded here
        # and run after the steps, so their allocations stay out of theirs
        checked.append(m)
        return ValidityReport(True)

    monkeypatch.setattr(Matching, "__init__", counted_init)
    monkeypatch.setattr(gradmorph.mcm, "plan_target_only", counted_core)
    monkeypatch.setattr(inner, "matching_ids", counted_read)
    monkeypatch.setattr(gradmorph.graph, "validate_matching", counted_check)
    _spy(monkeypatch, gradmorph.wrapper,
         "plan_mwm_auto" if weighted else "plan_mcm", plans)
    g._edges = CountingRows(g._edges)
    # a list of |M| ids alone takes 8 bytes an id
    whole = 8 * (len(shared) + len(target_only))
    peaks = {}
    vertex = 5000
    tracemalloc.start()
    try:
        while True:
            ev = UpdateEvent.vertex_insert(vertex)
            vertex += 1
            delta = g.apply_update(ev)
            opening, planned = wrapped.window is None, len(plans)
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            made = calls["build"]
            wrapped.handle_update(ev, delta)
            grown = tracemalloc.get_traced_memory()[1] - start
            if opening:
                peaks["open"] = grown
                assert wrapped.window is not None and not plans
            elif len(plans) > planned:
                peaks["plan"] = grown
                made_by_plan = calls["build"] - made
            elif wrapped.window is None:
                peaks["close"] = grown
                break
    finally:
        tracemalloc.stop()
    assert calls["reads"] == 0 and len(plans) == 1
    assert set(peaks) == {"open", "plan", "close"}
    (_, output, target, *size), plan = plans[0]
    assert output is wrapped.output and len(plan.phases) == 10
    # only a weighted plan step builds a matching
    assert calls["build"] == made_by_plan
    if weighted:
        del peaks["plan"]
        # the snapshot, output's edges first, and its build and check with
        # the output's: the gate checks the output once
        assert list(target.edges) == shared + target_only
        assert checked == [output, target] and made_by_plan == 1
        assert wrapped.max_step_work >= len(shared) + len(output_only)
    else:
        assert (target, size) == (target_only, [len(shared) + len(target_only)])
        assert checked == [output]
        assert made_by_plan == 0
        assert 0 < calls["core"] <= 3 * len(target_only)
        assert wrapped.max_step_work < len(shared)
    assert max(peaks.values()) < whole / 2, peaks
    assert sorted(wrapped.matching_ids()) == sorted(shared + target_only)
    monkeypatch.undo()
    require_valid(g, "current", wrapped.output)


def _stream_for(name, rng):
    """A graph and a seeded update stream that the named inner accepts,
    long enough for the wrapper to open windows."""
    g = Graph()
    if name in ("exact", "static"):
        # edges toggled on 60 disjoint 10-vertex paths: a union of paths
        events, present = [], set()
        for _ in range(3000):
            a = 10 * rng.randrange(60) + rng.randrange(9)
            if a in present:
                present.discard(a)
                events.append(UpdateEvent.edge_delete(a, a + 1))
            else:
                present.add(a)
                events.append(UpdateEvent.edge_insert(a, a + 1, 1.0))
        return g, events
    for v in range(300):
        g.ensure_vertex(v)
    return g, random_update_stream(rng, 300, 3000 if name == "greedy" else 1500,
                                   delete_prob=0.4, vertex_ops=True)


@pytest.mark.parametrize("name", ["greedy", "batch", "exact", "static"])
def test_mirror_follows_the_inner(name, rng):
    """At every step the mirror fed by the inner's deltas is its matching,
    and the two differences are those of the mirror and the output."""
    g, events = _stream_for(name, rng)
    inner = {"exact": ExactPathMaintainer, "static": StaticSubject}.get(
        name, lambda g: make_inner(name, g))(g)
    wrapped = WrappedMatching(g, inner, 0.1)
    for ev in events:
        wrapped.handle_update(ev, g.apply_update(ev))
        mirrored, output = set(wrapped.mirror), set(wrapped.output.edges)
        assert mirrored == set(inner.matching_ids())
        assert wrapped.mirror_index == inner.matching.vertex_index
        assert wrapped._inner_only == mirrored - output
        assert wrapped._output_only == output - mirrored
        if name == "greedy":  # same order too
            assert list(wrapped.mirror) == inner.matching_ids()
    assert (wrapped.windows > 0) == (name != "static")


def test_greedy_snapshot_keeps_the_inner_order(monkeypatch, rng):
    """Greedy applies its removals before its adds, so at every open the
    target-only ids are those of matching_ids(), capped or not, that are
    outside the output, in that order: the plan step gets the live ones."""
    g = Graph()
    for v in range(600):
        g.ensure_vertex(v)
    inner = GreedyMaximalMatching(g)
    events = random_update_stream(rng, 600, 4000, delete_prob=0.4,
                                  vertex_ops=True)
    for ev in events[:2000]:   # the inner alone, so some snapshots are capped
        inner.handle_update(ev, g.apply_update(ev))
    wrapped = WrappedMatching(g, inner, 0.1)
    plans = []
    _spy(monkeypatch, gradmorph.wrapper, "plan_mcm", plans)
    seen = {"capped": 0, "whole": 0}
    expected = None
    for ev in events[2000:]:
        opened = wrapped.windows
        wrapped.handle_update(ev, g.apply_update(ev))
        if plans:
            (_, _, given, _), _ = plans.pop()
            assert given == list(filter(g.has_edge_id, expected))
            expected = None
        if wrapped.windows == opened:
            continue
        output = wrapped.output.edges
        cap = max(2 * len(output), BOOTSTRAP_CAP)
        ids = inner.matching_ids()
        seen["capped" if len(ids) > cap else "whole"] += 1
        assert expected is None   # the last window planned before this open
        expected = list(filterfalse(output.__contains__, ids[:cap]))
    assert seen["capped"] > 0 and seen["whole"] > 0


def test_plan_step_sizes_the_snapshot_by_its_live_edges(monkeypatch, rng):
    """The plan step gets the snapshot's live target-only ids and its live
    size, also when a deletion in the first half hit an output-only edge:
    batch swaps its whole matching, so its windows hold many of those."""
    g = Graph()
    for v in range(300):
        g.ensure_vertex(v)
    wrapped = WrappedMatching(g, make_inner("batch:2.0", g), 0.1)
    plans = []
    _spy(monkeypatch, gradmorph.wrapper, "plan_mcm", plans)
    snapshot, hit = None, 0
    for ev in random_update_stream(rng, 300, 3000, delete_prob=0.4,
                                   vertex_ops=True):
        opened = wrapped.windows
        held = set(wrapped.output.edges)
        wrapped.handle_update(ev, g.apply_update(ev))
        if snapshot is not None:
            hit += any(e in held and e not in snapshot and not g.has_edge_id(e)
                       for e in held)
        if plans:
            (_, _, given, size), _ = plans.pop()
            assert given == list(filter(g.has_edge_id, target_only))
            assert size == len(list(filter(g.has_edge_id, snapshot)))
            snapshot = None
        if wrapped.windows > opened:
            cap = max(2 * len(wrapped.output), BOOTSTRAP_CAP)
            snapshot = list(islice(wrapped.mirror, cap))
            target_only = [e for e in snapshot if e not in wrapped.output]
    assert hit > 0


def _planted(g, wrapped, shared, fault):
    """Plant a fault in the output, far from the edges a window changes,
    and return the gate's report of it as (reason, edge, vertex)."""
    index = wrapped.output.vertex_index
    if fault == "dead id":
        g.remove_edge_id(shared[7])   # unseen by the wrapper
        return "missing edge", shared[7], None
    if fault == "wrong index entry":
        index[2 * 7] = shared[8]
        return "vertex index disagrees", shared[7], 14
    if fault == "missing index entry":
        del index[2 * 7 + 1]
        return "vertex index disagrees", shared[7], 15
    # vertex 400 starts a path whose middle edge the output holds, so no
    # output edge covers it
    index[400] = shared[7]
    return "vertex index disagrees", shared[7], 400


def _stepper(g, wrapped):
    """A step of wrapped that inserts a new isolated vertex each call."""
    vertices = count(5000)

    def step():
        ev = UpdateEvent.vertex_insert(next(vertices))
        return wrapped.handle_update(ev, g.apply_update(ev))

    return step


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("fault", ["dead id", "wrong index entry",
                                   "missing index entry", "extra index entry"])
def test_corrupted_output_raises_before_playback(fault, weighted):
    """A fault planted in the output before an open stops the window at
    its plan step, before any playback op, with the matching gate's text,
    which names the output the source whether the wrapper's own call
    (unweighted) or the weighted planner's raises it."""
    g, wrapped, shared, output_only, _ = _paths_next_to_shared(
        200, 5, weighted=weighted)
    reason, edge, vertex = _planted(g, wrapped, shared, fault)
    held = set(wrapped.output.edges)
    with pytest.raises(DataError, match=re.escape(
            f"source matching invalid: {reason} (edge={edge}, vertex={vertex})")):
        step = _stepper(g, wrapped)
        while True:
            assert step().recourse() == 0
    assert wrapped.last_window_phase == "second"
    assert set(wrapped.output.edges) == held


def test_inner_deltas_are_checked():
    """The mirror refuses a delta that does not describe the inner's
    matching, weighted or not, with Matching's own fault texts."""
    g = Graph()
    a, b, c, dead = (g.add_edge(u, u + 1, 1.0) for u in (0, 1, 5, 8))
    g.remove_edge_id(dead)

    class Told(InnerAlgorithm):
        def __init__(self, g):
            self.g, self.matching, self.change = g, Matching(g), OutputDelta()

        def handle_update(self, ev, delta):
            return self.change

    for weighted in (False, True):
        for change, fault in (
                (OutputDelta(added=[a, b]), "vertex 1 already matched by edge"),
                (OutputDelta(added=[c, c]), f"edge {c} already in matching"),
                (OutputDelta(added=[a, dead]),
                 f"sub-matching: no edge with id {dead}"),
                (OutputDelta(removed=[a]), f"edge {a} not in matching"),
                (OutputDelta(added=[a]), "inner reports 0 matched edges but "
                                         "its deltas give 1")):
            inner = Told(g)
            wrapped = WrappedMatching(g, inner, 0.1, weighted=weighted)
            inner.change = change
            ev = UpdateEvent.vertex_insert(100)
            with pytest.raises(ContractError, match=fault):
                wrapped.handle_update(ev, g.apply_update(ev))
            g.apply_update(UpdateEvent.vertex_delete(100))
        # a held edge that the update deletes must be reported removed
        inner = Told(g)
        inner.matching = Matching(g, [c])
        wrapped = WrappedMatching(g, inner, 0.1, weighted=weighted)
        ev = UpdateEvent.edge_delete(5, 6)
        with pytest.raises(ContractError,
                           match=f"sub-matching: no edge with id {c}"):
            wrapped.handle_update(ev, g.apply_update(ev))
        g.apply_update(UpdateEvent.edge_insert(5, 6, 1.0))
        c = g.edge_id(5, 6)


def _window_playing(monkeypatch, groups):
    """A wrapper that holds ids[0] and ids[1] of six disjoint edges, beside
    ids[6] = (1,2), whose next window opens on a snapshot of ids[5],
    ids[1], ids[4] and ids[3] in that order and plays groups(ids) as its
    plan, with its stepper and ids."""
    g = Graph()
    ids = [g.add_edge(2 * i, 2 * i + 1, 1.0) for i in range(6)]
    ids.append(g.add_edge(1, 2, 1.0))
    inner = GreedyMaximalMatching(g)
    inner.matching = Matching(g, [ids[5], ids[1], ids[4], ids[3]])
    wrapped = WrappedMatching(g, inner, 0.1)
    wrapped.adopt_output(ids[:2])
    wrapped.small_threshold = 0   # a window, not an instant switch
    monkeypatch.setattr(
        gradmorph.wrapper, "plan_mcm",
        lambda g, *args: TransformationScript(g, "mcm", phases=groups(ids)))
    return _stepper(g, wrapped), ids, wrapped


def _unabsorbing_window(monkeypatch):
    """A wrapper whose next window plans nothing, with ids[5] dead by
    then: ids[1] is shared, and of the two target-only edges left the close
    names the first in the snapshot's order, not the smaller."""
    step, ids, wrapped = _window_playing(monkeypatch, lambda ids: [])
    step()
    wrapped.g.remove_edge_id(ids[5])
    return step, ids, wrapped


@pytest.mark.parametrize("groups, budgets, fault", [
    # ids[1] is in the snapshot: only output-only ids[0] may leave
    (lambda ids: [[("remove", ids[1])]], {},
     "window op remove (2,3) drops a snapshot edge"),
    # (1,2) meets both output edges
    (lambda ids: [[("add", ids[6])]], {}, "window op add (1,2) conflicts with output"),
    # one step of playback, one group a step: the second group is left over
    (lambda ids: [[("remove", ids[0])], [("add", ids[3])]], {"sim_budget": 1},
     "window closed before its ops completed"),
    # the whole plan in one step, which a budget of 0 cannot take
    (lambda ids: [[("remove", ids[0]), *(("add", ids[i]) for i in (3, 4, 5))]],
     {"recourse_budget": 0}, "recourse 4 exceeds budget 0 at step {}"),
], ids=["remove-snapshot-edge", "add-conflicting-edge", "unfinished-plan",
        "recourse-over-budget"])
def test_window_playback_guards_name_their_fault(monkeypatch, groups, budgets,
                                                 fault):
    step, ids, wrapped = _window_playing(monkeypatch, groups)
    vars(wrapped).update(budgets)
    with pytest.raises(ContractError) as info:
        while True:
            step()
    assert str(info.value) == fault.format(wrapped.step_count)
    assert wrapped.last_window_phase == "second"


def test_window_close_names_first_unabsorbed_target_edge(monkeypatch):
    step, ids, _ = _unabsorbing_window(monkeypatch)
    with pytest.raises(ContractError, match=f"absorbing target edge {ids[4]}$"):
        while True:
            step()


@pytest.mark.parametrize("where", ["plan step", "close check"])
def test_a_window_that_raised_stays_failed(monkeypatch, where):
    """Every step after a window's failed one raises, so no window is
    dropped without its checks, and the output stays as it was."""
    if where == "plan step":
        g, wrapped, shared, _, _ = _paths_next_to_shared(200, 5)
        _planted(g, wrapped, shared, "wrong index entry")
        step, first = _stepper(g, wrapped), DataError
    else:
        step, _, wrapped = _unabsorbing_window(monkeypatch)
        first = ContractError
    with pytest.raises(first):
        while True:
            step()
    held = set(wrapped.output.edges)
    for _ in range(3):
        with pytest.raises(ContractError, match="failed at an earlier step"):
            step()
    with pytest.raises(ContractError, match="inside a window"):
        wrapped.adopt_output(())
    assert set(wrapped.output.edges) == held


@pytest.mark.parametrize("w_hi", [2.0, 10.0, 1000.0])
def test_weighted_wrapper_holds_weights_to_psi(rng, w_hi):
    """psi bounds the ratio of the weights a weighted wrapper has seen: the
    first insert that takes it beyond psi raises DataError naming its
    edge. An unweighted wrapper reads no weights."""
    psi = 2.0
    events = random_update_stream(rng, 12, 150, delete_prob=0.35,
                                  w_lo=1.0, w_hi=w_hi)
    g, seen, breaking = Graph(), [], None
    for ev in events:
        for _, u, v, w in g.apply_update(ev).added:
            seen.append(w)
            if breaking is None and max(seen) > psi * min(seen):
                breaking = w, u, v
    for weighted in (False, True):
        g = Graph()
        wrapped = WrappedMatching(g, GreedyMaximalMatching(g), 0.1,
                                  weighted=weighted, psi=psi)
        if weighted and breaking:
            w, u, v = breaking
            with pytest.raises(DataError, match=re.escape(
                    f"weight {w} on edge ({u},{v}) breaks psi {psi}")):
                _drive(g, wrapped, events)
        else:
            _drive(g, wrapped, events)
    assert (breaking is None) == (w_hi == psi)
    # the graph's own edges count as seen
    g = Graph()
    g.add_edge(0, 1, 1.0)
    g.add_edge(2, 3, 3.0)
    WrappedMatching(g, GreedyMaximalMatching(g), 0.1)
    with pytest.raises(DataError, match=re.escape(
            "weight 3.0 on edge (2,3) breaks psi 2.0")):
        WrappedMatching(g, GreedyMaximalMatching(g), 0.1, weighted=True,
                        psi=psi)


def test_a_wrapper_dropped_mid_window_is_freed_at_once():
    # a window that held its wrapper would make a reference cycle, which
    # keeps a dropped wrapper and its graph alive until the cyclic collector
    # runs
    g, wrapped, *_ = _paths_next_to_shared(200, 5)
    step = _stepper(g, wrapped)
    step()
    assert wrapped.window is not None
    ref = weakref.ref(wrapped)
    gc.disable()
    try:
        del wrapped, step
        assert ref() is None
    finally:
        gc.enable()


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


def test_weighted_declared_beta_holds_on_a_heavy_middle_edge():
    # greedy keeps the two light edges that block the heavy one: a ratio of
    # 5, which a bound without psi (2 * 1.25**2 = 3.125) misses
    g = Graph()
    inner = GreedyMaximalMatching(g)
    w = WrappedMatching(g, inner, eps=0.1, weighted=True, psi=10.0)
    _drive(g, w, [UpdateEvent.edge_insert(0, 1, 1.0),
                  UpdateEvent.edge_insert(2, 3, 1.0),
                  UpdateEvent.edge_insert(1, 2, 10.0)])
    opt = sum(map(g.weight, max_weight_matching_exact(g)))
    assert (w.current_weight(), opt) == (2.0, 10.0)
    assert w.declared_beta == pytest.approx(
        inner.beta * 10.0 * (1 + 2 * 0.125) ** 2 / (1 - 0.1))
    assert inner.beta * (1 + 2 * w.window_ratio) ** 2 < opt / w.current_weight()
    assert opt / w.current_weight() <= w.declared_beta


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
    (["--seed", "3", "simulate", "--inner", "batch:2.0",
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


# sha256 of SimulationResult.rows, all nine fields of every row, on seeded
# streams with vertex ops: wrapped and bare greedy, a weighted batch inner
# under psi 2, and a small oracle-checked run for the opt_size column. The
# rows are built from the run's columns; these digests were taken when each
# step built its row as it ran.
PINNED_ROWS = [
    ("greedy", True, 1.0, False, 300, 3000,
     "b632ed5fd596200239f8210d0e7c4a5841c36445cd2ce73683eee5b1479bd684"),
    ("greedy", False, 1.0, False, 300, 3000,
     "83b1fe783503b9ff1c99e3debe6b49fd9c1a68b93473c25dd45787eb6fbd4c3b"),
    ("batch:2.0", True, 2.0, False, 400, 2500,
     "0743bddaf232665c072ed8bbda9d81b4ebdce7364c9b354f4dd2e00c51383152"),
    ("greedy", True, 1.0, True, 12, 200,
     "433413a1c155e5a2580fc367f1c0d2e788cefcbce50206169ee8c026a83bc9ef"),
]


@pytest.mark.parametrize("inner, wrap, psi, oracle, n, count, digest", PINNED_ROWS)
def test_simulation_rows_are_pinned(inner, wrap, psi, oracle, n, count, digest):
    events = random_update_stream(random.Random(11), n, count, w_lo=1.0,
                                  w_hi=psi, vertex_ops=True)
    g = Graph()
    for v in range(n):
        g.ensure_vertex(v)
    algo = make_inner(inner, g)
    if wrap:
        algo = WrappedMatching(g, algo, 0.1, weighted=psi > 1.0, psi=psi)
    result = run_simulation(g, algo, events, oracle_check=oracle)
    rows = [(r.step, r.event, r.recourse_added, r.recourse_removed,
             r.output_size, r.output_weight, r.inner_size, r.window_phase,
             r.opt_size) for r in result.rows]
    assert len(rows) == result.steps == len(events)
    assert {r[1][:2] for r in rows} >= {"+v", "-v"}
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest
