import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gradmorph.graph import (DEFAULT_TOLERANCE, DataError, Graph, Matching,
                             SpanningForest, UnionFind, UpdateEvent, slack,
                             solution_stats, validate_forest,
                             validate_matching)

from conftest import audit, path_graph


@pytest.mark.parametrize("scale, expected", [
    (0.5, DEFAULT_TOLERANCE),          # absolute below magnitude 1
    (1.0, DEFAULT_TOLERANCE),          # the switch point
    (1e6, DEFAULT_TOLERANCE * 1e6),    # relative above it
    (-1e6, DEFAULT_TOLERANCE * 1e6),
])
def test_slack_is_absolute_to_one_then_relative(scale, expected):
    assert slack(scale) == expected


def test_slack_defaults_to_scale_one():
    assert slack() == slack(1.0) == DEFAULT_TOLERANCE


def test_add_edge_rejects_self_loops_and_duplicates():
    g = Graph()
    with pytest.raises(DataError):
        g.add_edge(1, 1)
    g.add_edge(1, 2)
    with pytest.raises(DataError):
        g.add_edge(2, 1)
    with pytest.raises(DataError):
        g.add_edge(1, 3, 0.0)
    with pytest.raises(DataError):
        g.add_edge(1, 3, -2.0)


@pytest.mark.parametrize("w", [math.inf, -math.inf, math.nan])
def test_add_edge_rejects_non_finite_weights(w):
    g = Graph()
    with pytest.raises(DataError, match="positive and finite"):
        g.add_edge(1, 2, w)
    assert g.num_edges() == 0


def test_edge_ids_are_stable_and_fresh_after_reinsert():
    g = Graph()
    first = g.add_edge(1, 2)
    g.remove_edge_id(g.edge_id(1, 2))
    second = g.add_edge(1, 2)
    assert second != first


def test_apply_update_edge_cases():
    g = Graph()
    g.ensure_vertex(1)
    g.ensure_vertex(2)
    delta = g.apply_update(UpdateEvent.edge_insert(1, 2, 3.0))
    assert [(d[1], d[2], d[3]) for d in delta.added] == [(1, 2, 3.0)]
    with pytest.raises(DataError):
        g.apply_update(UpdateEvent.edge_insert(2, 1, 1.0))
    g.apply_update(UpdateEvent.edge_delete(1, 2))
    with pytest.raises(DataError):
        g.apply_update(UpdateEvent.edge_delete(1, 2))


def _tables(g: Graph) -> tuple:
    return (dict(g._edges), dict(g._by_pair),
            {v: set(ids) for v, ids in g._adj.items()}, set(g._vertices),
            g._next_id)


# each refused update names its fault in the text it had before edge updates
# wrote the tables directly, and changes no table
@pytest.mark.parametrize("ev, message", [
    (UpdateEvent.edge_insert(2, 1), "edge-insert targets present edge (2,1)"),
    (UpdateEvent.edge_insert(5, 5), "self-loop at vertex 5 rejected"),
    (UpdateEvent.edge_insert(1, 5, 0.0), "weight 0.0 on edge (1,5) rejected: "
     "weights must be positive and finite"),
    (UpdateEvent.edge_insert(5, 1, math.inf), "weight inf on edge (5,1) "
     "rejected: weights must be positive and finite"),
    (UpdateEvent.edge_delete(3, 1), "edge-delete targets absent edge (3,1)"),
    (UpdateEvent.vertex_insert(2, [(5, 1.0)]),
     "vertex-insert targets present vertex 2"),
    (UpdateEvent.vertex_delete(5), "vertex-delete targets absent vertex 5"),
    (UpdateEvent("+x", 1, 3), "unknown update kind '+x'"),
    # a +v refused at its second pair writes neither the vertex nor the first
    (UpdateEvent.vertex_insert(8, [(1, 1.0), (8, 1.0)]),
     "self-loop at vertex 8 rejected"),
    (UpdateEvent.vertex_insert(8, [(1, 1.0), (1, 2.0)]), "duplicate edge (8,1)"),
    (UpdateEvent.vertex_insert(8, [(1, 1.0), (3, -1.0)]), "weight -1.0 on edge "
     "(8,3) rejected: weights must be positive and finite"),
])
def test_apply_update_errors_leave_the_tables(ev, message):
    g = Graph()
    g.add_edge(1, 2, 1.5)
    g.add_edge(2, 3, 2.5)
    g.remove_edge_id(g.add_edge(3, 4))   # _next_id is past the live ids
    before = _tables(g)
    with pytest.raises(DataError) as err:
        g.apply_update(ev)
    assert str(err.value) == message
    assert _tables(g) == before


def test_vertex_delete_lists_incident_edges():
    g = Graph()
    for u in (2, 3, 4):
        g.add_edge(1, u)
    delta = g.apply_update(UpdateEvent.vertex_delete(1))
    assert len(delta.removed) == 3
    assert not g.has_vertex(1)
    with pytest.raises(DataError):
        g.apply_update(UpdateEvent.vertex_delete(1))


def test_vertex_insert_with_per_edge_weights():
    g = Graph()
    g.ensure_vertex(0)
    g.ensure_vertex(1)
    delta = g.apply_update(UpdateEvent.vertex_insert(9, [(0, 2.5), (1, 7.0)]))
    assert sorted(d[3] for d in delta.added) == [2.5, 7.0]
    with pytest.raises(DataError):
        g.apply_update(UpdateEvent.vertex_insert(9))


def test_validate_matching_examples():
    g = path_graph(3)
    assert validate_matching(g, Matching(g)).ok
    bad = [g.edge_id(0, 1), g.edge_id(1, 2)]
    report = validate_matching(g, bad)
    assert not report.ok and report.vertex == 1
    g.remove_edge_id(g.edge_id(1, 2))
    report = validate_matching(g, bad)
    assert not report.ok and report.reason == "missing edge"


def _naive_pairwise_check(g, eids):
    eids = list(eids)
    for e in eids:
        if not g.has_edge_id(e):
            return False
    for i in range(len(eids)):
        for j in range(i + 1, len(eids)):
            a = set(g.endpoints(eids[i]))
            b = set(g.endpoints(eids[j]))
            if a & b:
                return False
    return True


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_validate_matching_agrees_with_naive_pairwise(data):
    n = data.draw(st.integers(2, 10))
    g = Graph()
    for v in range(n):
        g.ensure_vertex(v)
    pairs = data.draw(st.sets(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda t: t[0] < t[1]), max_size=12))
    eids = [g.add_edge(u, v) for u, v in pairs]
    subset = data.draw(st.sets(st.sampled_from(eids), max_size=8)) if eids else set()
    assert validate_matching(g, subset).ok == _naive_pairwise_check(g, subset)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8), st.booleans()),
                max_size=40))
def test_update_sequences_keep_graph_invariants(moves):
    g = Graph()
    for v in range(9):
        g.ensure_vertex(v)
    for u, v, insert in moves:
        if u == v:
            continue
        if insert and not g.has_edge(u, v):
            g.apply_update(UpdateEvent.edge_insert(u, v, 1.0))
        elif not insert and g.has_edge(u, v):
            g.apply_update(UpdateEvent.edge_delete(u, v))
        audit(g)


def _labels(uf):
    """The smallest member of each element's set, per element of uf."""
    root_min = {}
    for x in uf.parent:
        r = uf.find(x)
        root_min[r] = min(root_min.get(r, x), x)
    return {x: root_min[uf.find(x)] for x in uf.parent}


def test_forest_spanning_agrees_with_union_find():
    g = Graph()
    e1 = g.add_edge(0, 1, 1.0)
    e2 = g.add_edge(1, 2, 1.0)
    g.add_edge(0, 2, 1.0)
    g.ensure_vertex(5)
    assert validate_forest(g, [e1, e2]).ok
    assert validate_forest(g, [e1]).reason == "does not span"
    cyc = [e1, e2, g.edge_id(0, 2)]
    assert validate_forest(g, cyc).reason == "cycle"
    uf = UnionFind(g.vertices)
    for e in (e1, e2):
        uf.union(*g.endpoints(e))
    assert _labels(uf) == g._component_labels()


def test_solution_stats():
    g = Graph()
    e1 = g.add_edge(0, 1, 5.0)
    e2 = g.add_edge(2, 3, 1.0)
    empty = solution_stats(g, Matching(g))
    assert (empty.size, empty.total_weight, empty.max_edge_weight) == (0, 0, 0)
    s = solution_stats(g, Matching(g, [e1, e2]))
    assert (s.size, s.total_weight, s.max_edge_weight) == (2, 6.0, 5.0)
    g.add_edge(0, 2, 1.0)
    with pytest.raises(DataError, match=r"^solution forest invalid: does not "
                                        r"span \(edge=None, vertex=\d+\)$"):
        solution_stats(g, SpanningForest(g, [e1]))


def test_kcycle_stats_fixture():
    # k disjoint heavy edges: size k, weight k*A, max A
    k, a = 4, 10.0
    g = Graph()
    edges = [g.add_edge(2 * i, 2 * i + 1, a) for i in range(k)]
    s = solution_stats(g, Matching(g, edges))
    assert (s.size, s.total_weight, s.max_edge_weight) == (k, k * a, a)


def test_matching_weight_is_exact_after_cancelling_updates():
    g = Graph()
    eids = [g.add_edge(2 * i, 2 * i + 1, w) for i, w in enumerate((0.1, 0.2, 0.3, 1e16))]
    m = Matching(g, eids[:3])
    # correctly rounded, unlike the left-to-right 0.1 + 0.2 + 0.3
    assert m.weight() == math.fsum((0.1, 0.2, 0.3)) == 0.6 != 0.1 + 0.2 + 0.3
    m.add(eids[3])
    m.remove(eids[0])
    assert m.weight() == math.fsum((0.2, 0.3, 1e16))
    m.remove(eids[3])
    g.remove_edge_id(eids[1])
    m.remove(eids[1])
    m.remove(eids[2])
    # a float running total would keep rounding residue here
    assert m.weight() == 0.0 and len(m) == 0


def test_remove_takes_out_edges_the_graph_already_deleted():
    """A matching holds each edge's own row, so remove reads nothing from
    the graph: edges that -e and -v deleted leave with their index entries
    and their share of the exact total."""
    g = Graph()
    ws = (0.1, 0.2, 0.3, 1e16)
    eids = [g.add_edge(2 * i, 2 * i + 1, w) for i, w in enumerate(ws)]
    m = Matching(g, eids)
    assert m.weight() == math.fsum(ws)   # the running total starts here
    g.apply_update(UpdateEvent.edge_delete(0, 1))
    g.apply_update(UpdateEvent.vertex_delete(5))
    m.remove(eids[0])
    m.remove(eids[2])
    assert len(m) == 2
    assert m.vertex_index == {2: eids[1], 3: eids[1], 6: eids[3], 7: eids[3]}
    assert m.weight() == math.fsum((0.2, 1e16))


_WEIGHTS = st.one_of(st.floats(min_value=5e-324, max_value=1e300),
                     st.sampled_from([0.1, 0.2, 0.3, 1.0, 2.0 ** 53, 1e16]))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_matching_weight_equals_fsum_of_current_edges(data):
    """After any mix of add, remove (of live and of deleted edges) and
    refused calls, weight() is the correctly rounded sum of the edges held,
    however and whenever the running total started, and however often it
    is asked."""
    pairs = data.draw(st.integers(1, 6))
    g = Graph()
    weights: dict[int, float] = {}            # every eid ever inserted
    live: list[int] = []                      # current eid of pair i
    for i in range(pairs):
        w = data.draw(_WEIGHTS)
        live.append(g.add_edge(2 * i, 2 * i + 1, w))
        weights[live[i]] = w
    pair_of = {eid: i for i, eid in enumerate(live)}
    m, model = Matching(g), {}                # model: eid -> weight
    steps = data.draw(st.integers(0, 30))
    start = data.draw(st.integers(0, steps))  # step of the first weight()
    for step in range(steps):
        held_pairs = {pair_of[e] for e in model}
        op = data.draw(st.sampled_from(["add", "remove", "dead", "refused"]))
        if op == "refused":
            # an add of a held edge, or a removal of one not held, raises
            # and changes neither the edges nor the weight
            i = data.draw(st.integers(0, pairs - 1))
            with pytest.raises(DataError):
                (m.add if live[i] in model else m.remove)(live[i])
        elif op == "add" and len(held_pairs) < pairs:
            i = data.draw(st.sampled_from(sorted(set(range(pairs)) - held_pairs)))
            m.add(live[i])
            model[live[i]] = weights[live[i]]
        elif op == "remove" and any(g.has_edge_id(e) for e in model):
            eid = data.draw(st.sampled_from([e for e in model if g.has_edge_id(e)]))
            m.remove(eid)
            del model[eid]
        elif op == "dead" and model:
            eid = data.draw(st.sampled_from(list(model)))
            i = pair_of[eid]
            if g.has_edge_id(eid):
                # delete from the graph, then reinsert the pair under a new id
                g.remove_edge_id(eid)
                w = data.draw(_WEIGHTS)
                live[i] = g.add_edge(2 * i, 2 * i + 1, w)
                weights[live[i]] = w
                pair_of[live[i]] = i
            m.remove(eid)
            del model[eid]
        assert {eid: w for eid, (_, _, w) in m.edges.items()} == model
        if step >= start:
            got = m.weight()
            assert isinstance(got, float)
            assert got == math.fsum(model.values())
            assert m.weight() == got   # asked twice running
            if not model:
                assert got == 0.0


# -- whole-set construction and checks against one-edge-at-a-time references


@st.composite
def _graph_and_id_list(draw):
    """A small dense graph with some edges deleted, and a list of ids drawn
    from live, dead and never-used ids (repeats and shared endpoints
    included), or a valid matching in random order."""
    n = draw(st.integers(2, 8))
    g = Graph()
    for v in range(n):
        g.ensure_vertex(v)
    for u, v in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                        st.integers(0, n - 1)), max_size=16)):
        if u != v and not g.has_edge(u, v):
            g.add_edge(u, v, draw(_WEIGHTS))
    created = g.num_edges()
    if created:
        for eid in draw(st.sets(st.integers(0, created - 1))):
            g.remove_edge_id(eid)
    live = list(g.edge_ids())
    if live and draw(st.booleans()):
        ids, used = [], set()
        for eid in draw(st.permutations(live)):
            if used.isdisjoint(g.endpoints(eid)):
                ids.append(eid)
                used.update(g.endpoints(eid))
        return g, ids
    return g, draw(st.lists(st.integers(-1, created + 1), max_size=10))


def _added_one_by_one(g, ids):
    """(Matching built by one add() per id, None), or (None, add's error)."""
    m = Matching(g)
    try:
        for eid in ids:
            m.add(eid)
    except DataError as exc:
        return None, str(exc)
    return m, None


def _reference_scan(g, ids):
    """validate_matching's report as (ok, reason, edge, vertex): the first
    missing edge or shared endpoint met scanning ids in order."""
    seen = set()
    for eid in ids:
        if not g.has_edge_id(eid):
            return False, "missing edge", eid, None
        for x in g.endpoints(eid):
            if x in seen:
                return False, "shared endpoint", eid, x
            seen.add(x)
    return True, "", None, None


@settings(max_examples=300, deadline=None)
@given(_graph_and_id_list())
def test_matching_build_equals_sequential_adds(case):
    g, ids = case
    ref, error = _added_one_by_one(g, ids)
    if error is not None:
        with pytest.raises(DataError) as exc:
            Matching(g, ids)
        assert str(exc.value) == error
        return
    m = Matching(g, ids)
    assert list(m.edges.items()) == list(ref.edges.items())
    assert list(m.vertex_index.items()) == list(ref.vertex_index.items())
    assert m.weight() == ref.weight()


@settings(max_examples=300, deadline=None)
@given(_graph_and_id_list())
def test_validate_matching_equals_per_edge_scan(case):
    g, ids = case
    report = validate_matching(g, ids)
    assert (report.ok, report.reason, report.edge, report.vertex) == \
        _reference_scan(g, ids)


def test_validate_matching_reads_endpoints_from_graph():
    g = path_graph(4)
    m = Matching(g)
    m.edges = {g.edge_id(0, 1): 1.0, g.edge_id(1, 2): 1.0}  # index left empty
    report = validate_matching(g, m)
    assert (report.reason, report.edge, report.vertex) == \
        ("shared endpoint", g.edge_id(1, 2), 1)


def test_validate_matching_checks_a_matchings_vertex_index():
    """A Matching's index must map exactly its 2|M| endpoints to their
    edges: the first endpoint, in edge order, that it maps elsewhere is
    named, and then the first entry that is no endpoint at all."""
    g = path_graph(8)
    ids = [g.edge_id(v, v + 1) for v in (0, 2, 4)]
    for plant, edge, vertex in (
            (lambda index: index.update({2: ids[2]}), ids[1], 2),
            (lambda index: index.pop(5), ids[2], 5),
            (lambda index: index.update({7: ids[0]}), ids[0], 7)):
        m = Matching(g, ids)
        assert validate_matching(g, m).ok
        plant(m.vertex_index)
        report = validate_matching(g, m)
        assert (report.ok, report.reason, report.edge, report.vertex) == \
            (False, "vertex index disagrees", edge, vertex)
        # the ids alone, with endpoints read from g, are still a matching
        assert validate_matching(g, list(m.edges)).ok


def _reference_forest(g, ids):
    """validate_forest's report as (ok, reason, edge, vertex), comparing
    every vertex's forest and graph component labels."""
    uf = UnionFind(g.vertices)
    for eid in ids:
        if not g.has_edge_id(eid):
            return False, "missing edge", eid, None
        if not uf.union(*g.endpoints(eid)):
            return False, "cycle", eid, None
    graph_labels, forest_labels = g._component_labels(), _labels(uf)
    for v in g.vertices:
        if graph_labels[v] != forest_labels[v]:
            return False, "does not span", None, v
    return True, "", None, None


def _triangle():
    g = path_graph(3)
    g.add_edge(0, 2, 1.0)
    return g


@settings(max_examples=300, deadline=None)
@given(_graph_and_id_list(), st.sampled_from(["ids", "forest", "forest - 1"]))
@example(case=(_triangle(), [0, 1, 2, 7]), kind="ids")   # cycle, then missing
@example(case=(_triangle(), [0, 7, 1, 2]), kind="ids")   # missing, then cycle
def test_validate_forest_equals_label_comparison(case, kind):
    g, ids = case
    if kind != "ids":
        # a spanning forest of g, or one that misses its last edge
        uf = UnionFind(g.vertices)
        ids = [e for e in g.edge_ids() if uf.union(*g.endpoints(e))]
        if kind == "forest - 1":
            ids = ids[:-1]
    report = validate_forest(g, ids)
    assert (report.ok, report.reason, report.edge, report.vertex) == \
        _reference_forest(g, ids)


def _fresh_labels(g):
    uf = UnionFind(g.vertices)
    for _, u, v, _ in g.edges():
        uf.union(u, v)
    return _labels(uf)


MUTATIONS = {
    "ensure_vertex": lambda g: g.ensure_vertex(9),
    "ensure_present_vertex": lambda g: g.ensure_vertex(2),
    "add_edge": lambda g: g.add_edge(2, 4, 1.0),        # joins two components
    "add_edge_new_vertex": lambda g: g.add_edge(4, 9, 1.0),
    "remove_edge_id": lambda g: g.remove_edge_id(g.edge_id(1, 2)),   # splits one
    "remove_vertex": lambda g: g.remove_vertex(1),
    "+e": lambda g: g.apply_update(UpdateEvent.edge_insert(3, 5)),
    "-e": lambda g: g.apply_update(UpdateEvent.edge_delete(3, 4)),
    "+v": lambda g: g.apply_update(UpdateEvent.vertex_insert(9, [(0, 1.0), (5, 2.0)])),
    "-v": lambda g: g.apply_update(UpdateEvent.vertex_delete(4)),
}


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_components_follow_every_mutation(name):
    # components 0-1-2 and 3-4, isolated 5; labels are cached between calls
    g = path_graph(3)
    g.add_edge(3, 4, 1.0)
    g.ensure_vertex(5)
    assert g._component_labels() == _fresh_labels(g)
    MUTATIONS[name](g)
    assert g._component_labels() == _fresh_labels(g)

