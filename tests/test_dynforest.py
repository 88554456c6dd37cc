import random
from pathlib import Path

import pytest

import gradmorph
from gradmorph.dynforest import LinkCutForestIndex, make_index
from gradmorph.graph import ContractError, DataError

from naive_forest import NaiveForestIndex

KINDS = ("naive", "linkcut")


def _index(kind):
    """The naive reference, or the index the library makes."""
    return NaiveForestIndex() if kind == "naive" else make_index(kind)


def _connected(idx, u, v):
    """Whether u and v share a tree of idx, asked through the path query:
    it raises DataError exactly when they do not."""
    if u == v:
        return True
    try:
        idx.path_edge_outside(u, v)
    except DataError:
        return False
    except ContractError:   # connected, with no dummy-2 edge between
        pass
    return True


def test_single_edge_path_query():
    for kind in KINDS:
        idx = _index(kind)
        idx.link(0, 1, 2, 2)
        assert idx.path_edge_outside(1, 2) == 0
        idx.set_dummy(0, 1)
        with pytest.raises(ContractError):
            idx.path_edge_outside(1, 2)


def test_path_dummies_third_edge():
    for kind in KINDS:
        idx = _index(kind)
        dummies = [1, 1, 2, 1]
        for i, d in enumerate(dummies):
            idx.link(i, i, i + 1, d)
        assert idx.path_edge_outside(0, 4) == 2


def test_link_cut_errors():
    for kind in KINDS:
        idx = _index(kind)
        idx.link(0, 1, 2, 1)
        idx.link(1, 2, 3, 1)
        with pytest.raises(DataError):
            idx.link(2, 1, 3, 1)  # would close a cycle
        with pytest.raises(DataError):
            idx.link(0, 7, 8, 1)  # duplicate id
        idx.cut(0)
        with pytest.raises(DataError):
            idx.cut(0)
        assert not _connected(idx, 1, 3) or _connected(idx, 2, 3)


def _drive(ops_count, seed, kinds, n=120):
    """Random link/cut/set/query workload; asserts cross-implementation
    agreement on connectivity, returned dummy weight, and path membership."""
    rng = random.Random(seed)
    indexes = {kind: _index(kind) for kind in kinds}
    oracle = indexes["naive"]
    edges = {}      # eid -> (u, v)
    alive = []
    next_eid = 0
    queries = 0
    for _ in range(ops_count):
        roll = rng.random()
        if roll < 0.40:
            u, v = rng.randrange(n), rng.randrange(n)
            if u == v or oracle.connected(u, v):
                continue
            d = rng.choice((1, 2))
            for idx in indexes.values():
                idx.link(next_eid, u, v, d)
            edges[next_eid] = (u, v)
            alive.append(next_eid)
            next_eid += 1
        elif roll < 0.55 and alive:
            pos = rng.randrange(len(alive))
            eid = alive[pos]
            alive[pos] = alive[-1]
            alive.pop()
            for idx in indexes.values():
                idx.cut(eid)
            del edges[eid]
        elif roll < 0.70 and alive:
            eid = rng.choice(alive)
            d = rng.choice((1, 2))
            for idx in indexes.values():
                idx.set_dummy(eid, d)
        elif alive:
            eid = rng.choice(alive)
            u, _ = edges[eid]
            v = rng.randrange(n)
            if not oracle.connected(u, v) or u == v:
                continue
            path = oracle.path_edges(u, v)
            has_outside = any(oracle.dummy(e) == 2 for e in path)
            queries += 1
            results = {}
            for kind, idx in indexes.items():
                if has_outside:
                    results[kind] = idx.path_edge_outside(u, v)
                else:
                    with pytest.raises(ContractError):
                        idx.path_edge_outside(u, v)
            if has_outside:
                expected = results["naive"]
                for kind, got in results.items():
                    assert got in path, (kind, got)
                    assert oracle.dummy(got) == 2, (kind, got)
                    # both walk from u, so the witness agrees exactly
                    assert got == expected, (kind, got, expected)
    return queries


def test_differential_small():
    queries = _drive(4000, seed=11, kinds=KINDS)
    assert queries > 200


def test_connectivity_matches_naive():
    rng = random.Random(5)
    indexes = {kind: _index(kind) for kind in KINDS}
    pairs = []
    next_eid = 0
    for _ in range(400):
        u, v = rng.randrange(40), rng.randrange(40)
        if u == v:
            continue
        if not indexes["naive"].connected(u, v) and rng.random() < 0.7:
            for idx in indexes.values():
                idx.link(next_eid, u, v, 1)
            pairs.append((u, v))
            next_eid += 1
        expected = indexes["naive"].connected(u, v)
        for kind in KINDS[1:]:
            assert _connected(indexes[kind], u, v) == expected


def _random_forest(rng, n):
    """Edges (eid, u, v, dummy) of a random forest on n vertices with
    sparse ids, in shuffled order."""
    parent = {v: rng.randrange(v) for v in range(1, n) if rng.random() < 0.85}
    edges = [(3 * v + 1, p, v, rng.choice((1, 2))) for v, p in parent.items()]
    rng.shuffle(edges)
    return edges


def test_load_answers_like_sequential_links():
    rng = random.Random(21)
    for trial in range(30):
        n = rng.randint(2, 60)
        edges = _random_forest(rng, n)
        for kind in KINDS:
            loaded, linked = _index(kind), _index(kind)
            loaded.load(edges)
            for eid, u, v, dummy in edges:
                linked.link(eid, u, v, dummy)
            for _ in range(60):
                u, v = rng.randrange(n), rng.randrange(n)
                assert _connected(loaded, u, v) == _connected(linked, u, v)
                if u == v or not _connected(linked, u, v):
                    continue
                try:
                    expected = linked.path_edge_outside(u, v)
                except ContractError:
                    with pytest.raises(ContractError):
                        loaded.path_edge_outside(u, v)
                else:
                    assert loaded.path_edge_outside(u, v) == expected
            # a loaded index keeps working under cuts and links
            if edges:
                eid, u, v, dummy = edges[0]
                loaded.cut(eid)
                assert not _connected(loaded, u, v)
                loaded.link(eid, u, v, dummy)
                assert _connected(loaded, u, v)


def test_load_rejects_a_cycle_and_stays_empty():
    cyclic = [(0, 1, 2, 2), (1, 2, 3, 1), (2, 4, 5, 2), (3, 3, 1, 2)]
    repeated = cyclic[:3] + [(0, 6, 7, 2)]   # a forest that reuses id 0
    for bad, fault in ((cyclic, "cycle"),
                       (repeated, "repeated edge id|already linked")):
        for kind in KINDS:
            idx = _index(kind)
            with pytest.raises(DataError, match=fault):
                idx.load(bad)
            for eid, u, v, _ in bad:
                assert not _connected(idx, u, v)
            # nothing was kept: the same ids load again once valid
            idx.load(cyclic[:3])
            assert _connected(idx, 1, 3) and not _connected(idx, 3, 4)


def test_load_needs_an_index_without_edges():
    for kind in KINDS:
        idx = _index(kind)
        idx.link(0, 1, 2, 2)
        with pytest.raises(DataError):
            idx.load([(1, 5, 6, 2)])
        idx.cut(0)
        idx.load([(1, 5, 6, 2)])
        assert idx.path_edge_outside(5, 6) == 1


def test_path_query_on_disconnected_vertices_raises():
    for kind in KINDS:
        idx = _index(kind)
        idx.load([(0, 1, 2, 2), (1, 3, 4, 2)])
        with pytest.raises(DataError):
            idx.path_edge_outside(1, 3)
        with pytest.raises(DataError):
            idx.path_edge_outside(1, 99)   # a vertex the index never saw
        assert idx.path_edge_outside(2, 1) == 0


def test_make_index_builds_only_the_link_cut_index():
    assert isinstance(make_index("linkcut"), LinkCutForestIndex)
    with pytest.raises(DataError, match="unknown index kind 'naive'"):
        make_index("naive")


def test_package_is_pure_python():
    # one link-cut core: no extension source may ship beside the .py files
    package = Path(gradmorph.__file__).resolve().parent
    others = [p.name for p in package.rglob("*")
              if p.is_file() and "__pycache__" not in p.parts
              and p.suffix != ".py"]
    assert others == []

