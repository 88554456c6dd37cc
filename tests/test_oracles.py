import pytest

from gradmorph.gen import random_graph, random_matching
from gradmorph.graph import BudgetError, Graph, UpdateEvent, validate_matching
from gradmorph.oracles import (exhaustive_transform_search, max_matching_exact,
                               max_weight_matching_exact, msf_exact)
from gradmorph.sim import run_simulation
from gradmorph.wrapper import GreedyMaximalMatching

from conftest import alternating_cycle_fixture, cycle_graph, path_graph


def has_augmenting_path(g: Graph, matching_ids: set[int]) -> bool:
    """Certificate check: does any augmenting path exist for the matching?

    Exhaustive DFS over simple alternating paths from each free vertex.
    Branching happens only at non-matching edges (the matched continuation
    is forced), which is sound on general graphs; intended for
    oracle-budget-sized inputs.
    """
    mate_edge: dict[int, int] = {}
    for eid in matching_ids:
        u, v, _ = g.edge(eid)
        mate_edge[u] = eid
        mate_edge[v] = eid
    free = sorted(v for v in g.vertices if v not in mate_edge)

    def dfs(x: int, on_path: set[int]) -> bool:
        for eid in g.incident(x):
            if eid in matching_ids:
                continue
            a, b, _ = g.edge(eid)
            y = b if a == x else a
            if y in on_path:
                continue
            mate = mate_edge.get(y)
            if mate is None:
                return True
            ma, mb, _ = g.edge(mate)
            z = mb if ma == y else ma
            if z in on_path:
                continue
            on_path.add(y)
            on_path.add(z)
            if dfs(z, on_path):
                return True
            on_path.discard(y)
            on_path.discard(z)
        return False

    return any(dfs(start, {start}) for start in free)


def test_even_path_matching_size():
    for k in (1, 2, 4):
        g = path_graph(2 * k)
        assert len(max_matching_exact(g)) == k


def test_triangle_matching():
    g = cycle_graph(3)
    assert len(max_matching_exact(g)) == 1


def test_budget_refusal():
    g = path_graph(20)
    with pytest.raises(BudgetError):
        max_matching_exact(g)


def test_simulation_oracle_check_refuses_more_than_16_vertices():
    for n in (16, 17):
        g = Graph()
        for v in range(n):
            g.ensure_vertex(v)
        events = [UpdateEvent.edge_insert(0, 1, 1.0)]
        if n > 16:
            with pytest.raises(BudgetError, match="refused: 17 vertices > budget 16"):
                run_simulation(g, GreedyMaximalMatching(g), events, oracle_check=True)
        else:
            result = run_simulation(g, GreedyMaximalMatching(g), events,
                                    oracle_check=True)
            assert result.rows[0].opt_size == 1


def test_oracle_beats_greedy_and_certifies(rng):
    for _ in range(30):
        g = random_graph(rng, 10, rng.randint(5, 20))
        exact = max_matching_exact(g)
        assert validate_matching(g, exact).ok
        greedy = random_matching(rng, g, density=1.0)
        assert len(exact) >= len(greedy)
        assert not has_augmenting_path(g, set(exact))
        if len(greedy) < len(exact):
            assert has_augmenting_path(g, set(greedy.edge_ids()))


def test_weighted_oracle(rng):
    g = Graph()
    heavy = g.add_edge(0, 1, 10.0)
    g.add_edge(1, 2, 1.0)
    g.add_edge(2, 3, 1.0)
    ids = max_weight_matching_exact(g)
    assert heavy in ids
    for _ in range(20):
        g = random_graph(rng, 8, 12, 1.0, 100.0)
        unweighted_best = len(max_matching_exact(g))
        weighted = max_weight_matching_exact(g)
        w = sum(g.weight(e) for e in weighted)
        # weighted optimum is at least any single heaviest edge
        if g.num_edges():
            assert w >= max(wt for _, _, _, wt in g.edges()) - 1e-9
        assert len(weighted) <= unweighted_best


def test_oracle_determinism(rng):
    g = random_graph(rng, 9, 14, 1.0, 10.0)
    assert max_matching_exact(g) == max_matching_exact(g)
    assert max_weight_matching_exact(g) == max_weight_matching_exact(g)


def test_msf_exact():
    g = path_graph(4)
    assert sorted(msf_exact(g)) == sorted(g.edge_ids())
    g2 = cycle_graph(3, [1.0, 2.0, 3.0])
    picked = msf_exact(g2)
    assert sorted(g2.weight(e) for e in picked) == [1.0, 2.0]


def test_msf_exact_beats_random_forests(rng):
    from gradmorph.gen import random_spanning_forest
    for _ in range(20):
        g = random_graph(rng, 20, 40, 1.0, 50.0, connected=True)
        best = sum(g.weight(e) for e in msf_exact(g))
        rand = sum(g.weight(e) for e in random_spanning_forest(rng, g).edges)
        assert best <= rand + 1e-9


def test_search_4cycle_dip_forced():
    g, src, tgt = alternating_cycle_fixture(2, 1.0, 1.0)
    res = exhaustive_transform_search(
        g, set(src.edge_ids()), set(tgt.edge_ids()), delta=3, floor=2,
        floor_kind="size", granularity="phase")
    assert not res.feasible
    res = exhaustive_transform_search(
        g, set(src.edge_ids()), set(tgt.edge_ids()), delta=3, floor=1,
        floor_kind="size", granularity="phase")
    assert res.feasible
    assert set(res.path[-1]) >= set(tgt.edge_ids())


def test_search_matches_planner_on_4cycle():
    from gradmorph.mcm import plan_mcm
    from gradmorph.script import replay
    g, src, tgt = alternating_cycle_fixture(2, 1.0, 1.0)
    script = plan_mcm(g, src, tgt)
    report = replay(g, src.edge_ids(), script)
    assert report.worst_size == 1  # planner hits the certified floor


def test_search_weighted_kcycle_dip():
    k, a, d = 3, 10.0, 1.0
    g, src, tgt = alternating_cycle_fixture(k, a, a + d)
    w_src = k * a
    forced_dip = a - k * d
    res = exhaustive_transform_search(
        g, set(src.edge_ids()), set(tgt.edge_ids()),
        delta=3 * 2 + 3, floor=w_src - forced_dip + 0.5,
        floor_kind="weight", granularity="op")
    assert not res.feasible
    # and some schedule exists when the dip is allowed
    res = exhaustive_transform_search(
        g, set(src.edge_ids()), set(tgt.edge_ids()),
        delta=3 * 2 + 3, floor=0.0, floor_kind="weight", granularity="op")
    assert res.feasible
