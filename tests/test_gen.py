import hashlib
import random

import pytest

from gradmorph.gen import random_update_stream
from gradmorph.graph import DataError, Graph
from gradmorph.io import emit_updates

# Digests of one fixed-seed stream of exactly 3000 updates. Every draw is
# pinned: keeping the edges and vertices sorted incrementally, and each
# vertex's pairs indexed, must leave every stream unchanged.
PINNED = {
    False: (3000, "c8d8f2073e224adfc8b74321db1778483f551036b9cdc7e377a65cf0321c2f1f"),
    True: (3000, "1032cdc83f74f2a9093239325f6e2bef9965d8859ba71de2096b7906176f5398"),
}


@pytest.mark.parametrize("vertex_ops", [False, True])
def test_random_update_stream_is_pinned(vertex_ops):
    events = random_update_stream(random.Random(2024), 50, 3000,
                                  delete_prob=0.4, w_lo=1.0, w_hi=7.0,
                                  vertex_ops=vertex_ops)
    digest = hashlib.sha256(emit_updates(events).encode()).hexdigest()
    assert (len(events), digest) == PINNED[vertex_ops]
    kinds = {ev.kind for ev in events}
    assert ("-v" in kinds) == ("+v" in kinds) == vertex_ops


@pytest.mark.parametrize("n, delete_prob, vertex_ops",
                         [(2, 0.4, False), (5, 0.4, False), (5, 0.0, True)])
def test_random_update_stream_delivers_exactly_the_steps_asked(n, delete_prob,
                                                               vertex_ops):
    # small vertex sets, where many insert draws hit a present pair
    events = random_update_stream(random.Random(7), n, 400, delete_prob,
                                  vertex_ops=vertex_ops)
    assert len(events) == 400
    g = Graph()
    for v in range(n):
        g.ensure_vertex(v)
    for ev in events:
        g.apply_update(ev)


@pytest.mark.parametrize("n, delete_prob", [(0, 0.4), (1, 0.4), (3, 0.0)])
def test_random_update_stream_refuses_a_stream_with_no_update_left(n, delete_prob):
    # no pair to insert on, or every pair present and no deletes
    with pytest.raises(DataError, match="no insert or delete can be drawn"):
        random_update_stream(random.Random(7), n, 10, delete_prob)
