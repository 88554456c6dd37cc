import hashlib
import random

import pytest

from gradmorph.gen import random_update_stream
from gradmorph.io import emit_updates

# Digests of one fixed-seed stream, pinned from the original generator that
# re-sorted its edges and vertices before every draw; keeping them sorted
# incrementally must leave every draw, and so every stream, unchanged.
PINNED = {
    False: (2726, "fcf741edf873862b3303401e9f1da8adbc627fe913133da9c5372f653550ad58"),
    True: (2774, "3ce78b779b6b254545e0154e0f79be00f4c7c0fe15844b321580df54cc977f4c"),
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
