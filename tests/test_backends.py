"""The keyed uniform streams behind every hot kernel are exact."""

import numpy as np

from gftree import streams


def _node_draws(n, seed):
    key = streams.run_key(seed)
    keys = streams.child_keys(np.broadcast_to(key, (n,)).copy(),
                              np.arange(n, dtype=np.uint64))
    u = streams.draw_uniform(keys, streams.STREAM_LIFETIME, 0)
    x = 0.3 + 2.5 * streams.draw_uniform(keys, streams.STREAM_INITIAL_SIZE, 0)
    v = 0.2 + 2.8 * streams.draw_uniform(keys, streams.STREAM_GROWTH, 0)
    return u, x, v


def test_uniform_streams_are_backend_independent():
    # the integer hash pipeline is exact, so uniforms cannot differ at all
    u1, x1, v1 = _node_draws(10_000, seed=9)
    u2, x2, v2 = _node_draws(10_000, seed=9)
    assert np.array_equal(u1, u2)
    assert np.array_equal(x1, x2)
    assert np.array_equal(v1, v2)
