import numpy as np

from gftree import streams


def test_draws_are_reproducible():
    key = streams.run_key(123)
    a = streams.draw_uniform(key, streams.STREAM_LIFETIME, 0)
    b = streams.draw_uniform(key, streams.STREAM_LIFETIME, 0)
    assert np.array_equal(a, b)


def test_streams_and_counters_decorrelate():
    key = streams.run_key(123)
    u1 = streams.draw_uniform(key, streams.STREAM_LIFETIME, 0)
    u2 = streams.draw_uniform(key, streams.STREAM_GROWTH, 0)
    u3 = streams.draw_uniform(key, streams.STREAM_LIFETIME, 1)
    assert u1 != u2 and u1 != u3 and u2 != u3


def _node_draws(n, seed):
    key = streams.run_key(seed)
    keys = streams.child_keys(np.broadcast_to(key, (n,)).copy(),
                              np.arange(n, dtype=np.uint64))
    u = streams.draw_uniform(keys, streams.STREAM_LIFETIME, 0)
    x = 0.3 + 2.5 * streams.draw_uniform(keys, streams.STREAM_INITIAL_SIZE, 0)
    v = 0.2 + 2.8 * streams.draw_uniform(keys, streams.STREAM_GROWTH, 0)
    return u, x, v


def test_uniform_streams_are_deterministic():
    # the integer hash pipeline is exact, so uniforms cannot differ at all
    u1, x1, v1 = _node_draws(10_000, seed=9)
    u2, x2, v2 = _node_draws(10_000, seed=9)
    assert np.array_equal(u1, u2)
    assert np.array_equal(x1, x2)
    assert np.array_equal(v1, v2)


def test_child_keys_depend_on_bit():
    key = streams.run_key(5)
    left = streams.child_keys(key, 0)
    right = streams.child_keys(key, 1)
    assert left != right


def test_uniforms_lie_in_open_interval_and_look_uniform():
    key = streams.run_key(7)
    ids = streams.child_keys(np.broadcast_to(key, (200_000,)).copy(),
                             np.arange(200_000, dtype=np.uint64))
    u = streams.draw_uniform(ids, streams.STREAM_LIFETIME, 0)
    assert np.all((u > 0.0) & (u < 1.0))
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(u.var() - 1.0 / 12.0) < 0.001
    # lag correlation across node keys should be negligible
    corr = np.corrcoef(u[:-1], u[1:])[0, 1]
    assert abs(corr) < 0.01


def test_bits_are_fair():
    key = streams.run_key(9)
    ids = streams.child_keys(np.broadcast_to(key, (100_000,)).copy(),
                             np.arange(100_000, dtype=np.uint64))
    bits = streams.draw_bit(ids, streams.STREAM_CHILD_CHOICE, 0)
    assert set(np.unique(bits)) == {0, 1}
    assert abs(bits.mean() - 0.5) < 0.01


def test_run_key_parts_change_key():
    assert streams.run_key(1) != streams.run_key(2)
    assert streams.run_key(1, 5) != streams.run_key(1, 6)
    assert streams.run_key(1, 5, 0) != streams.run_key(1, 5, 1)


def test_stream_functions_never_modify_their_inputs():
    # hashing works in place on the array combine allocates; callers pass
    # shape-(1,) run keys, views of a key column and 0-d parts
    run = streams.run_key(11)
    index = np.arange(50, dtype=np.uint64)
    keys = streams.child_keys(run, index)
    view = keys[10:30]
    part = np.array(7, dtype=np.uint64)
    bits = (index % np.uint64(2))[10:30]
    before = [a.copy() for a in (run, index, keys, part, bits)]
    calls = {
        "combine_broadcast": lambda: streams.combine(run, index),
        "combine_0d": lambda: streams.combine(view, part),
        "child_keys_broadcast": lambda: streams.child_keys(run, index),
        "child_keys_view": lambda: streams.child_keys(view, bits),
        "draw_uniform_view": lambda: streams.draw_uniform(view, part, 3),
        "draw_uniform_run": lambda: streams.draw_uniform(run, 2, part),
    }
    for name, call in calls.items():
        out = call()
        for arr, old in zip((run, index, keys, part, bits), before):
            assert np.array_equal(arr, old), name
        for arr in (run, index, keys, part, bits):
            assert not np.shares_memory(out, arr), name
    # a broadcast run key equals the same key repeated per index
    assert np.array_equal(streams.child_keys(run, index),
                          streams.child_keys(np.repeat(run, index.size),
                                             index))
    assert np.array_equal(streams.draw_uniform(view, part, 3),
                          streams.draw_uniform(view.copy(), 7, 3))


def test_draws_leave_read_only_keys_unchanged():
    """A draw folds its counter in place, but only into the array its first
    fold allocated: a read-only key column, or a view of one, would raise
    on any write, and comes back unchanged."""
    keys = streams.child_keys(streams.run_key(12),
                              np.arange(40, dtype=np.uint64) % np.uint64(2))
    keys.flags.writeable = False
    before = keys.copy()
    for view in (keys, keys[5:25], keys[:1]):
        outs = [streams.draw_uniform(view, streams.STREAM_LIFETIME, 0),
                streams.draw_uniform(view, streams.STREAM_GROWTH, 3),
                streams.draw_bit(view, streams.STREAM_CHILD_CHOICE, 0),
                streams.child_keys(view, 1)]
        assert np.array_equal(keys, before)
        for out in outs:
            assert out.shape == view.shape
            assert not np.shares_memory(out, keys)
    # the in-place fold gives the two folds of combine
    assert np.array_equal(streams.draw_hash(keys, 4, 9), streams.combine(
        streams.combine(keys, 4), 9))
