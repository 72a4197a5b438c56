"""Deterministic, order-independent random streams keyed by tree path.

Every cell carries a 64-bit node key obtained by rolling a splitmix64-style
hash along its path: the root key is derived from the run seed, and a child's
key is ``combine(parent_key, child_bit)``.  A cell's draws then come from
``combine(combine(node_key, stream), counter)``, so each draw depends only on
the run seed and the cell's path -- never on traversal order, batching, or
worker count.  Each sampler takes one draw per node and stream (counter 0).

All integer arithmetic is exact 64-bit wraparound (numpy uint64 arrays), so
draws and tree topology are identical on every backend.  The uniform
mapping ``((h >> 11) + 0.5) * 2**-53`` is dyadic, with values in (0, 1]:
from 2**52 up the ``+ 0.5`` rounds to even, and the top word maps to 1.

Every function here returns a fresh array and never writes to its
arguments, so callers may pass views (``run_keys[lo:hi]``), broadcast
shape-(1,) keys or 0-d parts.  The hashing itself, a draw's counter
included, works in place on the array that :func:`combine` allocates.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_S11 = np.uint64(11)

# Sub-stream labels: one per kind of decision a node makes.
STREAM_LIFETIME = 1
STREAM_GROWTH = 2
STREAM_CHILD_CHOICE = 3
STREAM_INITIAL_SIZE = 4
STREAM_INITIAL_GROWTH = 5


def _finalize(z: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer, in place on ``z`` (a fresh array of at
    least one dimension), with one temporary."""
    t = z >> _S30
    z ^= t
    z *= _MIX1
    np.right_shift(z, _S27, out=t)
    z ^= t
    z *= _MIX2
    np.right_shift(z, _S31, out=t)
    z ^= t
    return z


def combine(h: np.ndarray, part) -> np.ndarray:
    """Fold ``part`` into hash state ``h`` (uint64 arrays, broadcastable;
    ``h`` has at least one dimension).

    Adding the golden-ratio constant before the xor removes the zero fixed
    point of the finalizer; the finalizer is a bijection, so distinct
    (state, part) pairs stay well dispersed.
    """
    part = np.asarray(part, dtype=np.uint64)
    return _finalize((h + _GOLDEN) ^ part)


def run_key(seed: int, *parts: int) -> np.ndarray:
    """Fold a user seed and any extra labels into a run key (shape-(1,)
    uint64; 0-d arrays would take numpy's scalar paths and warn on wrap)."""
    h = np.array([seed & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    for p in parts:
        h = combine(h, np.uint64(p & 0xFFFFFFFFFFFFFFFF))
    return combine(h, 0)


def child_keys(parent_keys: np.ndarray, bits) -> np.ndarray:
    """Node keys of children given parent keys and child bits (0 or 1)."""
    return combine(parent_keys, bits)


def draw_hash(node_keys: np.ndarray, stream: int, counter) -> np.ndarray:
    """``combine(combine(node_keys, stream), counter)``, folded in place."""
    h = combine(node_keys, stream)
    h += _GOLDEN
    return _finalize(np.bitwise_xor(h, np.uint64(counter), out=h))


def draw_uniform(node_keys: np.ndarray, stream: int, counter) -> np.ndarray:
    """One uniform in (0, 1] per node key; 1 has probability 2**-53."""
    h = draw_hash(node_keys, stream, counter)
    h >>= _S11
    u = h.astype(np.float64)
    u += 0.5
    u *= 2.0 ** -53
    return u


def draw_bit(node_keys: np.ndarray, stream: int, counter) -> np.ndarray:
    """One fair {0, 1} draw per node key (top hash bit)."""
    h = draw_hash(node_keys, stream, counter)
    return (h >> np.uint64(63)).astype(np.int64)
