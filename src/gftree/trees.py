"""Genealogy simulation: full trees, sparse lineages, tagged paths, snapshots.

Cells are indexed by paths in the binary tree (root = empty path).  A cell of
size ``x`` and growth rate ``v`` lives ``F^{-1}(E)`` where ``F`` is the
cumulative division hazard and ``E`` a unit exponential; at division both
children are born at half the final size and draw fresh growth rates from the
inheritance kernel.

Randomness is replayable per node: each node owns a hash key rolled along its
path (see :mod:`gftree.streams`), so a genealogy is a pure function of
(model, seed) regardless of traversal order or worker count.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import _hot, streams
from .estimator import ObservationSet
from .model import (DivisionRate, GrowthKernel, InitialDistribution, ModelSpec,
                    PowerLawRate, sample_growth_rates_keyed)


class HorizonExceeded(RuntimeError):
    """A snapshot time reaches beyond the simulated part of the tree.

    Returning the surviving cells anyway would silently censor the
    population, so this is an error rather than a truncation.
    """


_MAX_FOREST_LEVELS = 4096  # runaway guard for time-capped growth


# ---------------------------------------------------------------------------
# Paths and records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TreePath:
    """A node of the binary genealogical tree: a finite {0,1} sequence."""

    bits: tuple[int, ...] = ()

    def __post_init__(self):
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("path bits must be 0 or 1")

    @property
    def generation(self) -> int:
        return len(self.bits)

    def parent(self) -> "TreePath":
        if not self.bits:
            raise ValueError("the root has no parent")
        return TreePath(self.bits[:-1])

    def child(self, bit: int) -> "TreePath":
        return TreePath(self.bits + (bit,))

    @staticmethod
    def from_string(text: str) -> "TreePath":
        return TreePath(tuple(int(c) for c in text))

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)


@dataclass(frozen=True)
class CellRecord:
    """One cell: path, size at birth, growth rate, birth time, lifetime."""

    path: TreePath
    size_birth: float
    growth_rate: float
    birth_time: float
    lifetime: float

    def division_time(self) -> float:
        return self.birth_time + self.lifetime

    def size_at(self, t: float) -> float:
        if not (self.birth_time <= t < self.division_time()):
            raise ValueError("cell is not alive at the requested time")
        return self.size_birth * math.exp(self.growth_rate * (t - self.birth_time))


class GenealogyTree:
    """A simulated genealogy in breadth-first, left-to-right order.

    ``scheme`` is ``"full"`` (every cell of the first N generations;
    2^{N+1} - 1 records) or ``"sparse"`` (a single followed lineage of n
    records).  Columns are numpy arrays aligned to the record order.
    """

    def __init__(self, scheme: str, generation: np.ndarray, index: np.ndarray,
                 size_birth: np.ndarray, growth_rate: np.ndarray,
                 birth_time: np.ndarray, lifetime: np.ndarray,
                 chain_bits: Optional[np.ndarray] = None):
        self.scheme = scheme
        self.generation = np.asarray(generation, dtype=np.int64)
        self.index = np.asarray(index, dtype=np.int64)
        self.size_birth = np.asarray(size_birth, dtype=np.float64)
        self.growth_rate = np.asarray(growth_rate, dtype=np.float64)
        self.birth_time = np.asarray(birth_time, dtype=np.float64)
        self.lifetime = np.asarray(lifetime, dtype=np.float64)
        self.chain_bits = (None if chain_bits is None
                           else np.asarray(chain_bits, dtype=np.int64))
        self._records: Optional[dict[TreePath, CellRecord]] = None
        self._validate()

    def _validate(self):
        n = len(self)
        if self.scheme == "full":
            depth = int(self.generation.max(initial=0))
            if n != 2 ** (depth + 1) - 1:
                raise ValueError("full scheme must hold exactly 2^(N+1)-1 records")
            expected_gen = np.repeat(np.arange(depth + 1),
                                     2 ** np.arange(depth + 1))
            if not np.array_equal(self.generation, expected_gen):
                raise ValueError("records must be in breadth-first order")
        elif self.scheme == "sparse":
            if not np.array_equal(self.generation, np.arange(n)):
                raise ValueError("sparse scheme must be a single chain")
            if self.chain_bits is None or self.chain_bits.size != max(n - 1, 0):
                raise ValueError("sparse scheme needs one child bit per division")
            if not np.all((self.chain_bits == 0) | (self.chain_bits == 1)):
                raise ValueError("chain bits must be 0 or 1")
        else:
            raise ValueError(f"unknown scheme {self.scheme!r}")

    def __len__(self) -> int:
        return self.size_birth.size

    @property
    def depth(self) -> int:
        return int(self.generation.max(initial=0))

    def path_of(self, row: int) -> TreePath:
        g = int(self.generation[row])
        if self.scheme == "sparse":
            return TreePath(tuple(int(b) for b in self.chain_bits[:g]))
        idx = int(self.index[row])
        return TreePath(tuple((idx >> (g - 1 - k)) & 1 for k in range(g)))

    def parent_row(self, row: int) -> int:
        if self.generation[row] == 0:
            raise ValueError("the root has no parent")
        if self.scheme == "sparse":
            return row - 1
        g = int(self.generation[row])
        return (2 ** (g - 1) - 1) + (int(self.index[row]) >> 1)

    @property
    def records(self) -> dict[TreePath, CellRecord]:
        if self._records is None:
            self._records = {}
            for i in range(len(self)):
                p = self.path_of(i)
                self._records[p] = CellRecord(
                    p, float(self.size_birth[i]), float(self.growth_rate[i]),
                    float(self.birth_time[i]), float(self.lifetime[i]))
        return self._records

    def leaf_mask(self) -> np.ndarray:
        if self.scheme == "full":
            return self.generation == self.depth
        mask = np.zeros(len(self), dtype=bool)
        mask[-1] = True
        return mask


# ---------------------------------------------------------------------------
# Level-wise simulation core
# ---------------------------------------------------------------------------

def _root_state(spec: ModelSpec, key: np.ndarray):
    """Draw the root record state from the initial distribution."""
    rk = streams.child_keys(np.atleast_1d(key), 1)
    init = spec.initial
    u = streams.draw_uniform(rk, streams.STREAM_INITIAL_SIZE, 0)
    xi = init.size_low + (init.size_high - init.size_low) * u
    if init.growth_value is not None:
        tau = np.full(1, float(init.growth_value))
    else:
        lo, hi = init.growth_range(spec.bounds)
        tau = lo + (hi - lo) * streams.draw_uniform(
            rk, streams.STREAM_INITIAL_GROWTH, 0)
    return rk, xi, tau, np.zeros(1)


def _lifetimes(rate: DivisionRate, node_keys: np.ndarray, xi: np.ndarray,
               tau: np.ndarray) -> np.ndarray:
    u = streams.draw_uniform(node_keys, streams.STREAM_LIFETIME, 0)
    if isinstance(rate, PowerLawRate):
        return _hot.powerlaw_lifetimes(
            np.ascontiguousarray(u), np.ascontiguousarray(xi),
            np.ascontiguousarray(tau), rate.coefficient, rate.exponent)
    return np.asarray(rate.invert_hazard(xi, tau, -np.log(u)))


def _spawn(kernel: GrowthKernel, node_keys, xi, tau, b, zeta, idx):
    """Both children of every cell, in breadth-first order."""
    n = node_keys.size
    bits = np.tile(np.array([0, 1], dtype=np.uint64), n)
    ckeys = streams.child_keys(np.repeat(node_keys, 2), bits)
    cxi = np.repeat(0.5 * xi * np.exp(tau * zeta), 2)
    cb = np.repeat(b + zeta, 2)
    cidx = 2 * np.repeat(idx, 2) + bits.astype(np.int64)
    ctau = sample_growth_rates_keyed(kernel, np.repeat(tau, 2), ckeys,
                                     streams.STREAM_GROWTH)
    return ckeys, cxi, ctau, cb, cidx


def _simulate_levels(rate: DivisionRate, kernel: GrowthKernel, state,
                     levels: int):
    """Simulate ``levels`` consecutive generations from the given states.

    ``state`` is (node_keys, sizes, rates, birth_times, indices, generation).
    Returns per-level tuples (generation, index, xi, tau, b, zeta).
    """
    keys, xi, tau, b, idx, gen = state
    out = []
    for j in range(levels):
        zeta = _lifetimes(rate, keys, xi, tau)
        out.append((gen + j, idx, xi, tau, b, zeta))
        if j < levels - 1:
            keys, xi, tau, b, idx = _spawn(kernel, keys, xi, tau, b, zeta, idx)
    return out


def simulate_full_tree(spec: ModelSpec, generations: int, seed: int,
                       workers: int = 1) -> GenealogyTree:
    """Every cell of generations 0..N: exactly 2^(N+1)-1 records.

    Per-node randomness is derived from (seed, path), so the result is
    independent of ``workers``; subtrees are simulated in parallel when
    workers > 1.
    """
    if generations < 0:
        raise ValueError("generations must be >= 0")
    key = streams.run_key(seed)
    keys, xi, tau, b = _root_state(spec, key)
    state = (keys, xi, tau, b, np.zeros(1, dtype=np.int64), 0)

    split = min(3, generations) if workers > 1 else 0
    levels = []
    if split > 0:
        head = _simulate_levels(spec.division_rate, spec.growth_kernel,
                                state, split)
        levels.extend(head)
        gen, idx, xi, tau, b, zeta = head[-1]
        # re-derive the keys of the last simulated level to spawn from it
        keys = _level_keys(key, split - 1, idx)
        keys, xi, tau, b, idx = _spawn(spec.growth_kernel, keys, xi, tau, b,
                                       zeta, idx)
        chunks = max(1, min(workers * 4, keys.size))
        pieces = [
            (spec.division_rate, spec.growth_kernel,
             (keys[s], xi[s], tau[s], b[s], idx[s], split),
             generations - split + 1)
            for s in _slices(keys.size, chunks)
        ]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_simulate_levels_star, pieces))
        for lvl in range(generations - split + 1):
            per_chunk = [r[lvl] for r in results]
            levels.append(tuple(
                per_chunk[0][0] if col == 0 else np.concatenate(
                    [c[col] for c in per_chunk])
                for col in range(6)))
    else:
        levels = _simulate_levels(spec.division_rate, spec.growth_kernel,
                                  state, generations + 1)

    gen_col = np.concatenate([np.full(lv[1].size, lv[0], dtype=np.int64)
                              for lv in levels])
    cols = [np.concatenate([lv[c] for lv in levels]) for c in range(1, 6)]
    return GenealogyTree("full", gen_col, cols[0], cols[1], cols[2],
                         cols[3], cols[4])


def _simulate_levels_star(args):
    return _simulate_levels(args[0], args[1], args[2], args[3])


def _slices(n: int, parts: int):
    bounds = np.linspace(0, n, parts + 1).astype(int)
    return [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]


def _level_keys(run_key_arr: np.ndarray, generation: int,
                idx: np.ndarray) -> np.ndarray:
    """Node keys of a whole level from the indices within the level."""
    keys = streams.child_keys(
        np.broadcast_to(run_key_arr, np.asarray(idx).shape).copy(), 1)
    for shift in range(generation - 1, -1, -1):
        bits = (np.asarray(idx) >> shift) & 1
        keys = streams.child_keys(keys, bits.astype(np.uint64))
    return keys


def simulate_sparse_lineage(spec: ModelSpec, length: int, seed: int,
                            always_first_child: bool = False) -> GenealogyTree:
    """A single followed lineage of ``length`` records; at each division the
    followed child is a fair {0,1} pick (or always child 0 for debugging)."""
    if length < 1:
        raise ValueError("length must be >= 1")
    key = streams.run_key(seed)
    keys, xi, tau, b = _root_state(spec, key)
    rate, kernel = spec.division_rate, spec.growth_kernel

    sizes = np.empty(length)
    rates = np.empty(length)
    births = np.empty(length)
    lifes = np.empty(length)
    bits = np.empty(max(length - 1, 0), dtype=np.int64)
    for k in range(length):
        zeta = _lifetimes(rate, keys, xi, tau)
        sizes[k], rates[k], births[k], lifes[k] = xi[0], tau[0], b[0], zeta[0]
        if k == length - 1:
            break
        if always_first_child:
            bit = np.zeros(1, dtype=np.int64)
        else:
            bit = streams.draw_bit(keys, streams.STREAM_CHILD_CHOICE, 0)
        bits[k] = bit[0]
        keys = streams.child_keys(keys, bit.astype(np.uint64))
        xi = 0.5 * xi * np.exp(tau * zeta)
        b = b + zeta
        tau = sample_growth_rates_keyed(kernel, tau, keys,
                                        streams.STREAM_GROWTH)
    return GenealogyTree("sparse", np.arange(length), np.zeros(length),
                         sizes, rates, births, lifes, chain_bits=bits)


# ---------------------------------------------------------------------------
# Tagged path
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TaggedPath:
    """State along a uniformly random line of descent, queryable in time.

    ``birth_times[k]`` is the k-th division time (0 for the root cell);
    ``sizes[k]`` and ``rates[k]`` are size at birth and growth rate of the
    occupying cell after that division.  Sizes are reconstructed from the
    cumulated growth ``x e^{W(t)} / 2^{C_t}`` so the representation identity
    holds to a few ulps at any query time.
    """

    initial_size: float
    birth_times: np.ndarray
    sizes: np.ndarray
    rates: np.ndarray
    cum_growth_at_birth: np.ndarray
    t_max: float

    @property
    def events(self) -> list[tuple[float, float, float]]:
        """(division_time, size_after, growth_rate_after) per division."""
        return [(float(self.birth_times[k]), float(self.sizes[k]),
                 float(self.rates[k]))
                for k in range(1, self.birth_times.size)]

    def _segment(self, t):
        t = np.asarray(t)
        if np.any(t < 0) or np.any(t > self.t_max):
            raise ValueError("query time outside [0, t_max]")
        return np.searchsorted(self.birth_times, t, side="right") - 1

    def divisions_by(self, t):
        """C_t: number of divisions in [0, t]."""
        k = self._segment(t)
        return k if np.ndim(t) else int(k)

    def size_at(self, t):
        k = self._segment(t)
        out = self.sizes[k] * np.exp(self.rates[k]
                                     * (np.asarray(t) - self.birth_times[k]))
        return out if np.ndim(t) else float(out)

    def growth_rate_at(self, t):
        out = self.rates[self._segment(t)]
        return out if np.ndim(t) else float(out)

    def cumulated_growth_at(self, t):
        k = self._segment(t)
        out = self.cum_growth_at_birth[k] + self.rates[k] * (
            np.asarray(t) - self.birth_times[k])
        return out if np.ndim(t) else float(out)


def simulate_tagged_cell(spec: ModelSpec, t_max: float,
                         seed: int) -> TaggedPath:
    """Follow a uniformly picked branch until its events cover [0, t_max]."""
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    key = streams.run_key(seed)
    keys, xi, tau, b = _root_state(spec, key)
    rate, kernel = spec.division_rate, spec.growth_kernel
    x0 = float(xi[0])

    births = [0.0]
    sizes = [x0]
    rates = [float(tau[0])]
    cums = [0.0]
    while True:
        zeta = _lifetimes(rate, keys, xi, tau)
        t_div = b[0] + zeta[0]
        if t_div > t_max:
            break
        bit = streams.draw_bit(keys, streams.STREAM_CHILD_CHOICE, 0)
        keys = streams.child_keys(keys, bit.astype(np.uint64))
        cum = cums[-1] + rates[-1] * zeta[0]
        k = len(births)
        size = x0 * math.exp(cum) / 2.0 ** k
        tau = sample_growth_rates_keyed(kernel, tau, keys,
                                        streams.STREAM_GROWTH)
        xi = np.array([size])
        b = np.array([t_div])
        births.append(t_div)
        sizes.append(size)
        rates.append(float(tau[0]))
        cums.append(cum)
    return TaggedPath(x0, np.array(births), np.array(sizes), np.array(rates),
                      np.array(cums), t_max)


# ---------------------------------------------------------------------------
# Snapshots and observation extraction
# ---------------------------------------------------------------------------

class SnapshotCell(NamedTuple):
    size: float
    growth_rate: float
    path: TreePath


def population_snapshot(tree: GenealogyTree, t: float) -> list[SnapshotCell]:
    """All cells alive at time t (born at or before t, division strictly
    after).  Raises HorizonExceeded when some simulated leaf has already
    divided by t, since its unsimulated offspring would be missing."""
    if tree.scheme != "full":
        raise ValueError("snapshots need a full-scheme tree")
    if t < 0:
        raise ValueError("snapshot time must be >= 0")
    division = tree.birth_time + tree.lifetime
    censored = tree.leaf_mask() & (division <= t)
    if np.any(censored):
        raise HorizonExceeded(
            f"{int(censored.sum())} leaves divide at or before t={t}; "
            "simulate more generations")
    alive = (tree.birth_time <= t) & (t < division)
    out = []
    for row in np.flatnonzero(alive):
        size = tree.size_birth[row] * math.exp(
            tree.growth_rate[row] * (t - tree.birth_time[row]))
        out.append(SnapshotCell(float(size), float(tree.growth_rate[row]),
                                tree.path_of(int(row))))
    return out


def extract_observations(tree: GenealogyTree) -> ObservationSet:
    """Flat (size, rate, lifetime) rows in breadth-first order; the
    estimator is permutation-invariant so the order is cosmetic."""
    return ObservationSet(tree.size_birth.copy(), tree.growth_rate.copy(),
                          tree.lifetime.copy())


def parent_child_arrays(tree: GenealogyTree):
    """(parent_size, parent_growth, child_size) per non-root record."""
    rows = np.arange(1, len(tree))
    if tree.scheme == "sparse":
        parents = rows - 1
    else:
        parents = (2 ** (tree.generation[rows] - 1) - 1) + (tree.index[rows] >> 1)
    return (tree.size_birth[parents], tree.growth_rate[parents],
            tree.size_birth[rows])


# ---------------------------------------------------------------------------
# Genealogy CSV format
# ---------------------------------------------------------------------------

_CSV_HEADER = ["path", "size_birth", "growth_rate", "lifetime", "birth_time"]
_CSV_BLOCK = 1 << 16  # rows formatted per write
_NOT_A_TREE = "genealogy is neither a complete tree nor a single lineage"
_NOT_BINARY = "genealogy paths may only hold the characters 0 and 1"


def _path_strings(tree: GenealogyTree, rows: slice) -> list[str]:
    """The ``path`` cells of ``rows``: prefixes of the chain's bit string
    (sparse), or each index's ``generation`` low bits, most significant
    first (full)."""
    gen = tree.generation[rows]
    if tree.scheme == "sparse":
        chain = (tree.chain_bits + ord("0")).astype(np.uint8).tobytes().decode()
        return list(map(chain.__getitem__, map(slice, gen.tolist())))
    width = max(int(gen.max(initial=0)), 1)
    pos = np.arange(width)
    # left-align each path's bits in ``width`` bits, then read them MSB first
    left = tree.index[rows] << (width - gen)
    codes = (ord("0") + ((left[:, None] >> (width - 1 - pos)) & 1)
             ).astype(np.uint32)
    # one code point per character; the unicode dtype drops the zero
    # padding past each path's end
    codes[pos >= gen[:, None]] = 0
    return codes.view(f"U{width}").ravel().tolist()


def write_genealogy_csv(tree: GenealogyTree, path) -> None:
    """One row per cell: path,size_birth,growth_rate,lifetime,birth_time.

    The bytes are those of ``csv.writer`` (``\\r\\n`` line ends) with
    every value as :data:`~gftree.curves.FLOAT_FORMAT` (17 significant
    digits), so a read-back is bit-exact.  Paths come from the tree's
    columns, never from :class:`TreePath` objects, and each block of
    ``_CSV_BLOCK`` rows is formatted by a single ``%`` call.
    """
    from itertools import chain

    from .curves import FLOAT_FORMAT

    row = "%s" + ("," + FLOAT_FORMAT) * 4 + "\r\n"
    columns = (tree.size_birth, tree.growth_rate, tree.lifetime,
               tree.birth_time)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(_CSV_HEADER) + "\r\n")
        for start in range(0, len(tree), _CSV_BLOCK):
            rows = slice(start, start + _CSV_BLOCK)
            paths = _path_strings(tree, rows)
            cells = zip(paths, *(c[rows].tolist() for c in columns))
            fh.write(row * len(paths) % tuple(chain.from_iterable(cells)))


def _full_tree_indices(paths: np.ndarray, gens: np.ndarray,
                       depth: int) -> np.ndarray:
    """Index within its generation of every path of a full-tree candidate,
    from an (n, depth) byte matrix; paths are at most ``depth`` long."""
    width = max(depth, 1)
    try:
        codes = paths.astype(f"S{width}").view(np.uint8).reshape(-1, width)
    except UnicodeEncodeError as exc:
        raise ValueError(_NOT_BINARY) from exc
    within = np.arange(width) < gens[:, None]
    one = codes == ord("1")
    if not np.array_equal(one | (codes == ord("0")), within):
        raise ValueError(_NOT_BINARY)
    index = np.zeros(gens.size, dtype=np.int64)
    for k in range(width):
        index = np.where(within[:, k], 2 * index + one[:, k], index)
    return index


def read_genealogy_csv(path) -> GenealogyTree:
    """Rebuild a tree from the CSV format; the scheme is inferred (complete
    binary tree -> full, single chain -> sparse).

    Rows may come in any order, with LF or CRLF line ends and ``csv``-style
    quoting; blank lines are skipped.  Values are parsed column-wise by
    :func:`~gftree.curves.load_csv_columns`, bit-identical to ``float()``.
    Raises ``ValueError`` for a wrong header, an unparsable or short row,
    no rows, a path character other than 0 or 1, or paths that form
    neither a complete tree (each present once) nor a single chain.
    """
    from .curves import load_csv_columns

    with open(path, encoding="utf-8", newline="") as fh:
        header = next(csv.reader(fh), None)
        if header != _CSV_HEADER:
            raise ValueError(f"unexpected genealogy header {header!r}")
        table = load_csv_columns(
            fh, [("path", object), ("values", np.float64, (4,))],
            (0, 1, 2, 3, 4))
    paths = table["path"]
    n = paths.size
    if n == 0:
        raise ValueError("genealogy CSV holds no cells")
    gens = np.fromiter(map(len, paths), dtype=np.int64, count=n)
    depth = int(gens.max())
    bits = None
    if n == 2 ** (depth + 1) - 1 and np.array_equal(
            np.bincount(gens), 2 ** np.arange(depth + 1)):
        scheme = "full"
        index = _full_tree_indices(paths, gens, depth)
        # equal-length binary strings sort like their integer values
        order = np.lexsort((index, gens))
        gens, index = gens[order], index[order]
        if not np.array_equal(index, np.arange(n) - (2 ** gens - 1)):
            raise ValueError(_NOT_A_TREE)
    else:
        scheme = "sparse"
        order = np.argsort(gens, kind="stable")
        gens = gens[order]
        chain = paths[order[-1]]
        # n distinct lengths 0..n-1, each a prefix of the longest path
        if not (np.array_equal(gens, np.arange(n))
                and all(map(chain.startswith, paths))):
            raise ValueError(_NOT_A_TREE)
        if chain.strip("01"):
            raise ValueError(_NOT_BINARY)
        bits = (np.frombuffer(chain.encode(), dtype=np.uint8)
                - ord("0")).astype(np.int64)
        index = np.zeros(n, dtype=np.int64)
    data = table["values"][order]
    return GenealogyTree(scheme, gens, index, data[:, 0], data[:, 1],
                         data[:, 3], data[:, 2], chain_bits=bits)


# ---------------------------------------------------------------------------
# Tagged-path / weighted-population consistency (many-to-one check)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BatteryResult:
    """Monte Carlo comparison of one test function phi(size, rate, cumgrowth)."""

    name: str
    tagged_mean: float
    tagged_se: float
    population_mean: float
    population_se: float

    @property
    def combined_se(self) -> float:
        return math.sqrt(self.tagged_se ** 2 + self.population_se ** 2)

    @property
    def z(self) -> float:
        se = self.combined_se
        return abs(self.tagged_mean - self.population_mean) / se if se > 0 else 0.0

    def within(self, n_se: float = 3.0) -> bool:
        return abs(self.tagged_mean - self.population_mean) <= n_se * self.combined_se


def default_battery() -> list[tuple[str, Callable]]:
    """Indicators and compactly x-supported polynomials in
    (size, rate, cumulated growth)."""
    return [
        ("one", lambda x, v, w: np.ones_like(x)),
        ("ind[0.5,1.5]", lambda x, v, w: ((x >= 0.5) & (x <= 1.5)).astype(float)),
        ("x*ind[x<=2]", lambda x, v, w: x * (x <= 2.0)),
        ("x^2*ind[x<=3]", lambda x, v, w: x * x * (x <= 3.0)),
        ("v*ind[x<=2]", lambda x, v, w: v * (x <= 2.0)),
        ("w*ind[x<=2]", lambda x, v, w: w * (x <= 2.0)),
        ("(x-1)^2*ind[x<=2.5]", lambda x, v, w: (x - 1.0) ** 2 * (x <= 2.5)),
    ]


def _point_size_spec(spec: ModelSpec, x0: float) -> ModelSpec:
    init = spec.initial
    return ModelSpec(spec.division_rate, spec.growth_kernel, spec.bounds,
                     InitialDistribution(x0, x0, init.growth_low,
                                         init.growth_high, init.growth_value))


def tagged_moments(spec: ModelSpec, t: float, battery, replicates: int,
                   seed: int):
    """Monte Carlo means of phi(size, rate, cumulated growth) at time t along
    the tagged branch, vectorised across replicates."""
    key = streams.run_key(seed, 1)
    rep = np.arange(replicates, dtype=np.uint64)
    keys = streams.child_keys(streams.combine(
        np.broadcast_to(key, rep.shape).copy(), rep), 1)
    spec_init = spec.initial
    u = streams.draw_uniform(keys, streams.STREAM_INITIAL_SIZE, 0)
    xi = spec_init.size_low + (spec_init.size_high - spec_init.size_low) * u
    if spec_init.growth_value is not None:
        tau = np.full(replicates, float(spec_init.growth_value))
    else:
        lo, hi = spec_init.growth_range(spec.bounds)
        tau = lo + (hi - lo) * streams.draw_uniform(
            keys, streams.STREAM_INITIAL_GROWTH, 0)
    b = np.zeros(replicates)
    cum = np.zeros(replicates)
    x_final = np.empty(replicates)
    v_final = np.empty(replicates)
    w_final = np.empty(replicates)
    active = np.ones(replicates, dtype=bool)
    rate, kernel = spec.division_rate, spec.growth_kernel
    x_birth = xi.copy()
    count = np.zeros(replicates, dtype=np.int64)
    x0 = xi.copy()
    for _ in range(_MAX_FOREST_LEVELS):
        if not active.any():
            break
        sel = np.flatnonzero(active)
        zeta = _lifetimes(rate, keys[sel], x_birth[sel], tau[sel])
        div_t = b[sel] + zeta
        done = div_t > t
        di = sel[done]
        w_final[di] = cum[di] + tau[di] * (t - b[di])
        x_final[di] = x0[di] * np.exp(w_final[di]) / 2.0 ** count[di]
        v_final[di] = tau[di]
        active[di] = False
        ci = sel[~done]
        if ci.size:
            bit = streams.draw_bit(keys[ci], streams.STREAM_CHILD_CHOICE, 0)
            keys[ci] = streams.child_keys(keys[ci], bit.astype(np.uint64))
            cum[ci] += tau[ci] * zeta[~done]
            count[ci] += 1
            b[ci] = div_t[~done]
            x_birth[ci] = x0[ci] * np.exp(cum[ci]) / 2.0 ** count[ci]
            tau[ci] = sample_growth_rates_keyed(kernel, tau[ci], keys[ci],
                                                streams.STREAM_GROWTH)
    if active.any():
        raise RuntimeError("tagged simulation exceeded the level guard")
    out = []
    for name, phi in battery:
        vals = phi(x_final, v_final, w_final)
        out.append((name, float(np.mean(vals)),
                    float(np.std(vals, ddof=1) / math.sqrt(replicates))))
    return out


def population_moments(spec: ModelSpec, t: float, battery, replicates: int,
                       seed: int):
    """Monte Carlo means of the weighted population sums
    sum_u size_u(t) e^{-cumgrowth_u(t)} / x0 * phi(...) over whole trees.

    The tree is grown exactly up to the query time: cells born after t
    contribute nothing and are not simulated, so no censoring can occur.
    """
    key = streams.run_key(seed, 2)
    rep0 = np.arange(replicates, dtype=np.uint64)
    keys = streams.child_keys(streams.combine(
        np.broadcast_to(key, rep0.shape).copy(), rep0), 1)
    init = spec.initial
    u = streams.draw_uniform(keys, streams.STREAM_INITIAL_SIZE, 0)
    xi = init.size_low + (init.size_high - init.size_low) * u
    if init.growth_value is not None:
        tau = np.full(replicates, float(init.growth_value))
    else:
        lo, hi = init.growth_range(spec.bounds)
        tau = lo + (hi - lo) * streams.draw_uniform(
            keys, streams.STREAM_INITIAL_GROWTH, 0)
    b = np.zeros(replicates)
    cum = np.zeros(replicates)
    rep = rep0.astype(np.int64)
    x0 = xi.copy()
    rate, kernel = spec.division_rate, spec.growth_kernel

    sums = {name: np.zeros(replicates) for name, _ in battery}
    for _ in range(_MAX_FOREST_LEVELS):
        if keys.size == 0:
            break
        zeta = _lifetimes(rate, keys, xi, tau)
        div_t = b + zeta
        alive = div_t > t  # born <= t by construction
        if np.any(alive):
            a = np.flatnonzero(alive)
            w_t = cum[a] + tau[a] * (t - b[a])
            x_t = xi[a] * np.exp(tau[a] * (t - b[a]))
            weight = x_t * np.exp(-w_t) / x0[a]
            for name, phi in battery:
                np.add.at(sums[name], rep[a], weight * phi(x_t, tau[a], w_t))
        d = np.flatnonzero(~alive)
        if d.size == 0:
            break
        bits = np.tile(np.array([0, 1], dtype=np.uint64), d.size)
        keys = streams.child_keys(np.repeat(keys[d], 2), bits)
        xi = np.repeat(0.5 * xi[d] * np.exp(tau[d] * zeta[d]), 2)
        b = np.repeat(div_t[d], 2)
        cum = np.repeat(cum[d] + tau[d] * zeta[d], 2)
        rep = np.repeat(rep[d], 2)
        x0 = np.repeat(x0[d], 2)
        tau = sample_growth_rates_keyed(kernel, np.repeat(tau[d], 2), keys,
                                        streams.STREAM_GROWTH)
    else:
        raise RuntimeError("population simulation exceeded the level guard")
    out = []
    for name, _ in battery:
        vals = sums[name]
        out.append((name, float(np.mean(vals)),
                    float(np.std(vals, ddof=1) / math.sqrt(replicates))))
    return out


def many_to_one_battery(spec: ModelSpec, t: float, replicates: int, seed: int,
                        x0: float = 1.0, battery=None) -> list[BatteryResult]:
    """Compare tagged-path and weighted-population Monte Carlo means for a
    battery of test functions, from a fixed root size x0."""
    battery = battery if battery is not None else default_battery()
    spec_x = _point_size_spec(spec, x0)
    tagged = tagged_moments(spec_x, t, battery, replicates, seed)
    pop = population_moments(spec_x, t, battery, replicates, seed)
    return [BatteryResult(name, tm, ts, pm, ps)
            for (name, tm, ts), (_, pm, ps) in zip(tagged, pop)]
