"""Genealogy simulation: full trees, sparse lineages and tagged paths.

A genealogy is a set of columns, one record per cell in breadth-first
order, so a cell's place in the binary tree is its row: row r of a full tree
is generation floor(log2(r + 1)) with parent row (r - 1) // 2, and the k-th
cell of a followed lineage is generation k, reached by the child bits
``chain_bits[:k]``.  The genealogy CSV spells that place as a {0,1} path
string (root = empty path).

A cell of size ``x`` and growth rate ``v`` lives ``F^{-1}(E)`` where ``F``
is the cumulative division hazard and ``E`` a unit exponential; at division
both children are born at half the final size and draw fresh growth rates
from the inheritance kernel.

Randomness is replayable per node: each node owns a hash key rolled along its
path (see :mod:`gftree.streams`), so a genealogy is a pure function of
(model, seed) regardless of traversal order, batching or worker count.

Every scheme runs on one stepper, :class:`_Forest`, which holds one
generation of cells from any number of roots: the full tree keeps both
children of every cell, the sparse lineage and the tagged branch one child
drawn from the cell's choice stream, and the many-to-one check grows
tagged branches and whole trees up to a fixed time.  Study replicates are
grown together as one forest per batch (:func:`grow_replicates`), whose
lanes may follow lineages of different lengths.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import streams
from .estimator import ObservationSet
from .model import (InitialDistribution, ModelSpec, sample_growth_rates_keyed,
                    sample_lifetimes_keyed)


_MAX_FOREST_LEVELS = 4096  # runaway guard for time-capped growth
_FOREST_ROOTS = 1 << 12  # many-to-one roots per forest, to bound its memory


def _read_only(values) -> np.ndarray:
    """A read-only float64 view of ``values``, so that observation sets can
    share a tree's columns instead of copying them."""
    view = np.asarray(values, dtype=np.float64).view()
    view.flags.writeable = False
    return view


class GenealogyTree:
    """A simulated genealogy in breadth-first, left-to-right order.

    ``scheme`` is ``"full"`` (every cell of the first N generations;
    2^{N+1} - 1 records) or ``"sparse"`` (a single followed lineage of n
    records, with the child bit of each of its n - 1 divisions in
    ``chain_bits``).  The four float columns are read-only views aligned to
    the record order; a record's place in the tree is its row
    (:meth:`positions`).
    """

    def __init__(self, scheme: str, size_birth: np.ndarray,
                 growth_rate: np.ndarray, birth_time: np.ndarray,
                 lifetime: np.ndarray, chain_bits: Optional[np.ndarray] = None):
        self.scheme = scheme
        self.size_birth = _read_only(size_birth)
        self.growth_rate = _read_only(growth_rate)
        self.birth_time = _read_only(birth_time)
        self.lifetime = _read_only(lifetime)
        self.chain_bits = (None if chain_bits is None
                           else np.asarray(chain_bits, dtype=np.int64))
        n = len(self)
        if any(c.size != n for c in (self.growth_rate, self.birth_time,
                                     self.lifetime)):
            raise ValueError("the four columns must have equal length")
        if scheme == "full":
            if n == 0 or (n + 1) & n:
                raise ValueError("full scheme must hold exactly 2^(N+1)-1 records")
        elif scheme == "sparse":
            if n == 0:
                raise ValueError("sparse scheme must hold at least one record")
            if self.chain_bits is None or self.chain_bits.size != n - 1:
                raise ValueError("sparse scheme needs one child bit per division")
            if not np.all((self.chain_bits == 0) | (self.chain_bits == 1)):
                raise ValueError("chain bits must be 0 or 1")
        else:
            raise ValueError(f"unknown scheme {scheme!r}")

    def __len__(self) -> int:
        return self.size_birth.size

    def positions(self, rows: slice = slice(None)):
        """(generation, index within it) of ``rows``, as int64 arrays.  In a
        full tree row r holds generation g = floor(log2(r + 1)) and index
        r + 1 - 2^g; the k-th cell of a lineage is (k, 0)."""
        span = range(len(self))[rows]
        row = np.arange(span.start, span.stop, span.step)
        if self.scheme == "sparse":
            return row, np.zeros_like(row)
        gen = (np.frexp(row + 1)[1] - 1).astype(np.int64)
        return gen, row + 1 - (1 << gen)

    @property
    def generation(self) -> np.ndarray:
        return self.positions()[0]

    @property
    def index(self) -> np.ndarray:
        return self.positions()[1]

    @property
    def depth(self) -> int:
        return int(self.positions(slice(-1, None))[0][0])


# ---------------------------------------------------------------------------
# The keyed forest stepper
# ---------------------------------------------------------------------------

class _Forest:
    """The live cells of one or more genealogies, all of one generation.

    Each run key starts one root, whose node key is ``child_keys(run_key,
    1)`` and whose size and growth rate come from the initial distribution.
    Per live cell the forest holds its node ``key``, size at birth
    ``size``, growth ``rate``, ``birth`` time, ``life``time, cumulated
    growth at birth ``cum``, the index of its ``root`` and the child
    ``bit`` it was reached by.  ``level`` is the generation of every live
    cell and ``root_size`` the size of each root.

    A child's size at birth is half its parent's size at division, or,
    when ``sizes_from_growth`` is set, ``x0 e^{cum} / 2^level`` from its
    root's size ``x0``: the representation the tagged-branch identities
    are stated in.
    """

    def __init__(self, spec: ModelSpec, run_keys: np.ndarray,
                 sizes_from_growth: bool = False):
        self.division_rate = spec.division_rate
        self.growth_kernel = spec.growth_kernel
        self.sizes_from_growth = sizes_from_growth
        key = streams.child_keys(run_keys, 1)
        n = key.size
        init = spec.initial
        u = streams.draw_uniform(key, streams.STREAM_INITIAL_SIZE, 0)
        self.root_size = init.size_low + (init.size_high - init.size_low) * u
        if init.growth_value is not None:
            rate = np.full(n, float(init.growth_value))
        else:
            lo, hi = init.growth_range(spec.bounds)
            rate = lo + (hi - lo) * streams.draw_uniform(
                key, streams.STREAM_INITIAL_GROWTH, 0)
        self.level = 0
        self.key, self.size, self.rate = key, self.root_size, rate
        self.birth = np.zeros(n)
        self.cum = np.zeros(n)
        self.root = np.arange(n)
        self.bit = np.zeros(n, dtype=np.int64)
        self.life = sample_lifetimes_keyed(self.division_rate, key, self.size,
                                           rate)

    def divide(self, pick: bool, d=slice(None)):
        """Replace the live cells by the next generation: both children of
        every dividing cell, in breadth-first order, or (``pick``) the one
        child each draws from ``STREAM_CHILD_CHOICE``.  ``d`` indexes the
        dividing cells (default: all); the others leave the forest.

        Columns are replaced one at a time, so the parent generation is
        released before the children's rates and lifetimes are drawn.
        """

        def expand(col):
            return col if pick else np.repeat(col, 2)

        key = self.key[d]
        if pick:
            bit = streams.draw_bit(key, streams.STREAM_CHILD_CHOICE, 0)
        else:
            bit = np.tile(np.array([0, 1], dtype=np.int64), key.size)
        self.level += 1
        self.key = streams.child_keys(expand(key),
                                      bit.astype(np.uint64))
        del key
        self.bit = bit
        grown = self.rate[d] * self.life[d]
        self.birth = expand(self.birth[d] + self.life[d])
        self.life = None
        self.cum = expand(self.cum[d] + grown)
        self.root = expand(self.root[d])
        if self.sizes_from_growth:
            self.size = (self.root_size[self.root] * np.exp(self.cum)
                         / 2.0 ** self.level)
        else:
            self.size = expand(0.5 * self.size[d] * np.exp(grown))
        del grown
        self.rate = sample_growth_rates_keyed(
            self.growth_kernel, expand(self.rate[d]), self.key,
            streams.STREAM_GROWTH)
        self.life = sample_lifetimes_keyed(self.division_rate, self.key,
                                           self.size, self.rate)


def _grow_until(forest: _Forest, t: float, pick: bool):
    """Grow ``forest`` level by level until time ``t``.

    At each level yields the mask of the live cells that are still alive
    at ``t`` (they divide after it), then divides the others, so every
    cell alive at ``t`` is yielded exactly once.
    """
    for _ in range(_MAX_FOREST_LEVELS):
        alive = forest.birth + forest.life > t
        yield alive
        if alive.all():
            return
        forest.divide(pick, np.flatnonzero(~alive))
    raise RuntimeError("the forest still divides before t after "
                       f"{_MAX_FOREST_LEVELS} generations")


def grow_replicates(spec: ModelSpec, scheme: str, levels,
                    run_keys: np.ndarray,
                    columns: tuple[str, ...] = ("size", "rate", "life")):
    """Grow one genealogy per run key as one forest, lane r for
    ``levels[r]`` generations, and yield ``(lanes, cols)`` for each range
    of lanes with equal levels once its last generation is in: the named
    :class:`_Forest` ``columns`` as a (column, lane, cell) view, cells in
    breadth-first order.  ``scheme="full"`` keeps every cell (2^L - 1 for
    L levels); ``"sparse"`` a lineage of L cells that follows, at each
    division, the child drawn from the cell's choice stream.  ``levels``
    must not increase, so finished lanes are the forest's tail and leave
    it: the forest divides ``max(levels) - 1`` times."""
    if scheme not in ("full", "sparse"):
        raise ValueError(f"unknown scheme {scheme!r}")
    pick = scheme == "sparse"
    levels = np.asarray(levels, dtype=np.int64)
    if np.any(levels < 1) or np.any(np.diff(levels) > 0):
        raise ValueError("levels must be positive and non-increasing")
    if not levels.size:
        return
    cuts = [0, *(np.flatnonzero(np.diff(levels)) + 1).tolist(), levels.size]
    # cell-major storage per run, allocated shortest first: on the benchmark
    # ladder that peaks about 0.9 MB lower than longest first
    groups = [(range(a, b), int(levels[a]), np.empty(
        (len(columns), int(levels[a]) if pick else 2 ** int(levels[a]) - 1,
         b - a))) for a, b in reversed(list(zip(cuts, cuts[1:])))][::-1]
    forest = _Forest(spec, run_keys)
    for g in range(int(levels[0])):
        width = 1 if pick else 1 << g  # cells per lane in generation g
        start = g if pick else width - 1
        for lanes, _, out in groups:
            for stored, c in zip(out, columns):
                stored[start:start + width] = getattr(forest, c)[
                    lanes.start * width:lanes.stop * width].reshape(
                        len(lanes), width).T
        done = groups.pop() if groups[-1][1] == g + 1 else None
        if groups:
            forest.divide(pick, slice(0, groups[-1][0].stop * width))
        else:
            del forest  # before the last lanes are read
        if done:
            yield done[0], done[2].transpose(0, 2, 1)


def simulate_replicates(spec: ModelSpec, scheme: str, size: int,
                        seeds) -> list[GenealogyTree]:
    """One genealogy per seed, grown together by :func:`grow_replicates`;
    each equals the one :func:`simulate_full_tree` or
    :func:`simulate_sparse_lineage` returns for its seed."""
    full = scheme == "full"
    columns = ("size", "rate", "birth", "life") + (() if full else ("bit",))
    (_, cols), = grow_replicates(
        spec, scheme, np.full(len(seeds), size + 1 if full else size),
        np.concatenate([streams.run_key(s) for s in seeds]), columns)
    return [GenealogyTree(scheme, *cols[:4, r],
                          chain_bits=None if full else cols[4, r, 1:])
            for r in range(len(seeds))]


def simulate_full_tree(spec: ModelSpec, generations: int,
                       seed: int) -> GenealogyTree:
    """Every cell of generations 0..N: exactly 2^(N+1)-1 records."""
    if generations < 0:
        raise ValueError("generations must be >= 0")
    return simulate_replicates(spec, "full", generations, [seed])[0]


def simulate_sparse_lineage(spec: ModelSpec, length: int,
                            seed: int) -> GenealogyTree:
    """A single followed lineage of ``length`` records; at each division the
    followed child is a fair {0,1} pick from the cell's choice stream."""
    if length < 1:
        raise ValueError("length must be >= 1")
    return simulate_replicates(spec, "sparse", length, [seed])[0]


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
    forest = _Forest(spec, streams.run_key(seed), sizes_from_growth=True)
    steps = [(forest.birth, forest.size, forest.rate, forest.cum)
             for _ in _grow_until(forest, t_max, pick=True)]
    births, sizes, rates, cums = (np.concatenate(c) for c in zip(*steps))
    return TaggedPath(float(sizes[0]), births, sizes, rates, cums, t_max)


# ---------------------------------------------------------------------------
# Observation extraction
# ---------------------------------------------------------------------------

def extract_observations(tree: GenealogyTree) -> ObservationSet:
    """Flat (size, rate, lifetime) rows in breadth-first order; the
    estimator is permutation-invariant so the order is cosmetic.  The
    columns are the tree's own read-only arrays, not copies."""
    return ObservationSet(tree.size_birth, tree.growth_rate, tree.lifetime)


def parent_child_arrays(tree: GenealogyTree):
    """(parent_size, parent_growth, child_size) per non-root record."""
    rows = np.arange(1, len(tree))
    parents = rows - 1 if tree.scheme == "sparse" else (rows - 1) >> 1
    return (tree.size_birth[parents], tree.growth_rate[parents],
            tree.size_birth[rows])


# ---------------------------------------------------------------------------
# Genealogy CSV format
# ---------------------------------------------------------------------------

_CSV_HEADER = ["path", "size_birth", "growth_rate", "lifetime", "birth_time"]
_CSV_BLOCK = 1 << 16  # rows formatted per write
_NOT_A_TREE = "genealogy is neither a complete tree nor a single lineage"
_NOT_BINARY = "genealogy paths may only hold the characters 0 and 1"
_PATH_WIDTH = 32  # path bytes parsed with the values; longer ones re-read
_DECODE_ROWS = 1 << 16  # full-tree paths decoded per block
_NUL_SCAN_BYTES = 1 << 20


def _path_text(tree: GenealogyTree, rows: slice) -> np.ndarray:
    """The ``path`` cells of ``rows``, NUL-padded: prefixes of the chain's
    bits (sparse), or each index's ``generation`` low bits, most
    significant first (full)."""
    gen, index = tree.positions(rows)
    if tree.scheme == "sparse":
        bits = np.append(tree.chain_bits[:gen.max(initial=0)], 0)
    else:  # each index's bits, left-aligned in whole bytes
        nbytes = int(gen.max(initial=0)) // 8 + 1
        left = (index << (8 * nbytes - gen)).astype(">u8")
        bits = np.unpackbits(
            left.view(np.uint8).reshape(-1, 8)[:, 8 - nbytes:], axis=1)
    width = bits.shape[-1]
    keep = np.arange(width) < gen[:, None]
    chars = (bits + ord("0")).astype(np.uint8) * keep
    return chars.view(f"S{width}").ravel()


def write_genealogy_csv(tree: GenealogyTree, path) -> None:
    """One row per cell: path,size_birth,growth_rate,lifetime,birth_time.

    The bytes are those of ``csv.writer`` (``\\r\\n`` line ends) with
    every value as :data:`~gftree.curves.FLOAT_FORMAT` (17 significant
    digits), so a read-back is bit-exact.  Paths come from each row's
    :meth:`~GenealogyTree.positions`.  Blocks of
    ``_CSV_BLOCK`` rows (fewer for long sparse paths) are formatted a
    column at a time by :func:`~gftree.curves.float_text`.
    """
    from .curves import float_text, join_text

    columns = (tree.size_birth, tree.growth_rate, tree.lifetime,
               tree.birth_time)
    step = max(1, min(_CSV_BLOCK, _CSV_BLOCK * 128 // (tree.depth + 1)))
    with open(path, "wb") as fh:
        fh.write((",".join(_CSV_HEADER) + "\r\n").encode())
        for start in range(0, len(tree), step):
            rows = slice(start, start + step)
            cells = [float_text(c[rows]) for c in columns]
            fh.write(join_text([_path_text(tree, rows), *cells], b",", b"\r\n"))


def _full_tree_indices(paths: np.ndarray, gens: np.ndarray,
                       depth: int) -> np.ndarray:
    """Index within its generation of every path of a full-tree candidate,
    decoded from the first ``depth`` bytes of ``_DECODE_ROWS`` paths at a
    time, so the byte and bit matrices stay bounded; paths are at most
    ``depth`` long."""
    width = max(depth, 1)
    index = np.empty(gens.size, dtype=np.int64)
    for start in range(0, gens.size, _DECODE_ROWS):
        rows = slice(start, start + _DECODE_ROWS)
        codes = paths[rows].astype(f"S{width}").view(np.uint8)
        codes = codes.reshape(-1, width)
        within = np.arange(width) < gens[rows, None]
        one = codes == ord("1")
        if not np.array_equal(one | (codes == ord("0")), within):
            raise ValueError(_NOT_BINARY)
        # the left-aligned bits as one big-endian number, shifted into place
        packed = np.packbits(one, axis=1)
        block = np.zeros(packed.shape[0], dtype=np.int64)
        for column in packed.T:
            block = (block << 8) | column
        index[rows] = block >> (8 * packed.shape[1] - gens[rows])
    return index


def _breadth_first_order(slot: np.ndarray) -> Optional[np.ndarray]:
    """The rows in breadth-first order, given each row's ``slot`` in it, or
    None when they are in that order already.  Raises ``ValueError`` unless
    the slots are a permutation of 0..n-1 (one scatter, no sort)."""
    n = slot.size
    if slot.max() >= n:
        raise ValueError(_NOT_A_TREE)
    seen = np.zeros(n, dtype=bool)
    seen[slot] = True
    if not seen.all():
        raise ValueError(_NOT_A_TREE)
    if not np.any(slot[1:] < slot[:-1]):
        return None
    order = np.empty(n, dtype=np.int64)
    order[slot] = np.arange(n)
    return order


def _refuse_nul(path) -> None:
    """``S`` fields drop trailing NULs, so a path ``"1\\0"`` would read as
    ``"1"``: refuse a NUL byte anywhere, one block of the file at a time."""
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(_NUL_SCAN_BYTES), b""):
            if b"\0" in block:
                raise ValueError("genealogy CSV holds a NUL byte")


def _load_genealogy_table(path, dtype, usecols) -> np.ndarray:
    """The rows after a checked header, parsed by
    :func:`~gftree.curves.load_csv_columns`."""
    from .curves import load_csv_columns

    with open(path, encoding="utf-8", newline="") as fh:
        header = next(csv.reader(fh), None)
        if header != _CSV_HEADER:
            raise ValueError(f"unexpected genealogy header {header!r}")
        return load_csv_columns(fh, dtype, usecols)


def read_genealogy_csv(path) -> GenealogyTree:
    """Rebuild a tree from the CSV format; the scheme is inferred (complete
    binary tree -> full, single chain -> sparse).

    Rows may come in any order, with LF or CRLF line ends and ``csv``-style
    quoting; blank lines are skipped.  Values are parsed column-wise by
    :func:`~gftree.curves.load_csv_columns`, bit-identical to ``float()``,
    and paths as bytes in the same pass, cut at ``_PATH_WIDTH``; when a
    path fills that width the path column alone is read again as Python
    strings, and only the longest path is encoded.  Each row goes to its
    breadth-first slot (``2^g - 1 + index``, or its length in a chain),
    checked to be a permutation without sorting; the tree keeps no
    position column.
    Raises ``ValueError`` for a wrong header, an unparsable or short row,
    no rows, a NUL byte, a path character other than 0 or 1, or paths that
    form neither a complete tree (each present once) nor a single chain.
    """
    _refuse_nul(path)
    table = _load_genealogy_table(
        path, [("path", f"S{_PATH_WIDTH}"), ("values", np.float64, (4,))],
        (0, 1, 2, 3, 4))
    n = table.size
    if n == 0:
        raise ValueError("genealogy CSV holds no cells")
    paths = table["path"]
    gens = np.strings.str_len(paths).astype(np.int64, copy=False)
    if gens.max() >= _PATH_WIDTH:  # some path may be cut: read them whole
        # as str objects: a bytes column would be (n, longest path) wide
        paths = _load_genealogy_table(path, object, (0,))
        gens = np.fromiter(map(len, paths), np.int64, n)
    depth = int(gens.max())
    bits = None
    if n == 2 ** (depth + 1) - 1 and np.array_equal(
            np.bincount(gens), 2 ** np.arange(depth + 1)):
        scheme = "full"
        order = _breadth_first_order(
            (1 << gens) - 1 + _full_tree_indices(paths, gens, depth))
    else:
        scheme = "sparse"
        # n distinct lengths 0..n-1, each a prefix of the longest path
        order = _breadth_first_order(gens)
        chain = paths[n - 1 if order is None else order[-1]]
        if not all(map(chain.startswith, paths)):
            raise ValueError(_NOT_A_TREE)
        if isinstance(chain, str):
            chain = chain.encode()
        if chain.strip(b"01"):
            raise ValueError(_NOT_BINARY)
        bits = (np.frombuffer(chain, dtype=np.uint8)
                - ord("0")).astype(np.int64)
    values = table["values"]
    if order is None:
        columns = [np.ascontiguousarray(values[:, k]) for k in range(4)]
    else:
        columns = [values[order, k] for k in range(4)]
    del table, paths, gens, values  # the tree is built without them
    return GenealogyTree(scheme, columns[0], columns[1], columns[3],
                         columns[2], chain_bits=bits)


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


def _forest_moments(spec: ModelSpec, t: float, battery, replicates: int,
                    seed: int, tagged: bool):
    """Monte Carlo means (and standard errors) over ``replicates`` roots of
    phi(size, rate, cumulated growth) at time t.

    ``tagged`` follows one uniformly picked branch per root and scores its
    cell alive at t; otherwise whole trees are grown exactly up to t and
    each root scores the weighted population sum
    sum_u size_u(t) e^{-cumgrowth_u(t)} / x0 * phi(...).  Cells born after
    t contribute nothing and are not simulated, so no censoring can occur.
    """
    run_keys = streams.combine(streams.run_key(seed, 1 if tagged else 2),
                               np.arange(replicates, dtype=np.uint64))
    sums = np.zeros((len(battery), replicates))
    # a root's cells stay contiguous and breadth-first in any forest, so
    # each root's sum adds in the same order whatever batch it is in
    for lo in range(0, replicates, _FOREST_ROOTS):
        batch = slice(lo, lo + _FOREST_ROOTS)
        forest = _Forest(spec, run_keys[batch], sizes_from_growth=tagged)
        for alive in _grow_until(forest, t, pick=tagged):
            a = np.flatnonzero(alive)
            root = forest.root[a]
            rate = forest.rate[a]
            age = t - forest.birth[a]
            w_t = forest.cum[a] + rate * age
            if tagged:
                x_t = (forest.root_size[root] * np.exp(w_t)
                       / 2.0 ** forest.level)
                weight = 1.0
            else:
                x_t = forest.size[a] * np.exp(rate * age)
                weight = x_t * np.exp(-w_t) / forest.root_size[root]
            for row, (_, phi) in zip(sums[:, batch], battery):
                np.add.at(row, root, weight * phi(x_t, rate, w_t))
    return [(name, float(np.mean(vals)),
             float(np.std(vals, ddof=1) / math.sqrt(replicates)))
            for (name, _), vals in zip(battery, sums)]


def many_to_one_battery(spec: ModelSpec, t: float, replicates: int, seed: int,
                        x0: float = 1.0, battery=None) -> list[BatteryResult]:
    """Compare tagged-path and weighted-population Monte Carlo means for a
    battery of test functions, from a fixed root size x0."""
    battery = battery if battery is not None else default_battery()
    spec_x = _point_size_spec(spec, x0)
    tagged = _forest_moments(spec_x, t, battery, replicates, seed, True)
    pop = _forest_moments(spec_x, t, battery, replicates, seed, False)
    return [BatteryResult(name, tm, ts, pm, ps)
            for (name, tm, ts), (_, pm, ps) in zip(tagged, pop)]
