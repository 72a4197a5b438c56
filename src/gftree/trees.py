"""Genealogy simulation: full trees, sparse lineages and tagged branches.

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
lanes may follow lineages of different lengths; full trees whose
generations outgrow ``_FOREST_CELLS`` live cells grow the rest a block of
subtrees at a time.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import curves, streams
from .curves import csv_blocks, float_text, join_text, line_ends, open_csv
from .estimator import ObservationSet
from .model import (ModelSpec, sample_growth_rates_keyed,
                    sample_lifetimes_keyed)


_MAX_FOREST_LEVELS = 4096  # runaway guard for time-capped growth
_MAX_FOREST_CELLS = 1 << 25  # live cells per forest; ~85 B each, ~2.9 GB
_FOREST_CELLS = 1 << 14  # live cells per forest of whole generations
_FOREST_ROOTS = 1 << 10  # many-to-one population roots per forest


class ForestTooLarge(RuntimeError):
    """A time-capped forest would outgrow ``_MAX_FOREST_CELLS``."""


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
    ``chain_bits``).  The float columns are read-only views aligned to the
    record order, ``birth_time`` derived when first read; a record's place
    in the tree is its row (:meth:`positions`).
    """

    def __init__(self, scheme: str, size_birth: np.ndarray,
                 growth_rate: np.ndarray, lifetime: np.ndarray,
                 chain_bits: Optional[np.ndarray] = None):
        self.scheme = scheme
        self.size_birth = _read_only(size_birth)
        self.growth_rate = _read_only(growth_rate)
        self._birth_time = None
        self.lifetime = _read_only(lifetime)
        self.chain_bits = (None if chain_bits is None
                           else np.asarray(chain_bits, dtype=np.int64))
        n = len(self)
        if any(c.size != n for c in (self.growth_rate, self.lifetime)):
            raise ValueError("the columns must have equal length")
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
    def birth_time(self) -> np.ndarray:
        """Every record's birth time (:meth:`birth_blocks`), derived on the
        first read, then kept."""
        if self._birth_time is None:
            birth = np.empty(len(self))
            for rows, values in self.birth_blocks(len(self)):
                birth[rows] = values
            self._birth_time = _read_only(birth)
        return self._birth_time

    def birth_blocks(self, step: int):
        """Yield ``(rows, birth times)`` for consecutive slices of at most
        ``step`` rows, none across generations, from the first row to the
        last.  A cell is born at its parent's birth time plus the parent's
        lifetime, the root at 0: the forest's additions, so equal bit for
        bit to the column it carried.  A lineage adds its lifetimes in
        sequence; a slice of a full tree's generation adds them down the
        runs of its ancestors, from the root, so no generation is kept."""
        life, n = self.lifetime, len(self)
        if self.scheme == "sparse":  # sequential sums, as the forest adds
            born = 0.0
            for a in range(0, n, step):
                rows = slice(a, min(a + step, n))
                births = np.empty(rows.stop - a)
                births[0], births[1:] = born, life[a:rows.stop - 1]
                np.cumsum(births, out=births)
                born = births[-1] + life[rows.stop - 1]
                yield rows, births
            return
        for g in range(self.depth + 1):
            for i in range(0, 1 << g, step):
                j = min(i + step, 1 << g)
                births = np.zeros(1)  # the root's
                for s in range(g - 1, -1, -1):  # generation g - s, of cells
                    lo, hi = i >> s, ((j - 1) >> s) + 1  # from those parents
                    parents = slice((1 << (g - s - 1)) - 1 + (lo >> 1),
                                    (1 << (g - s - 1)) + ((hi - 1) >> 1))
                    births = np.repeat(births + life[parents], 2)[
                        lo & 1:(lo & 1) + hi - lo]
                yield slice((1 << g) - 1 + i, (1 << g) - 1 + j), births

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
    ``size``, growth ``rate`` and ``life``time, and of the columns named in
    ``carry`` its ``birth`` time, cumulated growth at birth ``cum``, the
    index of its ``root`` and the child ``bit`` it was reached by; the
    others are None after the first division.  ``level`` is the generation
    of every live cell and ``root_size`` the size of each root.

    A child's size at birth is half its parent's size at division, or,
    when ``sizes_from_growth`` is set, ``x0 e^{cum} / 2^level`` from its
    root's size ``x0``: the representation the tagged-branch identities
    are stated in.
    """

    def __init__(self, spec: ModelSpec, run_keys: np.ndarray,
                 sizes_from_growth: bool = False,
                 carry=("birth", "cum", "root")):
        self.division_rate = spec.division_rate
        self.growth_kernel = spec.growth_kernel
        self.sizes_from_growth = sizes_from_growth  # needs cum and root
        self.carry = carry
        key = streams.child_keys(run_keys, 1)
        n = key.size
        init = spec.initial
        u = streams.draw_uniform(key, streams.STREAM_INITIAL_SIZE, 0)
        self.root_size = init.size_low + (init.size_high - init.size_low) * u
        rate = init.growth.draw(key, spec.bounds)
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
        else:  # both children of each cell, as a (cell, child) broadcast
            key, bit = key[:, None], np.array([0, 1], dtype=np.int64)
        self.level += 1
        self.key = streams.child_keys(key, bit.astype(np.uint64)).ravel()
        del key
        self.bit = (np.resize(bit, self.key.size) if "bit" in self.carry
                    else None)
        grown = self.rate[d] * self.life[d]
        self.birth = (expand(self.birth[d] + self.life[d])
                      if "birth" in self.carry else None)
        self.life = None
        self.cum = expand(self.cum[d] + grown) if "cum" in self.carry else None
        self.root = expand(self.root[d]) if "root" in self.carry else None
        if self.sizes_from_growth:
            self.size = (self.root_size[self.root] * np.exp(self.cum)
                         / 2.0 ** self.level)
        else:
            self.size = expand(0.5 * self.size[d] * np.exp(grown))
        del grown
        parent_rate, self.rate = expand(self.rate[d]), None
        self.rate = sample_growth_rates_keyed(
            self.growth_kernel, parent_rate, self.key, streams.STREAM_GROWTH)
        del parent_rate
        self.life = sample_lifetimes_keyed(self.division_rate, self.key,
                                           self.size, self.rate)


def _grow_until(forest: _Forest, t: float, pick: bool):
    """Grow ``forest`` level by level until time ``t``.

    At each level yields the mask of the live cells that are still alive
    at ``t`` (they divide after it), then divides the others, so every
    cell alive at ``t`` is yielded exactly once.  Raises ForestTooLarge
    before a generation of more than ``_MAX_FOREST_CELLS`` cells is made.
    """
    for _ in range(_MAX_FOREST_LEVELS):
        alive = forest.birth + forest.life > t
        yield alive
        if alive.all():
            return
        d = np.flatnonzero(~alive)
        if 2 * d.size > _MAX_FOREST_CELLS:
            raise ForestTooLarge(f"a forest would exceed {_MAX_FOREST_CELLS:,}"
                                 f" live cells before t = {t:g}; lower --t")
        forest.divide(pick, d)
    raise RuntimeError("the forest still divides before t after "
                       f"{_MAX_FOREST_LEVELS} generations")


def _store(forest: _Forest, groups, columns, lanes: range, start: int,
           width: int) -> None:
    """Copy the forest's first cells, a run of ``width`` cells per lane of
    ``lanes``, to rows ``start:start + width`` of those lanes in the
    storage of the groups of :func:`grow_replicates` they fall in."""
    for group, _, out in groups:
        a, b = max(group.start, lanes.start), min(group.stop, lanes.stop)
        for stored, c in zip(out if a < b else (), columns):
            stored[start:start + width, a - group.start:b - group.start] = (
                getattr(forest, c)[(a - lanes.start) * width:
                                   (b - lanes.start) * width]
                .reshape(b - a, width).T)


def _grow_blocks(forest: _Forest, levels: np.ndarray, groups, columns,
                 g: int, lanes: range, offset: int, width: int) -> None:
    """Store every later generation of the full trees below the forest's
    first cells: generation g of ``lanes``, which all divide again, each
    lane's run of ``width`` cells ``offset`` cells into the generation.
    Each block of those cells grows as a forest of its own, few enough that
    its last generation keeps to ``_FOREST_CELLS`` cells, or one cell, whose
    subtree is split again when it gets there.  A block takes the lanes or
    the run of one lane that it covers, so each of its generations is one
    run per lane; keyed draws make every cell what it is in one forest."""
    below = int(levels[lanes.start]) - 1 - g  # divisions left, deepest lane
    cells = max(1, _FOREST_CELLS >> below)  # per block, in generation g
    step, run = max(1, cells // width), min(cells, width)  # lanes, cells
    for lane in range(lanes.start, lanes.stop, step):
        for i in range(0, width, run):
            block, h = copy.copy(forest), g
            o, w = offset + i, min(run, width - i)
            live = range(lane, min(lane + step, lanes.stop))
            first = (lane - lanes.start) * width + i
            while live:
                block.divide(False, slice(first, first + len(live) * w))
                h, o, w, first = h + 1, 2 * o, 2 * w, 0
                _store(block, groups, columns, live, (1 << h) - 1 + o, w)
                live = range(lane, lane + int(np.count_nonzero(
                    levels[live.start:live.stop] > h + 1)))
                if 2 * len(live) * w > _FOREST_CELLS:
                    _grow_blocks(block, levels, groups, columns, h, live, o, w)
                    break


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
    it: the forest divides ``max(levels) - 1`` times, or, once a full
    generation would pass ``_FOREST_CELLS`` cells, grows the rest in blocks
    of subtrees (:func:`_grow_blocks`) and yields every lane left."""
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
    forest = _Forest(spec, run_keys, carry=columns)
    for g in range(int(levels[0])):
        width = 1 if pick else 1 << g  # cells per lane in generation g
        _store(forest, groups, columns, range(groups[-1][0].stop),
               g if pick else width - 1, width)
        done = [groups.pop()] if groups[-1][1] == g + 1 else []
        live = groups[-1][0].stop if groups else 0  # lanes that divide
        if live and (pick or 2 * live * width <= _FOREST_CELLS):
            forest.divide(pick, slice(0, live * width))
        else:
            if live:
                _grow_blocks(forest, levels, groups, columns, g, range(live),
                             0, width)
            del forest  # before the last lanes are read
            for lanes, _, out in done + groups[::-1]:
                yield lanes, out.transpose(0, 2, 1)
            return
        if done:
            yield done[0][0], done[0][2].transpose(0, 2, 1)


def simulate_replicates(spec: ModelSpec, scheme: str, size: int,
                        seeds) -> list[GenealogyTree]:
    """One genealogy per seed, grown together by :func:`grow_replicates`;
    each equals the one :func:`simulate_full_tree` or
    :func:`simulate_sparse_lineage` returns for its seed."""
    full = scheme == "full"
    columns = ("size", "rate", "life") + (() if full else ("bit",))
    (_, cols), = grow_replicates(
        spec, scheme, np.full(len(seeds), size + 1 if full else size),
        np.concatenate([streams.run_key(s) for s in seeds]), columns)
    return [GenealogyTree(scheme, cols[0, r], cols[1, r], cols[2, r],
                          chain_bits=None if full else cols[3, r, 1:])
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
# Observation extraction
# ---------------------------------------------------------------------------

def extract_observations(tree: GenealogyTree) -> ObservationSet:
    """Flat (size, rate, lifetime) rows in breadth-first order; the order
    is cosmetic, as each of the estimator's sums is exact before its one
    rounding, so no order of the rows changes a bit.  The columns are the
    tree's own read-only arrays, not copies."""
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
_CSV_BLOCK = 3 << 10  # rows formatted per write
_NOT_A_TREE = "genealogy is neither a complete tree nor a single lineage"
_NOT_BINARY = "genealogy paths may only hold the characters 0 and 1"
_PATH_WIDTH = 32  # path bytes parsed with the values; longer ones re-read
_NUL_SCAN_BYTES = 1 << 18  # the blocks of curves.line_ends


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
    :meth:`~GenealogyTree.positions`, birth times from
    :meth:`~GenealogyTree.birth_blocks`, whose slices of at most
    ``_CSV_BLOCK`` rows (fewer for long sparse paths) are formatted a
    column at a time by :func:`~gftree.curves.float_text` and joined in one
    buffer reused from block to block, so the scratch beside the tree is
    fixed and the heap is not grown and trimmed again for every block.
    """
    step = max(1, min(_CSV_BLOCK, _CSV_BLOCK * 512 // (tree.depth + 1)))
    scratch = bytearray()
    with open(path, "wb") as fh:
        fh.write((",".join(_CSV_HEADER) + "\r\n").encode())
        for rows, births in tree.birth_blocks(step):
            fh.write(join_text([_path_text(tree, rows), *map(float_text, (
                tree.size_birth[rows], tree.growth_rate[rows],
                tree.lifetime[rows], births))], b",", b"\r\n", scratch))


def _full_tree_indices(paths: np.ndarray, gens: np.ndarray) -> np.ndarray:
    """Index within its generation of each of the ``S`` array ``paths``,
    ``gens`` long, read as a binary number.  Raises ``ValueError`` on a
    character other than 0 or 1."""
    width = max(int(gens.max(initial=0)), 1)
    codes = paths.astype(f"S{width}").view(np.uint8).reshape(-1, width)
    one = codes == ord("1")
    if not np.array_equal(one | (codes == ord("0")),
                          np.arange(width) < gens[:, None]):
        raise ValueError(_NOT_BINARY)
    # the left-aligned bits as one big-endian number, shifted into place
    packed = np.packbits(one, axis=1)
    index = np.zeros(packed.shape[0], dtype=np.int64)
    for column in packed.T:
        index = (index << 8) | column
    return index >> (8 * packed.shape[1] - gens)


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


def _row_bound(path) -> int:
    """At least the rows after the header (:func:`~gftree.curves.line_ends`);
    refuses a NUL byte, as ``S`` fields read a path ``"1\\0"`` as ``"1"``."""
    ends, nul = line_ends(path, _NUL_SCAN_BYTES)
    if nul:
        raise ValueError("genealogy CSV holds a NUL byte")
    return ends


def read_genealogy_csv(path) -> GenealogyTree:
    """Rebuild a tree from the CSV format; the scheme is inferred (complete
    binary tree -> full, single chain -> sparse).

    Rows may come in any order, with LF or CRLF line ends and ``csv``-style
    quoting; blank lines are skipped.  :func:`~gftree.curves.csv_blocks`
    parses ``curves.BLOCK`` rows at a time: ``size_birth``, ``growth_rate``
    and ``lifetime`` into float columns sized by the file's line ends, and
    paths as bytes cut at ``_PATH_WIDTH``, each kept only as its full-tree
    slot ``2^g - 1 + index``, which orders the rows breadth-first.  Paths
    that are not a full tree are read again as Python strings, which a
    chain orders by length.  ``birth_time`` is never converted (the tree
    derives it), but each row must hold that fifth cell.
    Raises ``ValueError`` for a wrong header, an unparsable or short row,
    no rows, a NUL byte, a path character other than 0 or 1, or paths that
    form neither a complete tree (each present once) nor a single chain.
    """
    bound = _row_bound(path)
    values = np.empty((3, bound))
    slot = None  # until a row is out of breadth-first order
    count = np.zeros(_PATH_WIDTH + 1, dtype=np.int64)  # rows per path length
    # birth_time is an empty bytes field: present, not converted
    dtype = [("path", f"S{_PATH_WIDTH}"), ("values", np.float64, (3,)),
             ("birth_time", "S0")]
    with open_csv(path) as (fh, header):
        if header != _CSV_HEADER:
            raise ValueError(f"unexpected genealogy header {header!r}")
        for rows, table in csv_blocks(fh, dtype, range(5), curves.BLOCK):
            values[:, rows] = table["values"].T
            gens = np.strings.str_len(table["path"]).astype(np.int64)
            count += np.bincount(gens, minlength=count.size)
            at = (1 << gens) - 1 + _full_tree_indices(table["path"], gens)
            if slot is None and not np.array_equal(
                    at, np.arange(rows.start, rows.stop)):
                slot = np.empty(bound, dtype=np.int64)
                slot[:rows.start] = np.arange(rows.start)
            if slot is not None:
                slot[rows] = at
    del table, gens, at
    n = rows.stop
    if n == 0:
        raise ValueError("genealogy CSV holds no cells")
    values = values[:, :n]
    depth = np.flatnonzero(count)[-1]
    if depth < _PATH_WIDTH and np.array_equal(count[:depth + 1],
                                              1 << np.arange(depth + 1)):
        scheme, bits = "full", None
        # rows whose slots are 0..n-1 in turn need no permutation check
        order = None if slot is None else _breadth_first_order(slot[:n])
    else:
        scheme = "sparse"
        # as str objects, whole: a bytes column would be (n, longest path)
        with open_csv(path) as (fh, _):  # one block: n rows fall short
            (_, paths), = csv_blocks(fh, object, (0,), n + 1)
        # n distinct lengths 0..n-1, each a prefix of the longest path
        order = _breadth_first_order(np.fromiter(map(len, paths), np.int64, n))
        chain = paths[n - 1 if order is None else order[-1]]
        if not all(map(chain.startswith, paths)):
            raise ValueError(_NOT_A_TREE)
        if chain.strip("01"):
            raise ValueError(_NOT_BINARY)
        bits = (np.frombuffer(chain.encode(), dtype=np.uint8)
                - ord("0")).astype(np.int64)
    del slot
    if order is not None:
        for col in values:
            col[:] = col[order]
    return GenealogyTree(scheme, values[0], values[1], values[2],
                         chain_bits=bits)


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


# Indicators and compactly x-supported polynomials phi(size, rate,
# cumulated growth): the test functions of the many-to-one check.
_BATTERY = (
    ("one", lambda x, v, w: np.ones_like(x)),
    ("ind[0.5,1.5]", lambda x, v, w: ((x >= 0.5) & (x <= 1.5)).astype(float)),
    ("x*ind[x<=2]", lambda x, v, w: x * (x <= 2.0)),
    ("x^2*ind[x<=3]", lambda x, v, w: x * x * (x <= 3.0)),
    ("v*ind[x<=2]", lambda x, v, w: v * (x <= 2.0)),
    ("w*ind[x<=2]", lambda x, v, w: w * (x <= 2.0)),
    ("(x-1)^2*ind[x<=2.5]", lambda x, v, w: (x - 1.0) ** 2 * (x <= 2.5)),
)


def _forest_moments(spec: ModelSpec, t: float, replicates: int, seed: int,
                    tagged: bool):
    """Monte Carlo means (and standard errors) over ``replicates`` roots of
    each phi of ``_BATTERY`` at time t.

    ``tagged`` follows one uniformly picked branch per root and scores its
    cell alive at t; otherwise whole trees are grown exactly up to t and
    each root scores the weighted population sum
    sum_u size_u(t) e^{-cumgrowth_u(t)} / x0 * phi(...).  Cells born after
    t contribute nothing and are not simulated, so no censoring can occur.
    """
    run_keys = streams.combine(streams.run_key(seed, 1 if tagged else 2),
                               np.arange(replicates, dtype=np.uint64))
    sums = np.zeros((len(_BATTERY), replicates))
    # a root's cells stay contiguous and breadth-first in any forest, so
    # each root's sum adds in the same order whatever batch it is in
    # a tagged root keeps one live cell, so its batches are wider
    step = _FOREST_CELLS if tagged else _FOREST_ROOTS
    for lo in range(0, replicates, step):
        batch = slice(lo, lo + step)
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
            for row, (_, phi) in zip(sums[:, batch], _BATTERY):
                np.add.at(row, root, weight * phi(x_t, rate, w_t))
    return [(name, float(np.mean(vals)),
             float(np.std(vals, ddof=1) / math.sqrt(replicates)))
            for (name, _), vals in zip(_BATTERY, sums)]


def many_to_one_battery(spec: ModelSpec, t: float, replicates: int,
                        seed: int) -> list[BatteryResult]:
    """Compare tagged-path and weighted-population Monte Carlo means for the
    battery of test functions, from roots of size 1."""
    spec_1 = replace(spec, initial=replace(spec.initial, size_low=1.0,
                                           size_high=1.0))
    tagged = _forest_moments(spec_1, t, replicates, seed, True)
    pop = _forest_moments(spec_1, t, replicates, seed, False)
    return [BatteryResult(name, tm, ts, pm, ps)
            for (name, tm, ts), (_, pm, ps) in zip(tagged, pop)]
