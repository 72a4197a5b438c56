import math

import numpy as np
import pytest
from scipy import stats

from gftree import streams, trees
from gftree.model import (DiracGrowth, GrowthBounds, InitialDistribution,
                          ModelSpec, PointStart, PowerLawRate,
                          cumulative_hazard, reference_model)
from gftree.streams import run_key
from gftree.trees import (GenealogyTree, extract_observations,
                          many_to_one_battery, parent_child_arrays,
                          read_genealogy_csv, simulate_full_tree,
                          simulate_sparse_lineage, write_genealogy_csv)


# ---------------------------------------------------------------------------
# Positions: a record's place in the tree is its breadth-first row
# ---------------------------------------------------------------------------

def tree_of(scheme, n, chain_bits=None):
    return GenealogyTree(scheme, *np.ones((3, n)), chain_bits=chain_bits)


@pytest.mark.parametrize("depth", range(21))
def test_full_tree_positions_equal_breadth_first_layout(depth):
    # the layout the tree stored as columns before positions were derived
    gen = np.repeat(np.arange(depth + 1), 2 ** np.arange(depth + 1))
    index = np.arange(gen.size) - (2 ** gen - 1)
    tree = tree_of("full", gen.size)
    got_gen, got_index = tree.positions()
    assert got_gen.dtype == got_index.dtype == np.int64
    assert np.array_equal(got_gen, gen) and np.array_equal(got_index, index)
    assert tree.depth == depth
    for rows in (slice(0, 1), slice(3, None), slice(gen.size // 3,
                                                    gen.size // 2)):
        got_gen, got_index = tree.positions(rows)
        assert np.array_equal(got_gen, gen[rows])
        assert np.array_equal(got_index, index[rows])


@pytest.mark.parametrize("n", [1, 2, 7, 1000])
def test_lineage_positions_are_row_and_zero(n):
    tree = tree_of("sparse", n, chain_bits=np.ones(n - 1))
    gen, index = tree.positions()
    assert np.array_equal(gen, np.arange(n))
    assert np.array_equal(index, np.zeros(n, dtype=np.int64))
    assert tree.depth == n - 1
    assert np.array_equal(tree.positions(slice(2, 5))[0], np.arange(n)[2:5])


@pytest.mark.parametrize("args, message", [
    (("full", 0), "full scheme must hold"),
    (("full", 2), "full scheme must hold"),
    (("full", 6), "full scheme must hold"),
    (("sparse", 0, np.zeros(0)), "at least one record"),
    (("sparse", 3), "one child bit per division"),
    (("sparse", 3, np.ones(3)), "one child bit per division"),
    (("sparse", 3, np.array([0, 2])), "0 or 1"),
    (("binary", 3), "unknown scheme"),
], ids=["full-empty", "full-2", "full-6", "sparse-empty", "sparse-no-bits",
        "sparse-too-many-bits", "sparse-non-binary-bit", "unknown-scheme"])
def test_tree_constructor_refusals(args, message):
    with pytest.raises(ValueError, match=message):
        tree_of(*args)


def test_tree_refuses_columns_of_unequal_length():
    with pytest.raises(ValueError, match="equal length"):
        GenealogyTree("full", np.ones(3), np.ones(3), np.ones(2))
    with pytest.raises(ValueError, match="equal length"):
        GenealogyTree("sparse", np.ones(2), np.ones(3), np.ones(2),
                      chain_bits=[0])


# ---------------------------------------------------------------------------
# Full trees
# ---------------------------------------------------------------------------

def test_zero_generations_gives_root_only(variability_spec):
    tree = simulate_full_tree(variability_spec, 0, seed=1)
    assert len(tree) == 1
    assert 1.0 / 3.0 <= tree.size_birth[0] <= 3.0
    assert tree.birth_time[0] == 0.0


def test_two_generations_give_seven_records(variability_spec):
    tree = simulate_full_tree(variability_spec, 2, seed=2)
    assert len(tree) == 7
    gen, index = tree.positions()
    assert gen.tolist() == [0, 1, 1, 2, 2, 2, 2]
    assert index.tolist() == [0, 0, 1, 0, 1, 2, 3]
    # siblings (rows 2k + 1 and 2k + 2) are born equal: binary fission
    # into exact halves
    for left in (1, 3, 5):
        assert tree.size_birth[left] == tree.size_birth[left + 1]
        assert tree.birth_time[left] == tree.birth_time[left + 1]


def test_division_relation_and_birth_times(variability_spec):
    tree = simulate_full_tree(variability_spec, 6, seed=3)
    for row in range(1, len(tree)):
        parent = (row - 1) // 2
        grown = tree.size_birth[parent] * math.exp(
            tree.growth_rate[parent] * tree.lifetime[parent])
        assert abs(2.0 * tree.size_birth[row] - grown) <= 4 * math.ulp(grown)
        assert tree.birth_time[row] == (tree.birth_time[parent]
                                        + tree.lifetime[parent])
        assert 0.2 <= tree.growth_rate[row] <= 3.0


def test_same_seed_same_tree(variability_spec):
    a = simulate_full_tree(variability_spec, 8, seed=77)
    b = simulate_full_tree(variability_spec, 8, seed=77)
    for col in ("size_birth", "growth_rate", "birth_time", "lifetime"):
        assert np.array_equal(getattr(a, col), getattr(b, col))
    c = simulate_full_tree(variability_spec, 8, seed=78)
    assert not np.array_equal(a.size_birth, c.size_birth)


def test_full_tree_rejects_indices_out_of_order(tmp_path):
    # generations fit, but two cells share path "0" and path "1" is
    # missing; a tree takes its positions from its rows, so the reader,
    # which places rows by their paths, is what refuses this
    path = tmp_path / "bad.csv"
    path.write_text("path,size_birth,growth_rate,lifetime,birth_time\n"
                    ",1,1,1,0\n0,1,1,1,1\n0,1,1,1,1\n")
    with pytest.raises(ValueError, match="neither a complete tree"):
        read_genealogy_csv(path)


# ---------------------------------------------------------------------------
# Sparse lineages
# ---------------------------------------------------------------------------

def test_sparse_single_record(variability_spec):
    chain = simulate_sparse_lineage(variability_spec, 1, seed=4)
    assert len(chain) == 1
    assert chain.chain_bits.size == 0  # the root: the empty path
    assert chain.positions()[0].tolist() == [0] and chain.depth == 0


def test_sparse_chain_structure(variability_spec):
    chain = simulate_sparse_lineage(variability_spec, 3, seed=4)
    # row k is generation k, the child of row k - 1 by bit chain_bits[k - 1]
    assert chain.positions()[0].tolist() == [0, 1, 2]
    assert chain.chain_bits.size == 2
    assert set(chain.chain_bits.tolist()) <= {0, 1}


def test_sparse_dirac_size_recursion(dirac_spec):
    chain = simulate_sparse_lineage(dirac_spec, 20, seed=9)
    for k in range(19):
        expected = 0.5 * chain.size_birth[k] * math.exp(
            chain.growth_rate[k] * chain.lifetime[k])
        assert chain.size_birth[k + 1] == expected


def test_sparse_lineage_is_a_tree_restriction(variability_spec):
    """The lineage must reproduce full-tree records bit for bit: per-node
    randomness depends only on (seed, path)."""
    tree = simulate_full_tree(variability_spec, 7, seed=17)
    chain = simulate_sparse_lineage(variability_spec, 8, seed=17)
    row = 0  # the chain's k-th cell in the tree: child bit b of row r is
    for k in range(8):  # row 2r + 1 + b
        if k:
            row = 2 * row + 1 + int(chain.chain_bits[k - 1])
        assert tree.size_birth[row] == chain.size_birth[k]
        assert tree.growth_rate[row] == chain.growth_rate[k]
        assert tree.birth_time[row] == chain.birth_time[k]
        assert tree.lifetime[row] == chain.lifetime[k]


@pytest.mark.parametrize("kernel", ["dirac", "uniform_increment",
                                    "gaussian_increment"])
@pytest.mark.parametrize("scheme, size", [("full", 8), ("sparse", 300)])
def test_derived_birth_times_equal_the_forest_s(kernel, scheme, size):
    """A simulated tree stores no birth times and derives each as its
    parent's plus the parent's lifetime when read: the additions the
    forest makes, so the column equals the one it carries, bit for bit."""
    spec, seeds = reference_model(kernel), [1, 2, 3]
    (_, cols), = trees.grow_replicates(
        spec, scheme, np.full(len(seeds), size + (scheme == "full")),
        np.concatenate([run_key(s) for s in seeds]), ("birth",))
    simulate = (simulate_full_tree if scheme == "full"
                else simulate_sparse_lineage)
    for stored, seed in zip(cols[0], seeds):
        tree = simulate(spec, size, seed)
        assert tree._birth_time is None
        assert np.array_equal(tree.birth_time, stored), seed
        assert not tree.birth_time.flags.writeable


@pytest.fixture(scope="module")
def one_forest_trees(variability_spec, tmp_path_factory):
    """Full trees of depth 0..12 at the default live-cell budget, which
    grows each as one forest, and the bytes of their genealogy CSVs."""
    path = tmp_path_factory.mktemp("one_forest") / "tree.csv"
    out = []
    for depth in range(13):
        tree = simulate_full_tree(variability_spec, depth, seed=depth)
        write_genealogy_csv(tree, path)
        out.append((tree, path.read_bytes()))
    return out


@pytest.mark.parametrize("budget", [4, 8, 16])
def test_block_growth_equals_one_forest(variability_spec, one_forest_trees,
                                        tmp_path, monkeypatch, budget):
    """Past a live-cell budget of 4, 8 or 16 cells a full tree grows a
    block of subtrees at a time, each block cut again when its subtree
    passes the budget; keyed draws make every column equal to the one
    forest's, and the CSV, also written 5 rows at a time, equal byte for
    byte."""
    path, csv_blocks = tmp_path / "tree.csv", (trees._CSV_BLOCK, 5)
    monkeypatch.setattr(trees, "_FOREST_CELLS", budget)
    for depth, (wide, text) in enumerate(one_forest_trees):
        tree = simulate_full_tree(variability_spec, depth, seed=depth)
        for col in ("size_birth", "growth_rate", "lifetime", "birth_time"):
            assert np.array_equal(getattr(tree, col), getattr(wide, col)), (
                depth, col)
        for block in csv_blocks:
            monkeypatch.setattr(trees, "_CSV_BLOCK", block)
            write_genealogy_csv(tree, path)
            assert path.read_bytes() == text, (depth, block)


@pytest.mark.parametrize("budget", [4, 16])
def test_block_growth_of_unequal_lanes(variability_spec, monkeypatch, budget):
    """Lanes of several depths, some of them ending inside a block, come
    out of block growth equal to one forest's, each lane range once."""
    levels = [7, 7, 6, 4, 4, 2, 1]
    keys = streams.combine(run_key(3), np.arange(7, dtype=np.uint64))

    def grown():
        return {(lanes.start, lanes.stop): cols.copy() for lanes, cols in
                trees.grow_replicates(variability_spec, "full", levels, keys,
                                      ("size", "rate", "life", "birth"))}

    wide = grown()
    monkeypatch.setattr(trees, "_FOREST_CELLS", budget)
    blocks = grown()
    assert list(blocks) == list(wide)  # shortest lanes first
    assert sorted(wide) == [(0, 2), (2, 3), (3, 5), (5, 6), (6, 7)]
    for lanes, cols in wide.items():
        assert np.array_equal(blocks[lanes], cols), lanes


# ---------------------------------------------------------------------------
# Tagged branch: the many-to-one check's forest, one child per division
# ---------------------------------------------------------------------------

def _branch_at(branch, t):
    """(divisions, size, cumulated growth) of a tagged branch at time t."""
    k = int(np.searchsorted(branch["birth_times"], t, side="right")) - 1
    rate, age = branch["rates"][k], t - branch["birth_times"][k]
    return (k, float(branch["sizes"][k] * np.exp(rate * age)),
            float(branch["cum_growth_at_birth"][k] + rate * age))


def test_tagged_initial_conditions(variability_spec, tagged_branch):
    branch = tagged_branch(variability_spec, 2.0, seed=6)
    init = variability_spec.initial
    u = streams.draw_uniform(streams.child_keys(run_key(6), 1),
                             streams.STREAM_INITIAL_SIZE, 0)
    root_size = init.size_low + (init.size_high - init.size_low) * u[0]
    assert _branch_at(branch, 0.0) == (0, root_size, 0.0)


def test_tagged_representation_identity(variability_spec, tagged_branch):
    branch = tagged_branch(variability_spec, 3.0, seed=23)
    initial_size = float(branch["sizes"][0])
    for t in np.linspace(0.0, 3.0, 60):
        divisions, size, cum = _branch_at(branch, t)
        lhs = size * 2.0 ** divisions
        rhs = initial_size * math.exp(cum)
        assert abs(lhs - rhs) <= 4 * math.ulp(rhs)


def test_tagged_cumulated_growth_bounds(variability_spec, tagged_branch):
    branch = tagged_branch(variability_spec, 3.0, seed=8)
    for t in np.linspace(0.05, 3.0, 40):
        w = _branch_at(branch, t)[2]
        assert 0.2 * t - 1e-12 <= w <= 3.0 * t + 1e-12


# ---------------------------------------------------------------------------
# Observation extraction and CSV round trips
# ---------------------------------------------------------------------------

def test_extraction_counts(variability_spec):
    tree = simulate_full_tree(variability_spec, 2, seed=2)
    assert extract_observations(tree).n == 7
    chain = simulate_sparse_lineage(variability_spec, 5, seed=2)
    assert extract_observations(chain).n == 5


def test_extraction_shares_read_only_columns(variability_spec):
    tree = simulate_full_tree(variability_spec, 3, seed=2)
    obs = extract_observations(tree)
    for got, own in ((obs.size_birth, tree.size_birth),
                     (obs.growth_rate, tree.growth_rate),
                     (obs.lifetime, tree.lifetime)):
        assert np.shares_memory(got, own)
        with pytest.raises(ValueError, match="read-only"):
            own[0] = 1.0


def test_genealogy_csv_roundtrip_full(tmp_path, variability_spec):
    tree = simulate_full_tree(variability_spec, 5, seed=13)
    path = tmp_path / "tree.csv"
    write_genealogy_csv(tree, path)
    back = read_genealogy_csv(path)
    assert back.scheme == "full"
    for col in ("size_birth", "growth_rate", "birth_time", "lifetime"):
        assert np.array_equal(getattr(tree, col), getattr(back, col))
    path2 = tmp_path / "tree2.csv"
    write_genealogy_csv(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_genealogy_csv_roundtrip_sparse(tmp_path, variability_spec):
    chain = simulate_sparse_lineage(variability_spec, 9, seed=14)
    path = tmp_path / "chain.csv"
    write_genealogy_csv(chain, path)
    back = read_genealogy_csv(path)
    assert back.scheme == "sparse"
    assert np.array_equal(back.chain_bits, chain.chain_bits)
    assert np.array_equal(back.size_birth, chain.size_birth)
    assert np.array_equal(back.lifetime, chain.lifetime)


def test_genealogy_csv_rejects_disconnected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("path,size_birth,growth_rate,lifetime,birth_time\n"
                    ",1.0,1.0,0.5,0\n"
                    "01,0.9,1.0,0.5,0.5\n")
    with pytest.raises(ValueError):
        read_genealogy_csv(path)


def test_parent_child_arrays(variability_spec):
    tree = simulate_full_tree(variability_spec, 4, seed=15)
    ps, pg, cs = parent_child_arrays(tree)
    assert ps.size == len(tree) - 1
    for row in (1, 5, len(tree) - 1):
        # the parent of generation g, index i is generation g - 1, index
        # i // 2, at row 2^(g-1) - 1 + i // 2 = (row - 1) // 2
        (g,), (i,) = tree.positions(slice(row, row + 1))
        parent = 2 ** (g - 1) - 1 + i // 2
        assert parent == (row - 1) // 2
        assert ps[row - 1] == tree.size_birth[parent]
        assert pg[row - 1] == tree.growth_rate[parent]
        assert cs[row - 1] == tree.size_birth[row]


def test_simulation_with_tabulated_rate():
    """The segment-wise tabulated inverse drives whole-tree simulation."""
    from gftree.model import TabulatedRate, UniformIncrementGrowth

    bounds = GrowthBounds(0.2, 3.0)
    grid = np.linspace(0.05, 8.0, 160)
    spec = ModelSpec(TabulatedRate(grid, grid ** 2),
                     UniformIncrementGrowth(2.0, 0.5, bounds), bounds,
                     InitialDistribution(1.0 / 3.0, 3.0))
    tree = simulate_full_tree(spec, 6, seed=44)
    assert len(tree) == 127
    assert np.all(tree.lifetime > 0)
    for row in range(1, len(tree)):
        parent = (row - 1) // 2
        grown = tree.size_birth[parent] * math.exp(
            tree.growth_rate[parent] * tree.lifetime[parent])
        assert abs(2 * tree.size_birth[row] - grown) <= 4 * math.ulp(grown)


# ---------------------------------------------------------------------------
# Lifetime law within the simulator
# ---------------------------------------------------------------------------

def test_first_generation_lifetimes_follow_hazard_law():
    bounds = GrowthBounds(1.0, 1.0)
    spec = ModelSpec(PowerLawRate(1.0, 2.0), DiracGrowth(1.0, bounds), bounds,
                     InitialDistribution(1.3, 1.3, PointStart(1.0)))
    lifetimes = np.array([
        simulate_full_tree(spec, 0, seed=s).lifetime[0]
        for s in range(4000)])
    cdf = lambda t: 1.0 - np.exp(-np.asarray(
        cumulative_hazard(spec.division_rate, 1.3, 1.0, t)))
    stat = stats.kstest(lifetimes, cdf).statistic
    assert stat < stats.distributions.kstwobign.isf(0.01) / math.sqrt(4000)


# ---------------------------------------------------------------------------
# Many-to-one comparison
# ---------------------------------------------------------------------------

def test_many_to_one_battery_passes(variability_spec):
    results = many_to_one_battery(variability_spec, 0.8, 5000, seed=31)
    assert len(results) >= 5
    for r in results:
        assert r.within(3.0), f"{r.name}: z={r.z:.2f}"


def test_many_to_one_unit_weight_is_exact(variability_spec):
    # sum of weights over the alive population is a martingale equal to 1
    results = many_to_one_battery(variability_spec, 0.8, 2000, seed=32)
    const = next(r for r in results if r.name == "one")
    assert const.population_mean == pytest.approx(1.0, abs=1e-12)
    assert const.population_se <= 1e-12


def test_batched_many_to_one_equals_one_forest(variability_spec, monkeypatch):
    # 100 roots in uneven batches of 7 (population) and 9 (tagged) add up
    # bit for bit as in one forest
    monkeypatch.setattr(trees, "_FOREST_ROOTS", 7)
    monkeypatch.setattr(trees, "_FOREST_CELLS", 9)
    batched = many_to_one_battery(variability_spec, 1.5, 100, seed=41)
    monkeypatch.setattr(trees, "_FOREST_ROOTS", 100)
    monkeypatch.setattr(trees, "_FOREST_CELLS", 100)
    single = many_to_one_battery(variability_spec, 1.5, 100, seed=41)
    for b, s in zip(batched, single, strict=True):
        assert b.tagged_mean == s.tagged_mean
        assert b.tagged_se == s.tagged_se
        assert b.population_mean == s.population_mean
        assert b.population_se == s.population_se


def test_full_tree_memory_per_cell(variability_spec, bytes_per_added_cell):
    """A full tree stores three float columns, 24 B per cell.  Past
    ``_FOREST_CELLS`` live cells its generations grow a block of subtrees
    at a time, so the forests' keys, sizes, rates and draws are a fixed
    scratch beside the columns: from 2^16 to 2^17 cells the peak rises by
    24 B per added cell.  A last generation grown as one forest put 28 B
    per cell of scratch beside it, 52 B in all."""
    assert bytes_per_added_cell(lambda g: (
        lambda: simulate_full_tree(variability_spec, g, seed=5),
        2 ** (g + 1) - 1), 15, 16)[0] <= 26


def test_full_tree_memory_per_cell_without_birth_times(variability_spec,
                                                       peak_bytes):
    """A full tree stores three float columns, 24 B per cell, and derives
    its birth times when they are read.  At 2^16 cells the forest of
    ``_FOREST_CELLS`` cells and the block grown from it add about 1.6 MB
    of scratch, 24 B per cell; storing and carrying the birth times took
    64 B/cell, and growing the last generation as one forest 52 B/cell."""
    peak, tree = peak_bytes(
        lambda: simulate_full_tree(variability_spec, 15, seed=5))
    assert len(tree) == 2 ** 16 - 1
    assert tree._birth_time is None
    assert peak < 50 * len(tree)


def test_genealogy_csv_writer_memory_per_cell(variability_spec, tmp_path,
                                             bytes_per_added_cell):
    """The writer formats blocks of rows and derives each block's birth
    times from its ancestors' lifetimes, so beside the tree it holds a
    fixed scratch: from 2^16 to 2^17 cells its peak rises by less than
    4 B per added cell.  A whole derived birth column was 8 B per cell."""
    def setup(generations):
        tree = simulate_full_tree(variability_spec, generations, seed=5)
        return (lambda: write_genealogy_csv(tree, tmp_path / "tree.csv"),
                len(tree))

    assert bytes_per_added_cell(setup, 15, 16)[0] < 4


def test_many_to_one_memory_is_free_of_replicate_count(variability_spec,
                                                       monkeypatch, peak_bytes):
    monkeypatch.setattr(trees, "_FOREST_ROOTS", 512)

    def peak(replicates):
        return peak_bytes(lambda: many_to_one_battery(
            variability_spec, 2.0, replicates, seed=42))[0]

    # one forest of all roots would hold about 8 times as many cells
    assert peak(8 * 512) <= 1.5 * peak(512)
