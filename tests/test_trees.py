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
    return GenealogyTree(scheme, *np.ones((4, n)), chain_bits=chain_bits)


@pytest.mark.parametrize("depth", range(21))
def test_full_tree_positions_equal_breadth_first_layout(depth):
    # the layout the tree stored as columns before positions were derived
    gen = np.repeat(np.arange(depth + 1), 2 ** np.arange(depth + 1))
    index = np.arange(gen.size) - (2 ** gen - 1)
    tree = tree_of("full", gen.size)
    got_gen, got_index = tree.positions()
    assert got_gen.dtype == got_index.dtype == np.int64
    assert np.array_equal(got_gen, gen) and np.array_equal(got_index, index)
    assert np.array_equal(tree.generation, gen)
    assert np.array_equal(tree.index, index)
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
        GenealogyTree("full", np.ones(3), np.ones(3), np.ones(3), np.ones(2))
    with pytest.raises(ValueError, match="equal length"):
        GenealogyTree("sparse", np.ones(2), np.ones(3), np.ones(2),
                      np.ones(2), chain_bits=[0])


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
    assert tree.generation.tolist() == [0, 1, 1, 2, 2, 2, 2]
    assert tree.index.tolist() == [0, 0, 1, 0, 1, 2, 3]
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
    assert chain.generation.tolist() == [0] and chain.depth == 0


def test_sparse_chain_structure(variability_spec):
    chain = simulate_sparse_lineage(variability_spec, 3, seed=4)
    # row k is generation k, the child of row k - 1 by bit chain_bits[k - 1]
    assert chain.generation.tolist() == [0, 1, 2]
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
    for col in ("generation", "index", "size_birth", "growth_rate",
                "birth_time", "lifetime"):
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
        g, i = tree.generation[row], tree.index[row]
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
    # 100 roots in uneven batches of 7 add up bit for bit as in one forest
    monkeypatch.setattr(trees, "_FOREST_ROOTS", 7)
    batched = many_to_one_battery(variability_spec, 1.5, 100, seed=41)
    monkeypatch.setattr(trees, "_FOREST_ROOTS", 100)
    single = many_to_one_battery(variability_spec, 1.5, 100, seed=41)
    for b, s in zip(batched, single, strict=True):
        assert b.tagged_mean == s.tagged_mean
        assert b.tagged_se == s.tagged_se
        assert b.population_mean == s.population_mean
        assert b.population_se == s.population_se


def test_full_tree_memory_per_cell(variability_spec, peak_bytes):
    """A full tree keeps four float columns, 32 B per cell.  Its last
    generation, half the cells, is in the forest as node keys, sizes, birth
    times and parent rates while the children's rates are drawn, beside
    the uniforms and the quantile's two bounds and result: eight arrays of
    8 B there, another 32 B per cell.  Forests that also carried every
    cell's root, cumulated growth and child bit took 82 B/cell."""
    peak, tree = peak_bytes(
        lambda: simulate_full_tree(variability_spec, 15, seed=5))
    assert len(tree) == 2 ** 16 - 1
    assert peak < 70 * len(tree)


def test_full_tree_memory_per_cell_without_birth_times(variability_spec,
                                                       peak_bytes):
    """A full tree stores three float columns, 24 B per cell, and derives
    its birth times when they are read.  Its last generation, half the
    cells, is in the forest as node keys, sizes and parent rates while the
    children's rates are drawn, beside the uniforms and the quantile's two
    bounds and result: seven arrays of 8 B there, another 28 B per cell,
    52.1 B/cell in all.  Storing and carrying the birth times took
    64 B/cell."""
    peak, tree = peak_bytes(
        lambda: simulate_full_tree(variability_spec, 15, seed=5))
    assert len(tree) == 2 ** 16 - 1
    assert peak < 53 * len(tree)


def test_many_to_one_memory_is_free_of_replicate_count(variability_spec,
                                                       monkeypatch, peak_bytes):
    monkeypatch.setattr(trees, "_FOREST_ROOTS", 512)

    def peak(replicates):
        return peak_bytes(lambda: many_to_one_battery(
            variability_spec, 2.0, replicates, seed=42))[0]

    # one forest of all roots would hold about 8 times as many cells
    assert peak(8 * 512) <= 1.5 * peak(512)
