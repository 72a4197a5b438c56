import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from gftree import trees
from gftree.model import (DiracGrowth, GrowthBounds, InitialDistribution,
                          ModelSpec, PowerLawRate, cumulative_hazard)
from gftree.trees import (GenealogyTree, HorizonExceeded,
                          TreePath, extract_observations, many_to_one_battery,
                          parent_child_arrays, population_snapshot,
                          read_genealogy_csv, simulate_full_tree,
                          simulate_sparse_lineage, simulate_tagged_cell,
                          write_genealogy_csv)


def single_root_tree(size=1.0, rate=1.0, lifetime=math.log(2.0)):
    return GenealogyTree("full", np.array([0]), np.array([0]),
                         np.array([size]), np.array([rate]),
                         np.array([0.0]), np.array([lifetime]))


# ---------------------------------------------------------------------------
# Paths
# ---------------------------------------------------------------------------

def test_tree_path_basics():
    root = TreePath()
    assert root.generation == 0 and str(root) == ""
    p = TreePath.from_string("011")
    assert p.generation == 3
    assert p.parent() == TreePath.from_string("01")
    assert p.child(0) == TreePath.from_string("0110")
    with pytest.raises(ValueError):
        root.parent()
    with pytest.raises(ValueError):
        TreePath((0, 2))


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
    recs = tree.records
    assert set(map(str, recs)) == {"", "0", "1", "00", "01", "10", "11"}
    # siblings are born equal: binary fission into exact halves
    for prefix in ("", "0", "1"):
        left = recs[TreePath.from_string(prefix + "0")]
        right = recs[TreePath.from_string(prefix + "1")]
        assert left.size_birth == right.size_birth
        assert left.birth_time == right.birth_time


def test_division_relation_and_birth_times(variability_spec):
    tree = simulate_full_tree(variability_spec, 6, seed=3)
    recs = tree.records
    for path, rec in recs.items():
        if path.generation == 0:
            continue
        parent = recs[path.parent()]
        grown = parent.size_birth * math.exp(
            parent.growth_rate * parent.lifetime)
        assert abs(2.0 * rec.size_birth - grown) <= 4 * math.ulp(grown)
        assert rec.birth_time == parent.birth_time + parent.lifetime
        assert 0.2 <= rec.growth_rate <= 3.0


def test_same_seed_same_tree(variability_spec):
    a = simulate_full_tree(variability_spec, 8, seed=77)
    b = simulate_full_tree(variability_spec, 8, seed=77)
    for col in ("size_birth", "growth_rate", "birth_time", "lifetime"):
        assert np.array_equal(getattr(a, col), getattr(b, col))
    c = simulate_full_tree(variability_spec, 8, seed=78)
    assert not np.array_equal(a.size_birth, c.size_birth)


def test_full_tree_rejects_indices_out_of_order():
    # generations fit, but two cells share path "0" and path "1" is missing
    with pytest.raises(ValueError):
        GenealogyTree("full", [0, 1, 1], [0, 0, 0], np.ones(3), np.ones(3),
                      np.zeros(3), np.ones(3))


# ---------------------------------------------------------------------------
# Sparse lineages
# ---------------------------------------------------------------------------

def test_sparse_single_record(variability_spec):
    chain = simulate_sparse_lineage(variability_spec, 1, seed=4)
    assert len(chain) == 1
    assert chain.path_of(0) == TreePath()


def test_sparse_chain_structure(variability_spec):
    chain = simulate_sparse_lineage(variability_spec, 3, seed=4)
    paths = [chain.path_of(k) for k in range(3)]
    assert paths[0].generation == 0
    assert paths[1].parent() == paths[0]
    assert paths[2].parent() == paths[1]


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
    recs = tree.records
    for k in range(8):
        rec = recs[chain.path_of(k)]
        assert rec.size_birth == chain.size_birth[k]
        assert rec.growth_rate == chain.growth_rate[k]
        assert rec.birth_time == chain.birth_time[k]
        assert rec.lifetime == chain.lifetime[k]


# ---------------------------------------------------------------------------
# Tagged path
# ---------------------------------------------------------------------------

def test_tagged_initial_conditions(variability_spec):
    path = simulate_tagged_cell(variability_spec, 2.0, seed=6)
    assert path.divisions_by(0.0) == 0
    assert path.size_at(0.0) == path.initial_size
    assert path.cumulated_growth_at(0.0) == 0.0


def test_tagged_representation_identity(variability_spec):
    path = simulate_tagged_cell(variability_spec, 3.0, seed=23)
    for t in np.linspace(0.0, 3.0, 60):
        lhs = path.size_at(t) * 2.0 ** path.divisions_by(t)
        rhs = path.initial_size * math.exp(path.cumulated_growth_at(t))
        assert abs(lhs - rhs) <= 4 * math.ulp(rhs)


def test_tagged_cumulated_growth_bounds(variability_spec):
    path = simulate_tagged_cell(variability_spec, 3.0, seed=8)
    for t in np.linspace(0.05, 3.0, 40):
        w = path.cumulated_growth_at(t)
        assert 0.2 * t - 1e-12 <= w <= 3.0 * t + 1e-12


def test_tagged_rejects_queries_beyond_horizon(variability_spec):
    path = simulate_tagged_cell(variability_spec, 1.0, seed=6)
    with pytest.raises(ValueError):
        path.size_at(1.5)


# ---------------------------------------------------------------------------
# Snapshots
# ---------------------------------------------------------------------------

def test_snapshot_exponential_growth():
    tree = single_root_tree()
    cells = population_snapshot(tree, 0.5 * math.log(2.0))
    assert len(cells) == 1
    assert cells[0].size == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert cells[0].path == TreePath()


def test_snapshot_at_zero_is_root():
    tree = single_root_tree(size=0.7)
    cells = population_snapshot(tree, 0.0)
    assert len(cells) == 1 and cells[0].size == 0.7


def test_snapshot_division_boundary_is_censored():
    tree = single_root_tree()
    with pytest.raises(HorizonExceeded):
        population_snapshot(tree, math.log(2.0))


def test_snapshot_counts_alive_cells(dirac_spec):
    tree = simulate_full_tree(dirac_spec, 6, seed=12)
    first_division = float(tree.lifetime[0])
    t = 0.5 * first_division
    cells = population_snapshot(tree, t)
    assert len(cells) == 1  # only the root lives before its first division
    alive = (tree.birth_time <= t) & (t < tree.birth_time + tree.lifetime)
    assert len(cells) == int(alive.sum())


def test_snapshot_requires_full_scheme(variability_spec):
    chain = simulate_sparse_lineage(variability_spec, 4, seed=1)
    with pytest.raises(ValueError):
        population_snapshot(chain, 0.1)


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
    recs = tree.records
    for row in (1, 5, len(tree) - 1):
        path = tree.path_of(row)
        parent = recs[path.parent()]
        i = row - 1
        assert ps[i] == parent.size_birth
        assert pg[i] == parent.growth_rate
        assert cs[i] == tree.size_birth[row]


def test_simulation_with_tabulated_rate():
    """The generic bisection lifetime path drives whole-tree simulation."""
    from gftree.model import TabulatedRate, UniformIncrementGrowth

    bounds = GrowthBounds(0.2, 3.0)
    grid = np.linspace(0.05, 8.0, 160)
    spec = ModelSpec(TabulatedRate(grid, grid ** 2),
                     UniformIncrementGrowth(2.0, 0.5, bounds), bounds,
                     InitialDistribution(1.0 / 3.0, 3.0))
    tree = simulate_full_tree(spec, 6, seed=44)
    assert len(tree) == 127
    assert np.all(tree.lifetime > 0)
    recs = tree.records
    for path, rec in recs.items():
        if path.generation:
            parent = recs[path.parent()]
            grown = parent.size_birth * math.exp(
                parent.growth_rate * parent.lifetime)
            assert abs(2 * rec.size_birth - grown) <= 4 * math.ulp(grown)


# ---------------------------------------------------------------------------
# Lifetime law within the simulator
# ---------------------------------------------------------------------------

def test_first_generation_lifetimes_follow_hazard_law():
    bounds = GrowthBounds(1.0, 1.0)
    spec = ModelSpec(PowerLawRate(1.0, 2.0), DiracGrowth(1.0, bounds), bounds,
                     InitialDistribution(1.3, 1.3, growth_value=1.0))
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


def test_many_to_one_memory_is_free_of_replicate_count(variability_spec,
                                                       monkeypatch):
    monkeypatch.setattr(trees, "_FOREST_ROOTS", 512)

    def peak(replicates):
        tracemalloc.start()
        try:
            many_to_one_battery(variability_spec, 2.0, replicates, seed=42)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # one forest of all roots would hold about 8 times as many cells
    assert peak(8 * 512) <= 1.5 * peak(512)
