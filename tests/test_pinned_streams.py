"""Pinned random streams: recorded outputs of the keyed samplers.

A genealogy is a pure function of (model, seed) through the path-keyed hash
streams, so a refactor of the simulator must leave these values alone.  The
hash words and child bits are exact; float columns are compared at 1e-12
relative so that a different libm cannot trip them.
"""

import hashlib

import numpy as np
import pytest

from gftree import streams
from gftree.trees import (many_to_one_battery, simulate_full_tree,
                          simulate_replicates, simulate_sparse_lineage,
                          simulate_tagged_cell)

RTOL = 1e-12


def _sha256(words: np.ndarray, dtype: str) -> str:
    return hashlib.sha256(words.astype(dtype).tobytes()).hexdigest()


def test_draw_hash_words_are_pinned():
    keys = streams.child_keys(streams.run_key(2024),
                              np.arange(1024, dtype=np.uint64))
    words = streams.draw_hash(keys, streams.STREAM_LIFETIME, 0)
    assert _sha256(words, "<u8") == (
        "15d7329d6dae6f75be417973bfbdd495aedf33e491c3568f8783535ddb37e520")


def test_sparse_chain_bits_are_pinned(variability_spec):
    chain = simulate_sparse_lineage(variability_spec, 4096, seed=26)
    assert _sha256(chain.chain_bits, "<i8") == (
        "9248149b3a4ed53487c2f89220ebb15131e085a2e43d602680df86d05935c98e")


FULL_SEED27 = {
    "size_birth": [2.578405574612679, 1.3307422051936317,
                   1.3307422051936317, 0.7812712453868738,
                   0.7812712453868738, 1.2625822806205305,
                   1.2625822806205305],
    "growth_rate": [2.1640160429793114, 2.0417165271017073,
                    2.3768718788156065, 2.131512925527399,
                    2.1849955944966046, 1.7841016199732445,
                    2.86238988301099],
    "birth_time": [0.0, 0.014654606051867447, 0.014654606051867447,
                   0.09330287020723904, 0.09330287020723904,
                   0.28415562690269286, 0.28415562690269286],
    "lifetime": [0.014654606051867447, 0.0786482641553716,
                 0.2695010208508254, 0.2309290806110164,
                 0.41729224488232275, 0.35932846230485493,
                 0.29014910594881527],
}

CHAIN_SEED28 = {
    "size_birth": [0.9872757610490657, 0.6217370216340016,
                   0.3364612146772377, 1.3264434099710463,
                   1.0236223244187506, 0.6251894663550992],
    "growth_rate": [0.3645060647906127, 0.3411559034819311,
                    1.165137423617537, 1.5679048323575597,
                    1.4297003962075239, 0.8063899496370331],
    "birth_time": [0.0, 0.6329524192072519, 0.864848900170098,
                   2.6371040597404902, 2.9139024813367587,
                   3.0538611868798013],
    "lifetime": [0.6329524192072519, 0.23189648096284607,
                 1.7722551595703921, 0.2767984215962686,
                 0.13995870554304285, 1.2916146097790193],
}


def test_full_tree_columns_are_pinned(variability_spec):
    tree = simulate_full_tree(variability_spec, 2, seed=27)
    assert tree.generation.tolist() == [0, 1, 1, 2, 2, 2, 2]
    assert tree.index.tolist() == [0, 0, 1, 0, 1, 2, 3]
    for col, values in FULL_SEED27.items():
        np.testing.assert_allclose(getattr(tree, col), values, rtol=RTOL,
                                   atol=0, err_msg=col)


def test_chain_columns_are_pinned(variability_spec):
    chain = simulate_sparse_lineage(variability_spec, 6, seed=28)
    assert chain.chain_bits.tolist() == [1, 0, 0, 0, 1]
    for col, values in CHAIN_SEED28.items():
        np.testing.assert_allclose(getattr(chain, col), values, rtol=RTOL,
                                   atol=0, err_msg=col)


BATTERY_SEED32 = [
    ("one", 1.0, 1.0),
    ("ind[0.5,1.5]", 0.619, 0.6016875),
    ("x*ind[x<=2]", 0.9643312218035544, 0.9621606015400673),
    ("x^2*ind[x<=3]", 1.908333522231141, 1.9658912143398284),
    ("v*ind[x<=2]", 1.2371378741255166, 1.2280196928402187),
    ("w*ind[x<=2]", 0.9987941092869059, 0.9968003754133026),
    ("(x-1)^2*ind[x<=2.5]", 0.2948398439401666, 0.3089209546405637),
]


def test_many_to_one_means_are_pinned(variability_spec):
    results = many_to_one_battery(variability_spec, 0.8, 2000, seed=32)
    assert [r.name for r in results] == [name for name, _, _ in BATTERY_SEED32]
    for r, (name, tagged, population) in zip(results, BATTERY_SEED32):
        assert r.tagged_mean == pytest.approx(tagged, rel=RTOL, abs=0), name
        assert r.population_mean == pytest.approx(population, rel=RTOL,
                                                  abs=0), name


TAGGED_SEED23 = {
    "birth_times": [0.0, 0.5851113842112308, 0.7107412650489267,
                    1.3101180228868445, 2.022999555730055,
                    2.1715670618933065, 2.363620631102522,
                    2.859175207997714, 2.99250737208431],
    "sizes": [0.5454407986417953, 1.0780013435799505, 0.680618818412215,
              0.6988777929885853, 1.4858343708741277, 1.0543859758535827,
              0.8643008884728847, 1.7273216416378012, 1.2449860751435355],
    "rates": [2.348983360903695, 1.856927608272723, 1.2006148978444637,
              2.030355644646396, 2.35670163220715, 2.5740436809167244,
              2.7959655509728623, 2.7427703096670077, 2.102665665537992],
    "cum_growth_at_birth": [0.0, 1.37441690578751, 1.6077024999390397,
                            2.3273231648209576, 3.7747262089933447,
                            4.124855493261226, 4.619209769481709,
                            6.004763295107599, 6.370462796087964],
}


def test_tagged_path_is_pinned(variability_spec):
    path = simulate_tagged_cell(variability_spec, 3.0, seed=23)
    assert path.initial_size == TAGGED_SEED23["sizes"][0]
    for col, values in TAGGED_SEED23.items():
        np.testing.assert_allclose(getattr(path, col), values, rtol=RTOL,
                                   atol=0, err_msg=col)


# ---------------------------------------------------------------------------
# Batched forests against one root at a time
# ---------------------------------------------------------------------------

TREE_COLUMNS = ("generation", "index", "size_birth", "growth_rate",
                "birth_time", "lifetime")


@pytest.mark.parametrize("scheme, size, single", [
    ("full", 6, simulate_full_tree),
    ("sparse", 200, simulate_sparse_lineage),
])
def test_batched_replicates_equal_single_runs(variability_spec, scheme, size,
                                              single):
    seeds = [3, 1 << 40, 17, 0, 99]
    trees = simulate_replicates(variability_spec, scheme, size, seeds)
    assert len(trees) == len(seeds)
    for tree, seed in zip(trees, seeds):
        alone = single(variability_spec, size, seed)
        assert tree.scheme == alone.scheme
        for col in TREE_COLUMNS:
            assert np.array_equal(getattr(tree, col), getattr(alone, col)), col
        if scheme == "sparse":
            assert np.array_equal(tree.chain_bits, alone.chain_bits)
