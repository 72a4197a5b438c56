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
                          simulate_replicates, simulate_sparse_lineage)

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
    "size_birth": [2.578405574612679, 1.3307422051936317, 1.3307422051936317,
                   0.7797841214680128, 0.7797841214680128, 1.2545271513628586,
                   1.2545271513628586],
    "growth_rate": [2.1640160429793114, 2.013447180888053, 2.335016051868868,
                    2.103243579313745, 2.1567262482829506, 1.7105647394109942,
                    2.6382869805132554],
    "birth_time": [0.0, 0.014654606051867447, 0.014654606051867447,
                   0.0934608352451393, 0.0934608352451393, 0.2862454904988428,
                   0.2862454904988428],
    "lifetime": [0.014654606051867447, 0.07880622919327186,
                 0.2715908844469753, 0.23261485021652123, 0.4209724406870315,
                 0.36861479929538415, 0.30431409889479116],
}

CHAIN_SEED28 = {
    "size_birth": [0.9872757610490657, 0.6217370216340016,
                   0.35093879790332544, 0.7348768538068456,
                   0.7075381246222114, 0.44932933398469094],
    "growth_rate": [0.3645060647906127, 0.5460912050149549,
                    0.34274976370870425, 0.9428974877590379,
                    0.8511390385500646, 0.3771710710445369],
    "birth_time": [0.0, 0.6329524192072519, 0.8549699397709614,
                   5.033640294149008, 5.7285575722087705, 6.009489073890183],
    "lifetime": [0.6329524192072519, 0.22201752056370944, 4.178670354378047,
                 0.6949172780597624, 0.2809315016814125, 2.6469862326171834],
}


def test_full_tree_columns_are_pinned(variability_spec):
    tree = simulate_full_tree(variability_spec, 2, seed=27)
    gen, index = tree.positions()
    assert gen.tolist() == [0, 1, 1, 2, 2, 2, 2]
    assert index.tolist() == [0, 0, 1, 0, 1, 2, 3]
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
    ("ind[0.5,1.5]", 0.622, 0.60684375),
    ("x*ind[x<=2]", 0.9862038823028536, 0.9569320878950528),
    ("x^2*ind[x<=3]", 1.8861213600742552, 1.969425097744956),
    ("v*ind[x<=2]", 1.2647615513579804, 1.222258061592489),
    ("w*ind[x<=2]", 1.0249104024093134, 0.9919744984270495),
    ("(x-1)^2*ind[x<=2.5]", 0.2859357018797557, 0.3102300520764301),
]


def test_many_to_one_means_are_pinned(variability_spec):
    results = many_to_one_battery(variability_spec, 0.8, 2000, seed=32)
    assert [r.name for r in results] == [name for name, _, _ in BATTERY_SEED32]
    for r, (name, tagged, population) in zip(results, BATTERY_SEED32):
        assert r.tagged_mean == pytest.approx(tagged, rel=RTOL, abs=0), name
        assert r.population_mean == pytest.approx(population, rel=RTOL,
                                                  abs=0), name


TAGGED_SEED23 = {
    "birth_times": [0.0, 0.5851113842112308, 0.7114034173058066,
                    1.3256060404676446, 2.058157028086291, 2.2102649893243673,
                    2.4102015410915096, 2.9626917620730278],
    "sizes": [0.5454407986417953, 1.0780013435799505, 0.6773038300318803,
              0.6872297758340524, 1.4676357795972201, 1.0424954269421487,
              0.8417247697011871, 1.616773026399208],
    "rates": [2.348983360903695, 1.8085316879405346, 1.152218977512275,
              1.9819597243142075, 2.3083057118749615, 2.396898882441393,
              2.4360278754375133, 2.992753194880268],
    "cum_growth_at_birth": [0.0, 1.37441690578751, 1.602820049573485,
                            2.3105159680183753, 3.7624025214851278,
                            4.113514197232634, 4.592741894722483,
                            5.938623473940092],
}


def test_tagged_path_is_pinned(variability_spec, tagged_branch):
    branch = tagged_branch(variability_spec, 3.0, seed=23)
    assert branch["sizes"][0] == TAGGED_SEED23["sizes"][0]
    for col, values in TAGGED_SEED23.items():
        np.testing.assert_allclose(branch[col], values, rtol=RTOL, atol=0,
                                   err_msg=col)


# ---------------------------------------------------------------------------
# Batched forests against one root at a time
# ---------------------------------------------------------------------------

# a record's position is its row: the scheme and the columns' length fix it
TREE_COLUMNS = ("size_birth", "growth_rate", "birth_time", "lifetime")


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
