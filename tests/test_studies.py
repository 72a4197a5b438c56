import math

import numpy as np
import pytest

from gftree.curves import FLOAT_FORMAT, CurveOnGrid
from gftree.estimator import (EstimatorConfig, FixedThreshold, InvNThreshold,
                              estimate_division_rate, kernel_density)
from gftree.model import PowerLawRate
from gftree.streams import run_key
from gftree.studies import (_FOREST_CELLS, _SPARSE_CELLS, EmptyAfterFiltering,
                            EmptyConditioningSet, ErrorSummary, SchemaError,
                            _batches, _run_keys, analyze_experimental,
                            confidence_band, ingest_lineage_csv,
                            relative_error, run_convergence_study,
                            variability_ablation)
from gftree.trees import (extract_observations, grow_replicates,
                          simulate_full_tree, simulate_sparse_lineage)

SQUARE = PowerLawRate(1.0, 2.0)


def make_curve(values, dx=0.1):
    return CurveOnGrid(dx, dx, np.asarray(values, dtype=float))


# ---------------------------------------------------------------------------
# Error metric
# ---------------------------------------------------------------------------

def test_relative_error_zero_for_exact_estimate():
    y = 0.1 + 0.1 * np.arange(30)
    curve = CurveOnGrid(0.1, 0.1, y ** 2)
    raw = np.ones(30)
    assert relative_error(curve, SQUARE, raw, 0.5) == 0.0


def test_relative_error_homogeneity():
    y = 0.1 + 0.1 * np.arange(30)
    curve = CurveOnGrid(0.1, 0.1, 2.0 * y ** 2)
    raw = np.ones(30)
    assert relative_error(curve, SQUARE, raw, 0.5) == pytest.approx(1.0)


def test_relative_error_uses_only_conditioned_points():
    y = 0.1 + 0.1 * np.arange(30)
    values = y ** 2
    values[20:] = 0.0  # wrong values outside the conditioned region
    curve = CurveOnGrid(0.1, 0.1, values)
    raw = np.concatenate([np.ones(20), np.zeros(10)])
    assert relative_error(curve, SQUARE, raw, 0.5) == 0.0


def test_relative_error_empty_conditioning():
    curve = make_curve(np.ones(10))
    with pytest.raises(EmptyConditioningSet):
        relative_error(curve, SQUARE, np.zeros(10), 0.5)


def test_error_summary_statistics():
    errs = np.array([0.1, 0.2, 0.4, 0.3])
    s = ErrorSummary(n=32, per_replicate=errs)
    mean = errs.sum() / 4.0
    assert s.mean_error == pytest.approx(mean, abs=1e-15)
    two_pass = math.sqrt(sum((e - mean) ** 2 for e in errs) / 4.0)
    assert s.std_dev == pytest.approx(two_pass, abs=1e-12)
    assert s.median_error == pytest.approx(0.25)


# ---------------------------------------------------------------------------
# Convergence study
# ---------------------------------------------------------------------------

def test_study_is_deterministic_across_workers(dirac_spec):
    a = run_convergence_study(dirac_spec, [5, 6], 4, "full", seed=5,
                              workers=1)
    b = run_convergence_study(dirac_spec, [5, 6], 4, "full", seed=5,
                              workers=3)
    for ra, rb in zip(a.rows, b.rows):
        assert np.array_equal(ra.per_replicate, rb.per_replicate)
    assert a.slope == b.slope


def test_study_rows_and_sizes(dirac_spec):
    study = run_convergence_study(dirac_spec, [6, 5], 3, "sparse", seed=1)
    assert study.sizes() == [32, 64]
    assert all(r.replicates == 3 for r in study.rows)
    assert study.scheme == "sparse"


def test_batch_run_keys_equal_per_replicate_keys():
    for seed in (7, -3, 2 ** 70 + 5):
        keys = _run_keys(seed, 9, range(5, 23))
        assert np.array_equal(keys, np.concatenate(
            [run_key(int(run_key(seed, 9, i)[0])) for i in range(5, 23)]))


@pytest.mark.parametrize("scheme", ["full", "sparse"])
def test_study_conditions_on_the_estimator_floor(dirac_spec, scheme):
    """Each batch, grown as one forest and estimated in one pass, scores
    every replicate as its own tree and estimate would score, conditioned
    on the estimator's floor: 1/n under the inverse-n rule, not 1/log n."""
    config = EstimatorConfig(threshold_rule=InvNThreshold())
    study = run_convergence_study(dirac_spec, [6], 5, scheme, config, seed=3)
    want, log_floor = [], []
    for i in range(5):
        key = int(run_key(3, 6, i)[0])
        tree = (simulate_full_tree(dirac_spec, 5, key) if scheme == "full"
                else simulate_sparse_lineage(dirac_spec, 64, key))
        est = estimate_division_rate(extract_observations(tree), config)
        assert est.threshold_value == 1.0 / est.n
        want.append(relative_error(est.curve, dirac_spec.division_rate,
                                   est.raw_denominator, 1.0 / est.n))
        log_floor.append(relative_error(est.curve, dirac_spec.division_rate,
                                        est.raw_denominator,
                                        1.0 / math.log(est.n)))
    assert np.array_equal(study.rows[0].per_replicate, want)
    assert study.rows[0].empty_conditioning == 0
    assert not np.array_equal(want, log_floor)


def test_study_fails_only_when_every_replicate_is_empty(variability_spec):
    config = EstimatorConfig(threshold_rule=FixedThreshold(100.0))
    with pytest.raises(EmptyConditioningSet, match="n = 32"):
        run_convergence_study(variability_spec, [5], 3, "full", config)


def test_study_rejects_bad_scheme(dirac_spec):
    with pytest.raises(ValueError):
        run_convergence_study(dirac_spec, [5], 2, "funky")


def batch_lengths(batches, k):
    return [len(reps) for size, reps in batches if size == k]


def test_sparse_batches_are_wide():
    batches = _batches(range(5, 11), 100, "sparse")
    for k in range(5, 11):
        lengths = batch_lengths(batches, k)
        assert len(lengths) <= 2 and sum(lengths) == 100
        assert max(lengths) * 2 ** k <= _SPARSE_CELLS
    assert batch_lengths(batches, 10) == [64, 36]
    # every replicate once, in order, sizes in the given order
    assert [k for k, _ in batches] == sorted(k for k, _ in batches)
    for k in range(5, 11):
        reps = [i for size, r in batches if size == k for i in r]
        assert reps == list(range(100))


def test_batches_hold_one_replicate_beyond_the_cap():
    assert batch_lengths(_batches([16, 17], 3, "sparse"), 16) == [1, 1, 1]
    assert batch_lengths(_batches([16, 17], 3, "sparse"), 17) == [1, 1, 1]
    assert batch_lengths(_batches([15], 5, "sparse"), 15) == [2, 2, 1]


def test_full_batches_are_unchanged():
    # a full-tree replicate at 2^k stores 2^k - 1 cells; at most 2^14 per
    # batch, as before sparse batches widened
    assert _FOREST_CELLS == 1 << 14
    batches = _batches(range(5, 11), 100, "full")
    assert batch_lengths(batches, 10) == [16] * 6 + [4]
    assert batch_lengths(batches, 9) == [32] * 3 + [4]
    for k in range(5, 11):
        lengths = batch_lengths(batches, k)
        assert sum(lengths) == 100
        assert max(lengths) == min(100, _FOREST_CELLS >> k)


def test_wide_sparse_batch_equals_single_lineages(variability_spec):
    # growth-rate rejection draws differ per lineage, so a wide batch
    # carries pending lanes of several lineages at once
    (k, reps), *_ = _batches([9], 5, "sparse")
    assert list(reps) == list(range(5))
    batch = grow_replicates(variability_spec, "sparse", 2 ** k,
                            _run_keys(8, k, reps))
    for i in reps:
        alone = simulate_sparse_lineage(variability_spec, 2 ** k,
                                        int(run_key(8, k, i)[0]))
        for j, col in enumerate(("size_birth", "growth_rate", "birth_time",
                                 "lifetime")):
            assert np.array_equal(batch[j, i], getattr(alone, col)), (i, col)
        assert np.array_equal(batch[4, i, 1:], alone.chain_bits), i


# ---------------------------------------------------------------------------
# Confidence band
# ---------------------------------------------------------------------------

def test_band_contains_median(dirac_spec, workers):
    band = confidence_band(dirac_spec, 8, 24, seed=3, workers=workers)
    assert np.all(band.lower <= band.median + 1e-15)
    assert np.all(band.median <= band.upper + 1e-15)
    assert band.replicates == 24


def test_band_level_100_is_envelope(dirac_spec):
    band = confidence_band(dirac_spec, 7, 20, level=100.0, seed=4)
    assert np.all(band.lower <= band.upper)
    # envelope bands touch the extreme replicates: quantile 0/1 are min/max
    assert np.all(band.lower >= 0.0)


def test_band_needs_enough_replicates(dirac_spec):
    with pytest.raises(ValueError):
        confidence_band(dirac_spec, 7, 10)


def test_band_widens_toward_large_sizes(dirac_spec, workers):
    """Figure-3 property: with floor 1/n the band spreads where the size
    density is thin (large x)."""
    from gftree.estimator import InvNThreshold

    config = EstimatorConfig(threshold_rule=InvNThreshold())
    band = confidence_band(dirac_spec, 10, 40, config, seed=5,
                           workers=workers)
    width = band.upper - band.lower
    y = band.y
    bulk = (y > 1.0) & (y < 2.0)
    tail = (y > 3.0) & (y < 4.0)
    assert width[tail].mean() > width[bulk].mean()


# ---------------------------------------------------------------------------
# Variability ablation
# ---------------------------------------------------------------------------

def test_ablation_pooled_is_worse(variability_spec, workers):
    result = variability_ablation(variability_spec, 13, 6, seed=2,
                                  workers=workers)
    assert result.replicates == 6
    assert result.pooled_worse_fraction >= 0.8


# ---------------------------------------------------------------------------
# Ingestion
# ---------------------------------------------------------------------------

def test_ingest_well_formed(tmp_path):
    p = tmp_path / "cells.csv"
    p.write_text("size_birth,growth_rate,lifetime\n"
                 "1.0,1.1,0.4\n2.0,0.9,0.3\n1.5,1.0,0.5\n")
    obs, report = ingest_lineage_csv(p)
    assert obs.n == 3
    assert report.accepted == 3 and not report.rejected


def test_ingest_rejects_bad_rows_with_line_numbers(tmp_path):
    p = tmp_path / "cells.csv"
    p.write_text("size_birth,growth_rate,lifetime\n"
                 "1.0,0.0,0.4\n"      # zero growth rate
                 "2.0,0.9,0.3\n"
                 "nan,1.0,0.5\n"      # non-finite size
                 "1.0,1.0,oops\n")    # non-numeric
    obs, report = ingest_lineage_csv(p)
    assert obs.n == 1
    lines = [ln for ln, _ in report.rejected]
    assert lines == [2, 4, 5]


def test_ingest_missing_column_raises(tmp_path):
    p = tmp_path / "cells.csv"
    p.write_text("size,rate\n1.0,1.0\n")
    with pytest.raises(SchemaError):
        ingest_lineage_csv(p)


def test_ingest_column_mapping(tmp_path):
    p = tmp_path / "cells.csv"
    p.write_text("len_birth,alpha,dt\n1.0,1.1,0.4\n")
    obs, _ = ingest_lineage_csv(p, {"size_birth": "len_birth",
                                    "growth_rate": "alpha",
                                    "lifetime": "dt"})
    assert obs.n == 1 and obs.growth_rate[0] == 1.1


def test_ingest_boundary_generation_drop(tmp_path):
    p = tmp_path / "cells.csv"
    rows = ["size_birth,growth_rate,lifetime,lineage_id"]
    for lineage in ("a", "b"):
        for k in range(5):
            rows.append(f"1.{k},1.0,0.5,{lineage}")
    p.write_text("\n".join(rows) + "\n")
    obs, report = ingest_lineage_csv(p, drop_first=1, drop_last=2)
    assert obs.n == 4  # 2 per lineage
    assert report.dropped_boundary == 6
    assert report.lineages == 2


def test_ingest_empty_after_filtering(tmp_path):
    p = tmp_path / "cells.csv"
    p.write_text("size_birth,growth_rate,lifetime\n-1.0,1.0,0.5\n")
    with pytest.raises(EmptyAfterFiltering):
        ingest_lineage_csv(p)


def test_ingest_roundtrip_matches_in_memory(tmp_path, variability_spec):
    chain = simulate_sparse_lineage(variability_spec, 300, seed=8)
    obs = extract_observations(chain)
    p = tmp_path / "export.csv"
    with open(p, "w") as fh:
        fh.write("size_birth,growth_rate,lifetime\n")
        for i in range(obs.n):
            fh.write(",".join(FLOAT_FORMAT % float(c[i]) for c in (
                obs.size_birth, obs.growth_rate, obs.lifetime)) + "\n")
    back, _ = ingest_lineage_csv(p)
    est_a = estimate_division_rate(obs)
    est_b = estimate_division_rate(back)
    assert np.array_equal(est_a.values, est_b.values)


# ---------------------------------------------------------------------------
# Experimental analysis
# ---------------------------------------------------------------------------

def test_analysis_reduces_to_estimator_parts(variability_spec):
    chain = simulate_sparse_lineage(variability_spec, 2335, seed=9)
    obs = extract_observations(chain)
    analysis = analyze_experimental(obs)
    est = estimate_division_rate(obs)
    assert np.array_equal(analysis.rate_estimate.values, est.values)
    dens = kernel_density(obs, est.y, est.h)
    assert np.array_equal(analysis.density_curve.values, dens)
    assert analysis.report["n"] == 2335


def test_analysis_density_mass_near_one(variability_spec):
    chain = simulate_sparse_lineage(variability_spec, 2000, seed=10)
    obs = extract_observations(chain)
    analysis = analyze_experimental(obs)
    assert analysis.report["density_mass"] == pytest.approx(1.0, abs=0.05)


def test_analysis_warns_for_tiny_samples(variability_spec):
    chain = simulate_sparse_lineage(variability_spec, 40, seed=11)
    obs = extract_observations(chain)
    with pytest.warns(UserWarning, match="noisy"):
        analyze_experimental(obs)
