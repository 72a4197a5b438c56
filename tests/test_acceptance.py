"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured numbers.

Every tolerance is pinned here.  The reference protocol is B(x) = x^2,
growth band [0.2, 3], root size uniform on [1/3, 3]; error ladders run the
no-variability control configuration (rate 1), which the reference study
design treats as interchangeable with the variability kernels for the
error metric.  All runs are seeded and deterministic for a fixed backend.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import stats

from gftree.estimator import (CompactPolynomialKernel, GaussianKernel,
                              ObservationSet, estimate_division_rate,
                              kernel_moment)
from gftree.invariant import (TransitionEvaluator, invariant_fixed_point,
                              reconstruct_division_rate,
                              solve_conservative_pde,
                              steady_state_relation_error)
from gftree.model import (GaussianIncrementGrowth, GrowthBounds,
                          PowerLawRate, cumulative_hazard, reference_model,
                          sample_lifetimes_keyed, sample_lifetimes_rejection)
from gftree.streams import child_keys, run_key
from gftree.studies import run_convergence_study, variability_ablation
from gftree.trees import many_to_one_battery

STUDY_SEED = 0
RUN_SEED = 11
TABLE1 = [0.2927, 0.1904, 0.1460, 0.1024, 0.0835, 0.0614]
SIZES = [5, 6, 7, 8, 9, 10]
WORKERS = min(8, os.cpu_count() or 1)


def report(criterion, ok, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} | {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def ladder_studies():
    import time

    spec = reference_model("dirac")
    t0 = time.time()
    full = run_convergence_study(spec, SIZES, 100, "full",
                                 seed=STUDY_SEED, workers=WORKERS)
    sparse = run_convergence_study(spec, SIZES, 100, "sparse",
                                   seed=STUDY_SEED, workers=WORKERS)
    return full, sparse, time.time() - t0


def test_criterion_1_table1_reproduction(ladder_studies):
    """Mean conditioned relative error within +-50% of the reference values
    at every size, medians strictly decreasing; M = 100, sizes 2^5..2^10."""
    full, _, elapsed = ladder_studies
    rows_ok = [0.5 * ref <= row.mean_error <= 1.5 * ref
               for row, ref in zip(full.rows, TABLE1)]
    medians = [row.median_error for row in full.rows]
    decreasing = all(a > b for a, b in zip(medians, medians[1:]))
    in_time = elapsed < 600.0
    detail = ("mean errors " + " ".join(f"{r.mean_error:.4f}"
                                        for r in full.rows)
              + f" vs reference {TABLE1} (bands +-50%); "
              + f"medians decreasing: {decreasing}; "
              + f"both ladders in {elapsed:.1f}s (< 600s)")
    report("1 (error table reproduction)",
           all(rows_ok) and decreasing and in_time, detail)


def test_criterion_2_convergence_slopes(ladder_studies):
    """Log-log slopes in [-0.45, -0.22] for both schemes; scheme means
    within a factor 2 of each other at every size."""
    full, sparse, _ = ladder_studies
    in_band = all(-0.45 <= s <= -0.22 for s in (full.slope, sparse.slope))
    ratios = [f.mean_error / s.mean_error
              for f, s in zip(full.rows, sparse.rows)]
    comparable = all(0.5 < r < 2.0 for r in ratios)
    detail = (f"slope full {full.slope:.3f}, sparse {sparse.slope:.3f} "
              f"(band [-0.45, -0.22]); full/sparse mean ratios "
              + " ".join(f"{r:.2f}" for r in ratios))
    report("2 (convergence slopes)", in_band and comparable, detail)


def test_criterion_3_variability_ablation():
    """At n = 2^14 with the uniform-increment kernel, the pooled-rate
    control is worse than the variability-aware estimate on the upper grid
    third in at least 80% of 20 replicates."""
    spec = reference_model("uniform_increment")
    result = variability_ablation(spec, 14, 20, seed=7, workers=WORKERS)
    frac = result.pooled_worse_fraction
    detail = (f"pooled worse in {100 * frac:.0f}% of 20 replicates "
              f"(need >= 80%); median aware "
              f"{np.median(result.aware_errors):.3f}, pooled "
              f"{np.median(result.pooled_errors):.3f}")
    report("3 (variability ablation)", frac >= 0.8, detail)


def test_criterion_4_closed_loop():
    """Invariant density + reconstruction recover the square rate within 1%
    relative sup error on [1, 3]; fixed-point residual below 1e-10."""
    rate = PowerLawRate(1.0, 2.0)
    inv = invariant_fixed_point(rate, 1.0)
    y = np.arange(1.0, 3.0 + 1e-9, 2.5e-3)
    rec = reconstruct_division_rate(inv, 1.0, y)
    sup = float(np.max(np.abs(rec.values - y ** 2) / y ** 2))
    ok = sup < 0.01 and inv.residual < 1e-10
    report("4 (closed-loop recovery)", ok,
           f"sup relative error {sup:.2e} (< 1e-2), residual "
           f"{inv.residual:.2e} (< 1e-10)")


def test_criterion_5_pde_cross_check():
    """Steady state of the conservative equation matches the invariant
    density through nu(x) = 2 B(2x) N(2x) within 2% relative L2 error on
    [0.5, 2.5], and the error at least halves under one grid refinement."""
    rate = PowerLawRate(1.0, 2.0)
    errs = {}
    for dx in (5e-3, 2.5e-3):
        inv = invariant_fixed_point(rate, 1.0, dx=dx)
        pde = solve_conservative_pde(rate, 1.0, dx=dx)
        errs[dx] = steady_state_relation_error(inv, pde, rate, 0.5, 2.5)
    ratio = errs[2.5e-3] / errs[5e-3]
    ok = errs[2.5e-3] < 0.02 and ratio <= 0.6
    report("5 (PDE cross-check)", ok,
           f"relation error {errs[2.5e-3]:.4f} (< 0.02) at dx=2.5e-3; "
           f"refinement ratio {ratio:.2f} (<= 0.6)")


def test_criterion_6_many_to_one():
    """Tagged-path and weighted-population means agree within 3 combined
    standard errors for a battery of >= 5 functions, 2e4 replicates each."""
    spec = reference_model("uniform_increment")
    results = many_to_one_battery(spec, 1.0, 20000, seed=RUN_SEED)
    zs = {r.name: r.z for r in results}
    ok = len(results) >= 5 and all(r.within(3.0) for r in results)
    report("6 (many-to-one consistency)", ok,
           f"{len(results)} functions, max |z| = {max(zs.values()):.2f} "
           f"(< 3): " + ", ".join(f"{k}={v:.2f}" for k, v in zs.items()))


def test_criterion_7_sampler_law():
    """Lifetime draws follow 1 - exp(-F) at the 1% KS level for 5 random
    states, 1e5 draws each; the inverse and rejection samplers agree in a
    two-sample KS test at 1%."""
    rate = PowerLawRate(1.0, 2.0)
    rng = np.random.default_rng(RUN_SEED)
    crit = stats.distributions.kstwobign.isf(0.01) / math.sqrt(100_000)

    def keyed(label, x, v):
        keys = child_keys(run_key(RUN_SEED, label),
                          np.arange(100_000, dtype=np.uint64))
        return sample_lifetimes_keyed(rate, keys, np.full(keys.size, x),
                                      np.full(keys.size, v))

    stats_seen = []
    for i in range(5):
        x = rng.uniform(0.4, 2.5)
        v = rng.uniform(0.2, 3.0)
        draws = keyed(i, x, v)
        cdf = lambda t, x=x, v=v: 1.0 - np.exp(
            -np.asarray(cumulative_hazard(rate, x, v, t)))
        stats_seen.append(stats.kstest(draws, cdf).statistic)
    law_ok = all(s < crit for s in stats_seen)
    a = keyed(5, 1.0, 1.0)
    b = sample_lifetimes_rejection(rate, 1.0, 1.0, rng, 100_000)
    two = stats.ks_2samp(a, b)
    ok = law_ok and two.pvalue > 0.01
    report("7 (sampler law)", ok,
           f"max KS {max(stats_seen):.5f} (< {crit:.5f}); "
           f"two-sample p = {two.pvalue:.3f} (> 0.01)")


def test_criterion_8_determinism_across_workers(tmp_path):
    """Identical seeds give byte-identical genealogy CSVs and study reports
    for 1 versus 8 workers."""
    env = dict(os.environ)
    outputs = {}
    for workers in (1, 8):
        out = tmp_path / f"w{workers}"
        for cmd in (
            ["simulate", "--scheme", "full", "--generations", "10",
             "--seed", "5", "--workers", str(workers),
             "--out", str(out / "sim"), "--no-timestamp"],
            ["study", "--sizes", "5..7", "--replicates", "6",
             "--band-size", "0", "--seed", "5", "--workers", str(workers),
             "--out", str(out / "study"), "--no-timestamp"],
        ):
            proc = subprocess.run([sys.executable, "-m", "gftree.cli"] + cmd,
                                  capture_output=True, env=env)
            assert proc.returncode == 0, proc.stderr.decode()
        outputs[workers] = (
            (out / "sim" / "genealogy.csv").read_bytes(),
            (out / "study" / "study.json").read_bytes(),
        )
    same = outputs[1] == outputs[8]
    report("8 (worker determinism)", same,
           "genealogy CSV and study report byte-identical for 1 vs 8 workers")


def test_criterion_9_property_suites():
    """Kernel moment conditions, estimator permutation invariance, the
    denominator clip floor, and transition-density normalisation."""
    # kernel moments: unit mass, vanishing moments up to the order
    moments_ok = True
    for kernel in (GaussianKernel(), CompactPolynomialKernel(1),
                   CompactPolynomialKernel(2), CompactPolynomialKernel(3)):
        moments_ok &= abs(kernel_moment(kernel, 0) - 1.0) < 1e-8
        for k in range(1, getattr(kernel, "order", 1) + 1):
            moments_ok &= abs(kernel_moment(kernel, k)) < 1e-8

    # permutation invariance and the clip floor on a simulated sample
    from gftree.trees import extract_observations, simulate_full_tree

    spec = reference_model("uniform_increment")
    obs = extract_observations(simulate_full_tree(spec, 9, seed=3))
    est = estimate_division_rate(obs)
    perm = np.random.default_rng(1).permutation(obs.n)
    est_perm = estimate_division_rate(ObservationSet(
        obs.size_birth[perm], obs.growth_rate[perm], obs.lifetime[perm]))
    permutation_ok = (np.array_equal(est.values, est_perm.values)
                      and np.array_equal(est.raw_denominator,
                                         est_perm.raw_denominator))
    floor_ok = np.all(np.maximum(est.raw_denominator, est.threshold_value)
                      >= est.threshold_value) and np.all(
        est.values[est.clipped]
        <= 0.5 * est.y[est.clipped] * est.nu_values[est.clipped]
        / est.threshold_value + 1e-300)

    # transition density normalisation at 20 random states
    from scipy import integrate

    bounds = GrowthBounds(0.2, 3.0)
    ev = TransitionEvaluator(PowerLawRate(1.0, 2.0),
                             GaussianIncrementGrowth(0.5, bounds), bounds)
    rng = np.random.default_rng(RUN_SEED)
    worst = 0.0
    for _ in range(20):
        x = rng.uniform(0.2, 3.0)
        v = rng.uniform(0.2, 3.0)
        size_mass, _ = integrate.quad(lambda y: ev.size_density(x, v, y),
                                      x / 2.0, 30.0, limit=200)
        rate_mass, _ = integrate.quad(lambda w: ev.growth_density(v, w),
                                      0.2, 3.0)
        worst = max(worst, abs(size_mass * rate_mass - 1.0))
    normalisation_ok = worst < 1e-6

    ok = moments_ok and permutation_ok and floor_ok and normalisation_ok
    report("9 (property suites)", ok,
           f"moments {moments_ok}, permutation {permutation_ok}, "
           f"clip floor {bool(floor_ok)}, normalisation worst "
           f"|mass-1| = {worst:.2e} (< 1e-6)")
