import json
import math
import re

import numpy as np
import pytest
from scipy import integrate, stats

from gftree.model import (ClassParams, DiracGrowth, GaussianIncrementGrowth,
                          GrowthBounds, IndependentResampleGrowth,
                          InitialDistribution, ModelSpec, NonDivergentHazard,
                          PowerLawRate, RejectionBudgetExceeded,
                          TabulatedRate, UniformIncrementGrowth,
                          check_class_membership, contraction_coefficient,
                          cumulative_hazard, eval_division_rate,
                          invert_hazard, reference_model,
                          sample_growth_rates_keyed, sample_lifetimes_keyed,
                          sample_lifetimes_rejection)
from gftree.streams import STREAM_GROWTH, child_keys, draw_uniform, run_key

SQUARE = PowerLawRate(1.0, 2.0)
BOUNDS = GrowthBounds(0.2, 3.0)


def node_keys(n):
    """n node keys of the keyed path the simulator draws from."""
    return child_keys(run_key(20240817), np.arange(n, dtype=np.uint64))


def keyed_lifetimes(rate, x, v, n):
    return sample_lifetimes_keyed(rate, node_keys(n), np.full(n, x),
                                  np.full(n, v))


def keyed_growth_rates(kernel, v_parent, n, **kwargs):
    return sample_growth_rates_keyed(kernel, np.full(n, v_parent),
                                     node_keys(n), STREAM_GROWTH, **kwargs)


# ---------------------------------------------------------------------------
# Division-rate evaluation
# ---------------------------------------------------------------------------

def test_power_law_vanishes_at_origin():
    assert eval_division_rate(SQUARE, 0.0) == 0.0


def test_power_law_is_exact():
    assert eval_division_rate(SQUARE, 2.0) == 4.0
    assert eval_division_rate(PowerLawRate(2.5, 1.0), 2.0) == 5.0


def test_tabulated_interpolates_linearly():
    tab = TabulatedRate([1.0, 2.0], [1.0, 4.0])
    assert eval_division_rate(tab, 1.5) == 2.5


def test_tabulated_clamps_outside_grid():
    tab = TabulatedRate([1.0, 2.0], [1.0, 4.0])
    assert tab(0.25) == 1.0
    assert tab(10.0) == 4.0


def test_rate_validation():
    with pytest.raises(ValueError):
        PowerLawRate(-1.0, 2.0)
    with pytest.raises(ValueError):
        TabulatedRate([2.0, 1.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        TabulatedRate([1.0, 2.0], [1.0, -1.0])


# ---------------------------------------------------------------------------
# Cumulative hazard and its inverse
# ---------------------------------------------------------------------------

def test_hazard_vanishes_at_time_zero():
    assert cumulative_hazard(SQUARE, 1.7, 0.9, 0.0) == 0.0
    tab = TabulatedRate([1.0, 2.0], [1.0, 4.0])
    assert cumulative_hazard(tab, 1.7, 0.9, 0.0) == 0.0


def test_hazard_closed_form_values():
    # integral_0^0.5 (e^{2s}) ds = (e - 1)/2 for x = v = 1
    expected = (math.e - 1.0) / 2.0
    assert cumulative_hazard(SQUARE, 1.0, 1.0, 0.5) == pytest.approx(
        expected, rel=1e-14)
    # doubling x scales the square-law hazard by 4
    assert cumulative_hazard(SQUARE, 2.0, 1.0, 0.5) == pytest.approx(
        4.0 * expected, rel=1e-14)


def test_hazard_matches_quadrature_on_random_triples(rng):
    for rate in (SQUARE, PowerLawRate(0.7, 1.3),
                 TabulatedRate([0.5, 1.0, 2.0, 4.0], [0.2, 1.0, 3.0, 3.5])):
        for _ in range(40):
            x = rng.uniform(0.2, 3.0)
            v = rng.uniform(0.2, 3.0)
            t = rng.uniform(0.01, 2.0)
            oracle, err = integrate.quad(
                lambda s: rate(x * math.exp(v * s)), 0.0, t, limit=200)
            assert cumulative_hazard(rate, x, v, t) == pytest.approx(
                oracle, rel=1e-8, abs=1e-12)


def test_power_law_closed_form_vs_quadrature_bulk(rng):
    # vectorised form of the closed-form/quadrature agreement on 1000 triples
    x = rng.uniform(0.2, 3.0, 1000)
    v = rng.uniform(0.2, 3.0, 1000)
    t = rng.uniform(0.01, 2.0, 1000)
    vals = cumulative_hazard(SQUARE, x, v, t)
    # exact antiderivative as the independent expression
    oracle = x ** 2 * (np.exp(2 * v * t) - 1.0) / (2 * v)
    assert np.allclose(vals, oracle, rtol=1e-12)
    for i in range(0, 1000, 97):
        q, _ = integrate.quad(lambda s: SQUARE(x[i] * math.exp(v[i] * s)),
                              0.0, t[i])
        assert vals[i] == pytest.approx(q, rel=1e-8)


def test_invert_recovers_example():
    e = (math.e - 1.0) / 2.0
    assert invert_hazard(SQUARE, 1.0, 1.0, e) == pytest.approx(0.5, rel=1e-12)


def test_invert_is_continuous_at_zero():
    t = invert_hazard(SQUARE, 1.0, 1.0, 1e-12)
    assert 0.0 < t < 1e-11


def test_invert_flat_table_is_identity():
    tab = TabulatedRate([1.0, 2.0], [1.0, 1.0])  # B == 1 everywhere
    assert invert_hazard(tab, 1.0, 1.0, 2.0) == pytest.approx(2.0, abs=1e-10)


def test_invert_roundtrip_random_triples(rng):
    for rate in (SQUARE, TabulatedRate([0.5, 1.0, 2.0, 4.0],
                                       [0.2, 1.0, 3.0, 3.5])):
        x = rng.uniform(0.2, 3.0, 1000)
        v = rng.uniform(0.2, 3.0, 1000)
        t = rng.uniform(0.01, 2.0, 1000)
        e = cumulative_hazard(rate, x, v, t)
        back = invert_hazard(rate, x, v, e)
        assert np.allclose(back, t, rtol=1e-8, atol=1e-10)


def test_hazard_strictly_increasing_in_time(rng):
    ts = np.linspace(0.01, 3.0, 50)
    vals = cumulative_hazard(SQUARE, 0.7, 1.3, ts)
    assert np.all(np.diff(vals) > 0)


def test_invert_raises_for_bounded_hazard():
    # B clamps to zero above the grid: total hazard is finite
    tab = TabulatedRate([0.5, 1.0], [1.0, 0.0])
    with pytest.raises(NonDivergentHazard):
        invert_hazard(tab, 1.0, 1.0, 50.0, t_max=100.0)


# ---------------------------------------------------------------------------
# Lifetime samplers
# ---------------------------------------------------------------------------

def test_lifetime_law_matches_hazard_cdf():
    draws = keyed_lifetimes(SQUARE, 1.3, 0.8, 20000)
    cdf = lambda t: 1.0 - np.exp(-np.asarray(
        cumulative_hazard(SQUARE, 1.3, 0.8, t)))
    stat = stats.kstest(draws, cdf).statistic
    assert stat < stats.distributions.kstwobign.isf(0.01) / math.sqrt(20000)


def test_rejection_sampler_agrees_with_inverse(rng):
    a = keyed_lifetimes(SQUARE, 1.0, 1.0, 30000)
    b = sample_lifetimes_rejection(SQUARE, 1.0, 1.0, rng, 30000)
    assert stats.ks_2samp(a, b).pvalue > 0.01


def test_rejection_sampler_tabulated(rng):
    tab = TabulatedRate([0.5, 1.0, 2.0, 4.0], [0.2, 1.0, 3.0, 3.5])
    a = keyed_lifetimes(tab, 1.0, 1.0, 20000)
    b = sample_lifetimes_rejection(tab, 1.0, 1.0, rng, 20000)
    assert stats.ks_2samp(a, b).pvalue > 0.01


# ---------------------------------------------------------------------------
# Growth kernels
# ---------------------------------------------------------------------------

def test_dirac_growth_returns_point():
    kernel = DiracGrowth(1.0, BOUNDS)
    assert keyed_growth_rates(kernel, 2.2, 1).tolist() == [1.0]


def test_uniform_increment_stays_in_band():
    kernel = UniformIncrementGrowth(2.0, 0.5, BOUNDS)
    draws = keyed_growth_rates(kernel, 1.5, 100_000)
    assert np.all((draws >= 0.2) & (draws <= 3.0))


def test_uniform_increment_rms_scaling():
    kernel = UniformIncrementGrowth(2.0, 0.5, BOUNDS)
    lo, hi = kernel.step_support()
    # second moment of Uniform[lo, hi]: (hi^3 - lo^3) / (3 (hi - lo))
    second = (hi ** 3 - lo ** 3) / (3.0 * (hi - lo))
    assert math.sqrt(second) == pytest.approx(0.5, rel=1e-12)


def test_uniform_increment_needs_downward_moves():
    with pytest.raises(ValueError):
        UniformIncrementGrowth(0.8, 0.5, BOUNDS)


def test_gaussian_increment_mean_matches_quadrature():
    kernel = GaussianIncrementGrowth(0.5, BOUNDS)
    draws = keyed_growth_rates(kernel, 1.5, 1_000_000)
    dens = lambda w: kernel.conditioned_density(1.5, w)
    mass, _ = integrate.quad(dens, 0.2, 3.0)
    mean, _ = integrate.quad(lambda w: w * dens(w), 0.2, 3.0)
    assert mass == pytest.approx(1.0, abs=1e-9)
    se = draws.std() / math.sqrt(draws.size)
    assert abs(draws.mean() - mean) < 3.0 * se


def test_independent_resample_follows_density():
    grid = np.linspace(0.2, 3.0, 30)
    dens = np.exp(-(grid - 1.0) ** 2)
    kernel = IndependentResampleGrowth(grid, dens, BOUNDS)
    draws = keyed_growth_rates(kernel, 2.9, 200_000)
    assert np.all((draws >= 0.2) & (draws <= 3.0))
    target_mean, _ = integrate.quad(
        lambda w: w * kernel.conditioned_density(0.0, w), 0.2, 3.0,
        limit=200, points=list(grid[::4]))
    se = draws.std() / math.sqrt(draws.size)
    assert abs(draws.mean() - target_mean) < 4.0 * se


def test_rejection_budget_raises():
    # nearly all proposal mass misses the spike, so a tiny cap trips
    grid = np.linspace(0.2, 3.0, 2901)
    dens = np.where(np.abs(grid - 1.0) < 2e-3, 1.0, 0.0)
    kernel = IndependentResampleGrowth(grid, dens, BOUNDS)
    with pytest.raises(RejectionBudgetExceeded,
                       match=r"in \[0\.2, 3\.0\] .* parent rate 1\.0$"):
        keyed_growth_rates(kernel, 1.0, 64, cap=3)


def masked_growth_rates(kernel, v_parent, node_keys, stream, cap):
    """The masked rejection loop that the compacted one replaced, kept as
    its oracle: each round scans the full-size mask of pending lanes and
    gathers their keys and parent rates.  1-d inputs only."""
    v = np.asarray(v_parent, dtype=np.float64)
    if isinstance(kernel, DiracGrowth):
        return kernel.propose(v, None)
    out = np.full(v.shape, np.nan)
    active = np.ones(v.shape, dtype=bool)
    per = kernel.uniforms_per_attempt
    counter = 0
    for _ in range(cap):
        if not active.any():
            break
        sel = np.flatnonzero(active)
        if per == 1:
            u = draw_uniform(node_keys[sel], stream, counter)
        else:
            u = (draw_uniform(node_keys[sel], stream, counter),
                 draw_uniform(node_keys[sel], stream, counter + 1))
        prop = kernel.propose(v[sel], u)
        ok = kernel.bounds.contains(prop) & ~np.isnan(prop)
        out[sel[ok]] = prop[ok]
        active[sel[ok]] = False
        counter += per
    if active.any():
        raise RejectionBudgetExceeded(float(v[active][0]))
    return out


def growth_kernels():
    grid = np.linspace(0.2, 3.0, 57)
    bumpy = np.exp(-(grid - 1.0) ** 2) * (1.2 + np.sin(5.0 * grid))
    return {"dirac": DiracGrowth(1.0, BOUNDS),
            "uniform": UniformIncrementGrowth(2.0, 0.5, BOUNDS),
            "gaussian": GaussianIncrementGrowth(0.3, BOUNDS),
            "resample": IndependentResampleGrowth(grid, bumpy, BOUNDS)}


def band_edge_parents(n):
    """n parent rates: a third at each band edge, a third inside."""
    inside = np.linspace(0.2, 3.0, n - 2 * (n // 3))
    return np.concatenate([np.full(n // 3, 0.2), inside,
                           np.full(n // 3, 3.0)])


@pytest.mark.parametrize("name", ["dirac", "uniform", "gaussian",
                                  "resample"])
def test_compacted_rejection_matches_masked_loop(name):
    kernel = growth_kernels()[name]
    n = 12_000
    v, keys = band_edge_parents(n), node_keys(n)
    fast = sample_growth_rates_keyed(kernel, v, keys, STREAM_GROWTH)
    slow = masked_growth_rates(kernel, v, keys, STREAM_GROWTH, 10 ** 6)
    assert fast.shape == (n,)
    assert np.array_equal(fast, slow, equal_nan=True)
    assert np.all(kernel.bounds.contains(fast))


@pytest.mark.parametrize("name", ["dirac", "uniform", "gaussian",
                                  "resample"])
def test_compacted_rejection_keeps_shape(name):
    kernel = growth_kernels()[name]
    empty = sample_growth_rates_keyed(kernel, np.empty(0), node_keys(0),
                                      STREAM_GROWTH)
    assert empty.shape == (0,) and empty.dtype == np.float64
    # the masked loop indexed 2-d inputs by flat positions; the compacted
    # one draws lane i from its i-th key in C order and keeps the shape
    v, keys = band_edge_parents(600), node_keys(600)
    grid = sample_growth_rates_keyed(kernel, v.reshape(20, 30),
                                     keys.reshape(20, 30), STREAM_GROWTH)
    flat = masked_growth_rates(kernel, v, keys, STREAM_GROWTH, 10 ** 6)
    assert grid.shape == (20, 30)
    assert np.array_equal(grid.ravel(), flat, equal_nan=True)


def test_rejection_cap_names_band_and_first_pending_parent():
    kernel = growth_kernels()["uniform"]
    n = 12_000
    v, keys = band_edge_parents(n), node_keys(n)
    prop = kernel.propose(v, draw_uniform(keys, STREAM_GROWTH, 0))
    first = v[~kernel.bounds.contains(prop)][0]
    with pytest.raises(RejectionBudgetExceeded) as oracle:
        masked_growth_rates(kernel, v, keys, STREAM_GROWTH, 1)
    assert oracle.value.args == (first,)
    with pytest.raises(RejectionBudgetExceeded,
                       match=r"in \[0\.2, 3\.0\] within 1 attempts for "
                       rf"parent rate {re.escape(str(first))}$"):
        sample_growth_rates_keyed(kernel, v, keys, STREAM_GROWTH, cap=1)


def test_growth_bounds_validation():
    with pytest.raises(ValueError):
        GrowthBounds(0.0, 1.0)
    with pytest.raises(ValueError):
        GrowthBounds(2.0, 1.0)
    with pytest.raises(ValueError):
        DiracGrowth(5.0, BOUNDS)
    point = GrowthBounds(1.0, 1.0)
    DiracGrowth(1.0, point)  # a point band suits only a point kernel
    with pytest.raises(ValueError, match="e_min < e_max"):
        UniformIncrementGrowth(2.0, 0.5, point)
    with pytest.raises(ValueError, match="e_min < e_max"):
        GaussianIncrementGrowth(0.5, point)


# ---------------------------------------------------------------------------
# Admissibility class
# ---------------------------------------------------------------------------

def test_class_integrals_square_rate():
    params = ClassParams(lam=2.0, r=1.0, m=1.0, ell=1.0, L=1.0)
    report = check_class_membership(params, SQUARE, GrowthBounds(0.2, 3.0))
    # integral_0^{1/2} 4x dx = 0.5 and integral_{1/2}^{1} 4x dx = 1.5
    assert report.near_origin_integral == pytest.approx(0.5, rel=1e-12)
    assert report.near_origin_ok
    assert report.lower_integral == pytest.approx(1.5, rel=1e-12)
    assert report.lower_ok
    assert report.power_floor_min == pytest.approx(1.0, rel=1e-12)
    assert report.power_floor_ok


def test_class_integrals_match_quadrature():
    params = ClassParams(lam=1.3, r=2.0, m=0.5, ell=0.5, L=5.0)
    rate = PowerLawRate(0.8, 1.3)
    report = check_class_membership(params, rate, GrowthBounds(0.5, 2.0))
    q0, _ = integrate.quad(lambda x: rate(2 * x) / x, 0.0, 1.0)
    q1, _ = integrate.quad(lambda x: rate(2 * x) / x, 1.0, 2.0)
    assert report.near_origin_integral == pytest.approx(q0, rel=1e-9)
    assert report.lower_integral == pytest.approx(q1, rel=1e-9)


def test_contraction_coefficient_examples():
    bounds = GrowthBounds(0.2, 3.0)
    p1 = ClassParams(lam=2.0, r=1.0, m=1.0, ell=1.0, L=1.0)
    assert contraction_coefficient(p1, bounds) == pytest.approx(
        (4.0 / 3.0) * math.exp(-0.75 / 6.0), rel=1e-12)
    r1 = check_class_membership(p1, SQUARE, bounds, mode="sparse")
    assert not r1.delta_ok  # 1.1767 >= 1
    p2 = ClassParams(lam=2.0, r=2.0, m=1.0, ell=1.0, L=5.0)
    assert contraction_coefficient(p2, bounds) == pytest.approx(
        (4.0 / 3.0) * math.exp(-0.5), rel=1e-12)
    assert check_class_membership(p2, SQUARE, bounds, "sparse").delta_ok
    assert not check_class_membership(p2, SQUARE, bounds, "full").delta_ok


def test_contraction_coefficient_monotone_in_r_and_m():
    bounds = GrowthBounds(0.2, 3.0)
    rs = np.linspace(0.5, 4.0, 15)
    deltas_r = [contraction_coefficient(
        ClassParams(2.0, r, 1.0, 1.0, 1.0), bounds) for r in rs]
    assert all(a > b for a, b in zip(deltas_r, deltas_r[1:]))
    ms = np.linspace(0.5, 4.0, 15)
    deltas_m = [contraction_coefficient(
        ClassParams(2.0, 1.0, m, 1.0, 1.0), bounds) for m in ms]
    assert all(a > b for a, b in zip(deltas_m, deltas_m[1:]))


def test_tabulated_rate_with_positive_head_fails_origin_control():
    tab = TabulatedRate([1.0, 2.0], [1.0, 4.0])  # clamps to 1 near 0
    params = ClassParams(lam=1.0, r=1.0, m=0.5, ell=0.1, L=100.0)
    report = check_class_membership(params, tab, GrowthBounds(0.5, 2.0))
    assert math.isinf(report.near_origin_integral)
    assert not report.near_origin_ok


def test_spectral_radius_stays_unverified():
    params = ClassParams(lam=2.0, r=3.0, m=1.0, ell=1.0, L=5.0)
    report = check_class_membership(params, SQUARE, GrowthBounds(0.2, 3.0),
                                    "full")
    assert report.all_ok
    assert not report.spectral_radius_verified


# ---------------------------------------------------------------------------
# Model spec serialisation
# ---------------------------------------------------------------------------

def test_model_json_roundtrip():
    spec = reference_model()
    doc = spec.to_json()
    back = ModelSpec.from_json(doc)
    assert back == spec
    keys = set(json.loads(doc))
    assert keys == {"division_rate", "growth_kernel", "bounds", "initial"}


def test_model_json_roundtrip_other_forms():
    bounds = GrowthBounds(0.5, 2.0)
    spec = ModelSpec(
        TabulatedRate([0.5, 1.0, 2.0], [0.1, 1.0, 2.0]),
        GaussianIncrementGrowth(0.3, bounds), bounds,
        InitialDistribution(0.5, 1.5, growth_value=1.0))
    back = ModelSpec.from_json(spec.to_json())
    assert np.array_equal(back.division_rate.grid, spec.division_rate.grid)
    assert back.growth_kernel == spec.growth_kernel
    assert back.initial == spec.initial


def test_model_validates_initial_support():
    bounds = GrowthBounds(0.2, 3.0)
    with pytest.raises(ValueError):
        ModelSpec(SQUARE, DiracGrowth(1.0, bounds), bounds,
                  InitialDistribution(1.0, 2.0, growth_value=5.0))
    with pytest.raises(ValueError):
        InitialDistribution(-1.0, 2.0)
