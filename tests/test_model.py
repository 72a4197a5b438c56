import json
import math

import numpy as np
import pytest
from scipy import integrate, stats

from gftree import model
from gftree.model import (DEFAULT_T_MAX, HAZARD_TOL, ClassParams,
                          DiracGrowth, GaussianIncrementGrowth,
                          GrowthBounds, IndependentResampleGrowth,
                          InitialDistribution, ModelSpec, NonDivergentHazard,
                          PowerLawRate, TabulatedRate, UniformIncrementGrowth,
                          check_class_membership, contraction_coefficient,
                          cumulative_hazard, reference_model,
                          sample_growth_rates_keyed, sample_lifetimes_keyed,
                          sample_lifetimes_rejection)
from gftree.streams import STREAM_GROWTH, child_keys, run_key

SQUARE = PowerLawRate(1.0, 2.0)
BOUNDS = GrowthBounds(0.2, 3.0)


def node_keys(n):
    """n node keys of the keyed path the simulator draws from."""
    return child_keys(run_key(20240817), np.arange(n, dtype=np.uint64))


def keyed_lifetimes(rate, x, v, n):
    return sample_lifetimes_keyed(rate, node_keys(n), np.full(n, x),
                                  np.full(n, v))


def keyed_growth_rates(kernel, v_parent, n):
    return sample_growth_rates_keyed(kernel, np.full(n, v_parent),
                                     node_keys(n), STREAM_GROWTH)


# ---------------------------------------------------------------------------
# Division-rate evaluation
# ---------------------------------------------------------------------------

def test_power_law_vanishes_at_origin():
    assert SQUARE(0.0) == 0.0


def test_power_law_is_exact():
    assert SQUARE(2.0) == 4.0
    assert PowerLawRate(2.5, 1.0)(2.0) == 5.0


def test_tabulated_interpolates_linearly():
    tab = TabulatedRate([1.0, 2.0], [1.0, 4.0])
    assert tab(1.5) == 2.5


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
    assert SQUARE.invert_hazard(1.0, 1.0, e) == pytest.approx(0.5, rel=1e-12)


def test_invert_is_continuous_at_zero():
    t = SQUARE.invert_hazard(1.0, 1.0, 1e-12)
    assert 0.0 < t < 1e-11


def test_invert_flat_table_is_identity():
    tab = TabulatedRate([1.0, 2.0], [1.0, 1.0])  # B == 1 everywhere
    assert tab.invert_hazard(1.0, 1.0, 2.0) == pytest.approx(2.0, abs=1e-10)


def test_invert_roundtrip_random_triples(rng):
    for rate in (SQUARE, TabulatedRate([0.5, 1.0, 2.0, 4.0],
                                       [0.2, 1.0, 3.0, 3.5])):
        x = rng.uniform(0.2, 3.0, 1000)
        v = rng.uniform(0.2, 3.0, 1000)
        t = rng.uniform(0.01, 2.0, 1000)
        e = cumulative_hazard(rate, x, v, t)
        back = rate.invert_hazard(x, v, e)
        assert np.allclose(back, t, rtol=1e-8, atol=1e-10)


def test_hazard_strictly_increasing_in_time(rng):
    ts = np.linspace(0.01, 3.0, 50)
    vals = cumulative_hazard(SQUARE, 0.7, 1.3, ts)
    assert np.all(np.diff(vals) > 0)


def test_invert_raises_for_bounded_hazard():
    # B clamps to zero above the grid: total hazard is finite
    tab = TabulatedRate([0.5, 1.0], [1.0, 0.0])
    with pytest.raises(NonDivergentHazard):
        tab.invert_hazard(1.0, 1.0, 50.0)
    with pytest.raises(NonDivergentHazard):
        bisection_inverse(tab, 1.0, 1.0, 50.0, t_max=100.0)


def bisection_inverse(rate, x, v, e, t_max=DEFAULT_T_MAX):
    """The inverse hazard by a generic root finder, the reference for the
    segment-wise inverse: bracket by doubling, bisect, polish with guarded
    Newton, all through ``cumulative_hazard``."""
    x, v, e = (np.asarray(a, dtype=np.float64) for a in (x, v, e))
    hi = np.full(x.shape, 1.0)
    for _ in range(64):
        short = rate.cumulative_hazard(x, v, hi) < e
        if not np.any(short):
            break
        hi = np.where(short & (hi < t_max), np.minimum(hi * 2.0, t_max), hi)
        if np.all(hi >= t_max):
            break
    if np.any(rate.cumulative_hazard(x, v, np.full(x.shape, t_max)) < e):
        raise NonDivergentHazard(
            f"cumulative hazard below target within t_max={t_max}")
    lo = np.zeros_like(hi)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        under = rate.cumulative_hazard(x, v, mid) < e
        lo = np.where(under, mid, lo)
        hi = np.where(under, hi, mid)
    t = 0.5 * (lo + hi)
    for _ in range(4):
        f = rate.cumulative_hazard(x, v, t) - e
        slope = rate(x * np.exp(v * t))
        step = np.where(slope > 0, f / np.where(slope > 0, slope, 1.0), 0.0)
        t = np.clip(t - step, lo, hi)
    return t


X2_GRID = np.linspace(0.05, 8.0, 800)


@pytest.mark.parametrize("grid, values", [
    ([0.5, 1.0, 2.0, 4.0], [0.2, 1.0, 3.0, 3.5]),
    (X2_GRID, X2_GRID ** 2),
    ([0.5, 1.0, 2.0, 3.0, 4.0], [1.0, 0.0, 0.0, 1.0, 2.0]),  # B = 0 on [1, 2]
    ([0.5, 1.0, 2.0], [0.0, 1.0, 3.0]),  # B = 0 below the grid
    ([0.01, 100.0], [0.0, 5.0]),  # one segment over four decades
], ids=["coarse", "x2-800", "zero-plateau", "zero-head", "wide-segment"])
def test_invert_agrees_with_bisection(rng, grid, values):
    # x spans below, inside and above the grid; e is a unit exponential
    rate = TabulatedRate(grid, values)
    n = 3000
    x = np.exp(rng.uniform(math.log(rate.grid[0] / 4.0),
                           math.log(rate.grid[-1] * 2.0), n))
    assert np.all([np.any(x < rate.grid[0]), np.any(x > rate.grid[-1]),
                   np.any((x > rate.grid[0]) & (x < rate.grid[-1]))])
    v = rng.uniform(0.2, 3.0, n)
    e = rng.standard_exponential(n)
    t = rate.invert_hazard(x, v, e)
    assert np.all(np.abs(t - bisection_inverse(rate, x, v, e))
                  <= 1e-13 * np.maximum(1.0, t))
    assert np.all(np.abs(rate.cumulative_hazard(x, v, t) - e)
                  <= HAZARD_TOL * np.maximum(1.0, e))


def test_narrow_steep_segment_far_from_the_origin_inverts():
    # A's a log(y/g) + b (y - g) form cancelled here to about 5e-11 and
    # missed HAZARD_TOL; B(g) log1p(q) + b g (q - log1p(q)) does not
    rate = TabulatedRate([18.8682, 18.8687], [0.0072, 13.4])
    x, v, e = np.array([4.93]), np.array([0.672]), np.array([0.0145])
    t = rate.invert_hazard(x, v, e)
    assert np.abs(rate.cumulative_hazard(x, v, t) - e) <= HAZARD_TOL
    assert np.abs(t - bisection_inverse(rate, x, v, e)) <= 1e-13 * max(1, t)


def test_segment_mass_keeps_its_digits_on_short_steps():
    """With B(g) = 0 a segment's mass is b g (q - log1p(q)), about
    b g q^2 / 2: the direct difference keeps about q / 2 of its relative
    digits, the series all but a few ulps (oracle: 50-digit logs)."""
    from decimal import Decimal, localcontext

    q = np.logspace(-12, 0, 97)
    with localcontext() as ctx:
        ctx.prec = 50
        want = np.array([float(Decimal(v) - (1 + Decimal(v)).ln())
                         for v in q.tolist()])
    got = model._linear_log_mass(0.0, 1.0, q)
    assert np.all(np.abs(got - want) <= 1e-13 * want)


def test_invert_meets_tolerance_on_random_tables():
    """A seeded fuzz of 300 tables of 2-6 nodes, segment widths e^-8 to
    e^8 and values in [0, 15), each lane aimed into a random segment.  With
    the cancelling form of A, 12 of these tables raised and 81 more missed
    the bisection oracle."""
    rng = np.random.default_rng(2024)
    lanes = 40
    for _ in range(300):
        k = rng.integers(2, 7)
        grid = np.cumsum(np.concatenate(
            [[rng.uniform(0.1, 30.0)], np.exp(rng.uniform(-8, 8, k - 1))]))
        values = rng.uniform(0.0, 15.0, k)
        values[-1] = rng.uniform(0.01, 15.0)  # B > 0 past the grid
        rate = TabulatedRate(grid, values)
        j = rng.integers(0, k - 1, lanes)
        y = grid[j] + rng.uniform(0.0, 1.0, lanes) * (grid[j + 1] - grid[j])
        x = y * np.exp(-rng.uniform(0.0, 3.0, lanes))
        v = rng.uniform(0.2, 3.0, lanes)
        e = rate.cumulative_hazard(x, v, np.log(y / x) / v)
        t = rate.invert_hazard(x, v, e)  # raises when a residual misses
        with np.errstate(over="ignore"):
            want = bisection_inverse(rate, x, v, e)
        assert np.all(np.abs(t - want) <= 1e-12 * np.maximum(1.0, t)), \
            (grid, values)


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


SPIKE_GRID = np.linspace(0.2, 3.0, 2901)
# a 4e-3-wide spike holds all the density
SPIKE = IndependentResampleGrowth(
    SPIKE_GRID, np.where(np.abs(SPIKE_GRID - 1.0) < 2e-3, 1.0, 0.0), BOUNDS)


def test_rejection_budget_raises():
    # each lane takes one draw and lands in the spike
    draws = keyed_growth_rates(SPIKE, 1.0, 4096)
    assert np.all(np.abs(draws - 1.0) <= 3e-3)
    assert draws.min() < 1.0 < draws.max()


def growth_kernels():
    grid = np.linspace(0.2, 3.0, 57)
    bumpy = np.exp(-(grid - 1.0) ** 2) * (1.2 + np.sin(5.0 * grid))
    return {"dirac": DiracGrowth(1.0, BOUNDS),
            "uniform": UniformIncrementGrowth(2.0, 0.5, BOUNDS),
            "gaussian": GaussianIncrementGrowth(0.3, BOUNDS),
            "narrow-gaussian": GaussianIncrementGrowth(0.05, BOUNDS),
            "resample": IndependentResampleGrowth(grid, bumpy, BOUNDS)}


def band_edge_parents(n):
    """n parent rates: a third at each band edge, a third inside."""
    inside = np.linspace(0.2, 3.0, n - 2 * (n // 3))
    return np.concatenate([np.full(n // 3, 0.2), inside,
                           np.full(n // 3, 3.0)])


def conditioned_cdf(kernel, v_parent, points=20_001):
    """The CDF of ``conditioned_density`` by the trapezoid rule on a fine
    grid of the band, as a callable for ``stats.kstest``."""
    w = np.linspace(BOUNDS.e_min, BOUNDS.e_max, points)
    dens = kernel.conditioned_density(v_parent, w)
    cdf = np.concatenate(([0.0], np.cumsum(np.diff(w)
                                           * (dens[1:] + dens[:-1]) / 2.0)))
    return lambda x: np.interp(x, w, cdf / cdf[-1])


@pytest.mark.parametrize("v_parent", [0.2, 1.3, 3.0])
@pytest.mark.parametrize("name", ["uniform", "gaussian", "narrow-gaussian",
                                  "resample"])
def test_growth_rates_follow_the_conditioned_law(name, v_parent):
    kernel = growth_kernels()[name]
    draws = keyed_growth_rates(kernel, v_parent, 50_000)
    assert np.all(BOUNDS.contains(draws))
    cdf = conditioned_cdf(kernel, v_parent)
    assert stats.kstest(draws, cdf).pvalue > 0.01


@pytest.mark.parametrize("name", ["uniform", "gaussian", "narrow-gaussian",
                                  "resample"])
def test_quantile_at_extreme_levels_stays_in_band(name):
    # draw_uniform's extremes: 2^-54, and 1 (1 - 2^-54 rounds to 1)
    kernel = growth_kernels()[name]
    u = np.array([2.0 ** -54, 0.5, np.nextafter(1.0, 0.0), 1.0 - 2.0 ** -54])
    for v_parent in (BOUNDS.e_min, BOUNDS.e_max):
        w = kernel.quantile(np.full(u.size, v_parent), u)
        assert np.all(np.isfinite(w)) and np.all(BOUNDS.contains(w))
        assert np.all(np.diff(w) >= 0)  # a quantile is monotone


@pytest.mark.parametrize("std", [0.05, 0.3])
def test_gaussian_quantile_keeps_both_tails_in_reach(std):
    # The largest level below 1 lies ~8.2 std above the parent.  Inverted
    # through the lower tail alone, it would round to ndtr = 1 and land on
    # e_max, however far the band edge is.
    kernel = GaussianIncrementGrowth(std, BOUNDS)
    u = np.array([2.0 ** -54, np.nextafter(1.0, 0.0)])
    for v_parent in (BOUNDS.e_min, 1.3, BOUNDS.e_max):
        w = kernel.quantile(np.full(u.size, v_parent), u)
        assert np.all(np.abs(w - v_parent) <= 9.0 * std)


GAPPED = np.linspace(0.0, 4.0, 41)


@pytest.mark.parametrize("kernel", [
    growth_kernels()["resample"],
    # wider than the band, with zero stretches inside it
    IndependentResampleGrowth(GAPPED, np.maximum(np.sin(3.0 * GAPPED), 0.0),
                              BOUNDS),
    SPIKE,
], ids=["bumpy", "gapped", "spike"])
def test_resample_quantile_inverts_the_band_cdf(kernel):
    dens = lambda w: kernel.conditioned_density(0.0, w)
    # quad breaks at the density's kinks
    kinks = kernel.grid[1:-1][np.diff(kernel.density, 2) != 0]
    breaks = lambda hi: [g for g in kinks if BOUNDS.e_min < g < hi]
    mass, _ = integrate.quad(dens, BOUNDS.e_min, BOUNDS.e_max,
                             points=breaks(BOUNDS.e_max), limit=200)
    assert mass == pytest.approx(1.0, abs=1e-9)
    u = np.concatenate(([2.0 ** -54], np.linspace(0.01, 0.99, 25),
                        [np.nextafter(1.0, 0.0)]))
    w = kernel.quantile(np.zeros(u.size), u)
    for level, value in zip(u, w):
        below, _ = integrate.quad(dens, BOUNDS.e_min, value,
                                  points=breaks(value) or None, limit=200)
        assert below / mass == pytest.approx(level, abs=1e-9)


def test_resample_quantile_stays_on_the_support():
    # zero density at both ends of the band and in a gap inside it; the
    # humps hold masses 0.9 and 0.45, so u = 2/3 falls on the gap
    grid = np.array([0.2, 0.5, 0.8, 1.1, 1.4, 1.7, 2.0, 2.3, 2.6, 2.9, 3.2])
    dens = np.array([0.0, 0.0, 1.0, 2.0, 0.0, 0.0, 1.0, 0.5, 0.0, 0.0, 0.0])
    kernel = IndependentResampleGrowth(grid, dens, BOUNDS)
    u = np.array([2.0 ** -54, 0.3, 2.0 / 3.0, 0.9, np.nextafter(1.0, 0.0),
                  1.0])
    w = kernel.quantile(np.zeros(u.size), u)
    on = lambda lo, hi: (w >= lo - 1e-12) & (w <= hi + 1e-12)
    assert np.all(on(0.5, 1.4) | on(1.7, 2.6))
    assert w[0] == pytest.approx(0.5, abs=1e-6)
    assert w[-1] == pytest.approx(2.6, abs=1e-12)


def test_point_band_resample_yields_e_min():
    point = GrowthBounds(1.0, 1.0)
    kernel = IndependentResampleGrowth(np.array([0.5, 2.0]),
                                       np.array([1.0, 1.0]), point)
    draws = keyed_growth_rates(kernel, 1.0, 1000)
    assert draws.tolist() == [1.0] * 1000


@pytest.mark.parametrize("name", ["dirac", "uniform", "gaussian",
                                  "resample"])
def test_compacted_rejection_keeps_shape(name):
    kernel = growth_kernels()[name]
    empty = sample_growth_rates_keyed(kernel, np.empty(0), node_keys(0),
                                      STREAM_GROWTH)
    assert empty.shape == (0,) and empty.dtype == np.float64
    # lane i draws from its i-th key in C order, whatever the shape
    v, keys = band_edge_parents(600), node_keys(600)
    grid = sample_growth_rates_keyed(kernel, v.reshape(20, 30),
                                     keys.reshape(20, 30), STREAM_GROWTH)
    flat = sample_growth_rates_keyed(kernel, v, keys, STREAM_GROWTH)
    assert grid.shape == (20, 30)
    assert np.array_equal(grid.ravel(), flat)
    assert np.all(kernel.bounds.contains(flat))


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


@pytest.mark.parametrize("grid, density, bounds, ok", [
    ([5.0, 6.0], [1.0, 1.0], BOUNDS, False),  # the grid lies above the band
    ([0.1, 0.2], [1.0, 1.0], BOUNDS, False),  # it meets the band at a point
    ([0.1, 0.3], [1.0, 0.0], BOUNDS, True),
    ([0.2, 3.0], [0.0, 1e-3], BOUNDS, True),
    ([0.2, 1.0, 2.0, 3.0], [0.0, 0.0, 0.0, 1.0], GrowthBounds(0.5, 2.0),
     False),
    ([0.5, 2.0], [1.0, 1.0], GrowthBounds(1.0, 1.0), True),
    ([0.0, 1.0], [1.0, 0.0], GrowthBounds(1.0, 1.0), False),
    ([2.0, 5.0], [1.0, 1.0], GrowthBounds(1.0, 1.0), False),
])
def test_resample_density_needs_mass_in_the_band(grid, density, bounds, ok):
    # a density without mass in the band would reject every proposal
    make = lambda: IndependentResampleGrowth(np.array(grid), np.array(density),
                                             bounds)
    if ok:
        make()
    else:
        with pytest.raises(ValueError, match="no mass in the band"):
            make()


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
    assert back == spec and hash(back) == hash(spec)
    resample = ModelSpec(
        spec.division_rate,
        IndependentResampleGrowth([0.5, 1.0, 2.0], [0.0, 1.0, 0.5], bounds),
        bounds, spec.initial)
    back = ModelSpec.from_json(resample.to_json())
    assert back == resample and hash(back) == hash(resample)
    assert back != spec
    assert TabulatedRate([1, 2], [1, 2]) != TabulatedRate([1, 2], [1, 3])


def test_model_validates_initial_support():
    bounds = GrowthBounds(0.2, 3.0)
    with pytest.raises(ValueError):
        ModelSpec(SQUARE, DiracGrowth(1.0, bounds), bounds,
                  InitialDistribution(1.0, 2.0, growth_value=5.0))
    with pytest.raises(ValueError):
        InitialDistribution(-1.0, 2.0)
