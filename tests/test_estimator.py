import json
import math

import numpy as np
import pytest

from gftree import _hot, estimator
from gftree.estimator import (CompactPolynomialKernel, EstimatorConfig,
                              FixedBandwidth, FixedThreshold, GaussianKernel,
                              GridSpec, InvLogThreshold, InvNThreshold,
                              InvSqrtThreshold, ObservationSet,
                              PowerBandwidth, SmoothnessBandwidth, bandwidth,
                              estimate_division_rate,
                              estimate_division_rate_parent_indexed,
                              estimate_division_rate_pooled, estimate_rows,
                              evaluation_grid, kernel_density, kernel_moment,
                              threshold, write_estimate_tsv)
from gftree.invariant import invariant_fixed_point
from gftree.model import reference_model
from gftree.trees import (extract_observations, parent_child_arrays,
                          simulate_full_tree, simulate_replicates,
                          simulate_sparse_lineage)


def obs_of(*rows):
    data = np.array(rows, dtype=float)
    return ObservationSet(data[:, 0], data[:, 1], data[:, 2])


def exact_gaussian_sums(sizes, centers, h, kernel=GaussianKernel()):
    """Reference for the binned kernel sums: the truncated-Gaussian sum at
    each center, over the sorted sizes inside its window."""
    s = np.sort(sizes)
    lo = np.searchsorted(s, centers - kernel.radius * h, side="left")
    hi = np.searchsorted(s, centers + kernel.radius * h, side="right")
    out = np.zeros(centers.size)
    for j in range(centers.size):
        if hi[j] > lo[j]:
            z = (s[lo[j]:hi[j]] - centers[j]) / h
            out[j] = np.sum(np.exp(-0.5 * z * z))
    return out * kernel._scale


def convolved_lattice_sums(sizes, centers, h, kernel=GaussianKernel()):
    """Reference for the valid-mode correlation: the binned sums with the
    whole lattice from one full ``np.convolve``, as computed before only
    the lattice points the centers read were kept."""
    s = np.sort(sizes)
    reach = kernel.radius * h
    lo = np.searchsorted(s, centers - reach, side="left")
    hi = np.searchsorted(s, centers + reach, side="right")
    c0, c1 = float(centers.min()), float(centers.max())
    step = (c1 - c0) / (centers.size - 1) if c1 > c0 else h
    delta = step / np.ceil(step * _hot.BINS_PER_BANDWIDTH / h)
    span = int(reach / delta)
    origin = c0 - (span + 1) * delta
    size = int((c1 - origin) / delta) + span + 3
    assert (hi - lo).sum() > size, "the pairs would be summed, not binned"
    t = (s[lo.min():hi.max()] - origin) / delta
    i = t.astype(np.intp)
    w = np.bincount(i, 1.0 - (t - i), size) + np.bincount(i + 1, t - i, size)
    taps = np.exp(-0.5 * (np.arange(-span, span + 1) * (delta / h)) ** 2)
    lattice = np.convolve(w, taps)[span:span + size]
    out = np.interp((centers - origin) / delta, np.arange(size), lattice)
    return np.where(hi > lo, out, 0.0) * kernel._scale


def correlated_rows_sums(sizes_sorted, centers, h, radius, scale):
    """Reference for the windowed lattice sums: the binned sums as computed
    before, each binned row correlated over its whole lattice in
    ``np.correlate``'s valid mode and read by ``np.interp``."""
    reach = radius * h
    lo = np.array([np.searchsorted(s, centers - reach, side="left")
                   for s in sizes_sorted])
    hi = np.array([np.searchsorted(s, centers + reach, side="right")
                   for s in sizes_sorted])
    c0, c1 = float(centers.min()), float(centers.max())
    step = (c1 - c0) / (centers.size - 1) if c1 > c0 else h
    delta = step / np.ceil(step * _hot.BINS_PER_BANDWIDTH / h)
    span = int(reach / delta)
    origin = c0 - (span + 1) * delta
    size = int((c1 - origin) / delta) + span + 3
    pairs = hi - lo
    summed = pairs.sum(axis=1) <= size
    out = np.zeros(lo.shape)
    for r in np.flatnonzero(summed):
        j = np.repeat(np.arange(centers.size), pairs[r])
        k = np.arange(j.size) + np.repeat(lo[r] - np.cumsum(pairs[r])
                                          + pairs[r], pairs[r])
        z = (sizes_sorted[r, k] - centers[j]) / h
        out[r] = np.bincount(j, np.exp(-0.5 * z * z), centers.size)
    binned = np.flatnonzero(~summed)
    parts = [sizes_sorted[r, lo[r].min():hi[r].max()] for r in binned]
    t = (np.concatenate(parts or [np.empty(0)]) - origin) / delta
    i = t.astype(np.intp)
    t -= i
    i += np.repeat(size * np.arange(binned.size), [p.size for p in parts])
    bins = binned.size * size
    w = np.bincount(i, 1.0 - t, bins) + np.bincount(i + 1, t, bins)
    taps = np.exp(-0.5 * (np.arange(-span, span + 1) * (delta / h)) ** 2)
    x = (centers - origin) / delta
    for r, row in zip(binned, w.reshape(-1, size)):
        out[r] = np.interp(x, np.arange(span, size - span),
                           np.correlate(row, taps, "valid"))
    return np.where(hi > lo, out, 0.0) * scale


def lexsort_coverage(sizes, y, weight, upper):
    """Reference for the bucketed coverage sums: cumulative weights over the
    rows sorted by size and by upper end, ties ordered by weight."""
    lo_order = np.lexsort((weight, sizes))
    lo_cum = np.concatenate([[0.0], np.cumsum(weight[lo_order])])
    hi_order = np.lexsort((weight, upper))
    hi_cum = np.concatenate([[0.0], np.cumsum(weight[hi_order])])
    started = lo_cum[np.searchsorted(sizes[lo_order], y, side="right")]
    ended = hi_cum[np.searchsorted(upper[hi_order], y, side="left")]
    return started - ended


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------

def test_gaussian_kernel_point_value():
    obs = obs_of([1.0, 1.0, 1.0])
    val = kernel_density(obs, 1.0, 0.5, GaussianKernel())
    assert val == pytest.approx(0.797885, abs=1e-5)


def test_kernel_density_outside_support_is_zero():
    obs = obs_of([1.0, 1.0, 1.0])
    assert kernel_density(obs, 1.0 + 5.1 * 0.5, 0.5, GaussianKernel()) == 0.0
    assert kernel_density(obs, 1.0 - 5.1 * 0.5, 0.5, GaussianKernel()) == 0.0
    # the size 0.4999 lies outside the window of y = 1.0, but it puts weight
    # on the lattice point 0.5, which is inside
    ys = np.linspace(0.0, 2.0, 401)
    dens = kernel_density(obs_of([0.4999, 1.0, 1.0]), ys, 0.1)
    assert dens[200] == 0.0 and dens[199] > 0.0


def test_kernel_density_average_invariance():
    obs = obs_of([1.0, 1.0, 1.0], [2.0, 0.5, 0.3])
    doubled = obs_of([1.0, 1.0, 1.0], [2.0, 0.5, 0.3],
                     [1.0, 1.0, 1.0], [2.0, 0.5, 0.3])
    ys = np.linspace(0.2, 3.0, 23)
    # doubling reorders the float summation, so identity holds to rounding
    assert np.allclose(kernel_density(obs, ys, 0.4),
                       kernel_density(doubled, ys, 0.4), rtol=4e-16, atol=0)


def test_kernel_moment_conditions():
    gauss = GaussianKernel()
    assert abs(kernel_moment(gauss, 0) - 1.0) < 1e-8
    assert abs(kernel_moment(gauss, 1)) < 1e-8
    for order in (1, 2, 3, 4):
        kern = CompactPolynomialKernel(order)
        assert abs(kernel_moment(kern, 0) - 1.0) < 1e-8
        for k in range(1, order + 1):
            assert abs(kernel_moment(kern, k)) < 1e-8


def test_higher_order_kernel_is_signed():
    kern = CompactPolynomialKernel(2)
    z = np.linspace(-1, 1, 201)
    assert np.any(kern(z) < 0)


# ---------------------------------------------------------------------------
# Denominator
# ---------------------------------------------------------------------------

def grid_estimate(obs, dx, x_max):
    """The estimate on the grid dx, 2 dx, ..., x_max, floored at 0.1."""
    config = EstimatorConfig(bandwidth_rule=FixedBandwidth(0.5),
                             threshold_rule=FixedThreshold(0.1),
                             grid=GridSpec(dx, x_max))
    return estimate_rows(obs.size_birth[None], obs.growth_rate[None],
                         obs.lifetime[None], config)[0]


def test_denominator_interval_hit():
    obs = obs_of([1.0, 1.0, math.log(2.0)])  # interval [1, 2]
    est = grid_estimate(obs, 0.5, 3.0)  # y = 0.5, 1.0, ..., 3.0
    assert est.raw_denominator[2] == 1.0 and not est.clipped[2]  # y = 1.5


def test_denominator_clipped_outside_interval():
    obs = obs_of([1.0, 1.0, math.log(2.0)])
    est = grid_estimate(obs, 0.5, 3.0)
    outside = [0, 4, 5]  # y = 0.5, 2.5 and 3.0
    assert est.raw_denominator[outside].tolist() == [0.0, 0.0, 0.0]
    assert est.clipped[outside].all()


def test_denominator_boundaries_inclusive():
    obs = obs_of([1.0, 1.0, math.log(2.0)])
    est = grid_estimate(obs, 0.5, 3.0)
    assert est.raw_denominator[[1, 3]].tolist() == [1.0, 1.0]  # y = 1, 2
    y = np.array([1.0 - 1e-12, 1.0, 2.0, 2.0 + 1e-12])
    raw = estimator._coverage_sums(
        obs.size_birth[None], y, obs.growth_rate[None],
        lambda i, s, v: s * np.exp(v * obs.lifetime[None][i]))
    assert raw.tolist() == [[0.0, 1.0, 1.0, 0.0]]


@pytest.mark.parametrize("y", [
    evaluation_grid(0.013, 700),
    np.array([0.7]),
    np.sort(np.random.default_rng(5).lognormal(0.0, 1.0, 300)),
    np.array([0.5, 0.5, 1.0, 1.0, 1.0, 4.0]),
    np.array([]),
], ids=["uniform", "one-point", "non-uniform", "repeated", "empty"])
@pytest.mark.parametrize("side", ["left", "right"])
def test_grid_buckets_equal_searchsorted(y, side):
    rng = np.random.default_rng(6)
    lo, hi = (y[0], y[-1]) if y.size else (0.0, 1.0)
    x = np.concatenate([
        y, np.nextafter(y, -np.inf), np.nextafter(y, np.inf),  # on the grid
        lo - rng.uniform(0.0, 3.0, 50), hi + rng.uniform(0.0, 3.0, 50),
        rng.uniform(lo, hi, 2000), [-np.inf, np.inf, np.nan, 0.0, -0.0]])
    rng.shuffle(x)
    assert np.array_equal(estimator._grid_buckets(y, x, side),
                          np.searchsorted(y, x, side))


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------

def test_bandwidth_rules():
    assert bandwidth(PowerBandwidth(-1.0 / 3.0), 1000) == pytest.approx(
        0.1, rel=1e-12)
    assert bandwidth(FixedBandwidth(0.25), 10) == 0.25
    assert bandwidth(SmoothnessBandwidth(s=1.0), 1000) == pytest.approx(
        0.1, rel=1e-12)
    with pytest.raises(ValueError):
        bandwidth(PowerBandwidth(), 1)


def test_threshold_rules():
    assert threshold(InvLogThreshold(), math.e ** 2) == pytest.approx(
        0.5, rel=1e-12)
    assert threshold(InvSqrtThreshold(), 1024) == pytest.approx(1.0 / 32.0)
    assert threshold(InvNThreshold(), 1000) == pytest.approx(1e-3)
    assert threshold(FixedThreshold(0.2), 10) == 0.2


def test_fixed_rules_allow_tiny_samples():
    obs = obs_of([1.0, 1.0, 0.5])
    config = EstimatorConfig(bandwidth_rule=FixedBandwidth(0.3),
                             threshold_rule=FixedThreshold(0.2),
                             grid=GridSpec(dx=0.1, x_max=3.0))
    est = estimate_division_rate(obs, config)
    assert est.n == 1 and len(est.curve) == 30


def test_grid_rule_matches_reference_protocol():
    dx, m = GridSpec().resolve(1024)
    assert dx == pytest.approx(0.03125)
    assert m == 160
    assert dx * m == pytest.approx(5.0)


# EstimatorConfig.to_json_dict() of each part in turn, the others left at
# their defaults, pinned as sorted-key JSON text
_DEFAULT_PART_JSON = {
    "kernel": '{"form": "gaussian", "radius": 5.0}',
    "bandwidth_rule": '{"exponent": -0.3333333333333333, "rule": "power"}',
    "threshold_rule": '{"rule": "inv_log"}'}
_PART_JSON = [
    ("kernel", GaussianKernel(4.0), '{"form": "gaussian", "radius": 4.0}'),
    ("kernel", CompactPolynomialKernel(3),
     '{"form": "compact_polynomial", "order": 3}'),
    ("bandwidth_rule", FixedBandwidth(0.25), '{"h": 0.25, "rule": "fixed"}'),
    ("bandwidth_rule", PowerBandwidth(-0.25),
     '{"exponent": -0.25, "rule": "power"}'),
    ("bandwidth_rule", SmoothnessBandwidth(2.0, 0.5),
     '{"c0": 0.5, "rule": "smoothness", "s": 2.0}'),
    ("threshold_rule", InvLogThreshold(), '{"rule": "inv_log"}'),
    ("threshold_rule", InvSqrtThreshold(), '{"rule": "inv_sqrt"}'),
    ("threshold_rule", InvNThreshold(), '{"rule": "inv_n"}'),
    ("threshold_rule", FixedThreshold(0.125),
     '{"rule": "fixed", "value": 0.125}'),
]


@pytest.mark.parametrize("slot, part, text", _PART_JSON,
                         ids=[type(part).__name__ for _, part, _ in _PART_JSON])
def test_estimator_config_json_text_is_pinned(slot, part, text):
    config = EstimatorConfig(**{slot: part}, grid=GridSpec(0.05, 4.0))
    parts = {**_DEFAULT_PART_JSON, slot: text}
    assert json.dumps(config.to_json_dict(), sort_keys=True) == (
        f'{{"bandwidth": {parts["bandwidth_rule"]}, '
        '"grid": {"dx": 0.05, "x_max": 4.0}, '
        f'"kernel": {parts["kernel"]}, '
        f'"threshold": {parts["threshold_rule"]}}}')


# ---------------------------------------------------------------------------
# Full estimator
# ---------------------------------------------------------------------------

def test_estimate_pooled_identical_for_constant_rates(dirac_spec):
    tree = simulate_full_tree(dirac_spec, 9, seed=21)
    obs = extract_observations(tree)
    aware = estimate_division_rate(obs)
    pooled = estimate_division_rate_pooled(obs)
    assert np.array_equal(aware.values, pooled.values)
    assert np.array_equal(aware.raw_denominator, pooled.raw_denominator)


def test_estimate_tail_is_zero(variability_spec):
    tree = simulate_full_tree(variability_spec, 7, seed=22)
    obs = extract_observations(tree)
    est = estimate_division_rate(
        obs, EstimatorConfig(grid=GridSpec(x_max=8.0)))
    tail = est.y / 2.0 > obs.size_birth.max() + 5.0 * est.h
    assert np.any(tail)
    assert np.all(est.values[tail] == 0.0)
    assert np.all(est.clipped[tail])


def test_estimate_permutation_invariance(variability_spec):
    tree = simulate_full_tree(variability_spec, 8, seed=23)
    obs = extract_observations(tree)
    perm = np.random.default_rng(0).permutation(obs.n)
    shuffled = ObservationSet(obs.size_birth[perm], obs.growth_rate[perm],
                              obs.lifetime[perm])
    a = estimate_division_rate(obs)
    b = estimate_division_rate(shuffled)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.raw_denominator, b.raw_denominator)


@pytest.mark.parametrize("seed", range(12))
def test_shuffled_rows_give_identical_density_and_variants(variability_spec,
                                                           seed):
    # the pooled mean rate is a correctly rounded sum, so it does not
    # depend on the order of the rows
    tree = simulate_full_tree(variability_spec, 8, seed=seed)
    obs = extract_observations(tree)
    ps, pg, cs = parent_child_arrays(tree)
    rng = np.random.default_rng(1)
    perm, pair_perm = rng.permutation(obs.n), rng.permutation(ps.size)
    shuffled = ObservationSet(obs.size_birth[perm], obs.growth_rate[perm],
                              obs.lifetime[perm])
    y = estimate_division_rate(obs).y
    assert np.array_equal(kernel_density(obs, y, 0.1),
                          kernel_density(shuffled, y, 0.1))
    a = estimate_division_rate_pooled(obs)
    b = estimate_division_rate_pooled(shuffled)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.raw_denominator, b.raw_denominator)
    a = estimate_division_rate_parent_indexed(obs, ps, pg, cs)
    b = estimate_division_rate_parent_indexed(
        shuffled, ps[pair_perm], pg[pair_perm], cs[pair_perm])
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.raw_denominator, b.raw_denominator)


@pytest.mark.parametrize("generations", [4, 5, 9, 15])
def test_binned_sums_match_exact_reference(variability_spec, generations):
    """n = 2^5 - 1 (fewer pairs than bins, so summed exactly), 2^6 - 1,
    2^10 - 1 and 2^16 - 1 (binned): the density is within 2e-5 of its
    maximum of the exact per-center sums, zero exactly where they are, and
    the bucketed denominator within 1e-12 of its maximum of the lexsort
    sums."""
    obs = extract_observations(
        simulate_full_tree(variability_spec, generations, seed=31))
    est = estimate_division_rate(obs)
    nu = exact_gaussian_sums(obs.size_birth, est.y / 2.0, est.h) \
        / (obs.n * est.h)
    assert np.max(np.abs(est.nu_values - nu)) <= 2e-5 * nu.max()
    assert np.array_equal(est.nu_values == 0, nu == 0)
    raw = lexsort_coverage(obs.size_birth, est.y, 1.0 / obs.growth_rate,
                           obs.size_birth * np.exp(obs.growth_rate
                                                   * obs.lifetime)) / obs.n
    assert np.max(np.abs(est.raw_denominator - raw)) <= 1e-12 * raw.max()


def test_binned_sums_interpolate_uneven_centers():
    """Centers off any even grid read the lattice by linear interpolation,
    which adds at most about as much as the binning: 1e-4 of the maximum."""
    rng = np.random.default_rng(5)
    obs = ObservationSet(rng.uniform(0.5, 2.0, 1024), np.ones(1024),
                         np.ones(1024))
    y = rng.uniform(0.0, 2.5, 300)
    got = kernel_density(obs, y, 0.05)
    want = exact_gaussian_sums(obs.size_birth, y, 0.05) / (obs.n * 0.05)
    assert np.max(np.abs(got - want)) <= 1e-4 * want.max()
    assert np.array_equal(got == 0, want == 0)


def test_kernel_sums_memory_stays_bounded(peak_bytes):
    """Only sizes within reach of a center are binned, so one size of 1e6
    with h = 0.01 changes nothing and does not stretch the lattice; with
    h = 1e-5 the lattice would need 2e7 bins, so the few pairs within
    reach are summed instead."""
    rng = np.random.default_rng(6)
    sizes = np.sort(rng.uniform(0.5, 2.0, 1000))
    centers = evaluation_grid(0.01, 500) / 2.0
    kern = GaussianKernel()
    plain = _hot.kernel_sums(sizes, centers, 0.01, kern.radius, kern._scale)
    peak, (with_outlier, narrow) = peak_bytes(lambda: (
        _hot.kernel_sums(np.append(sizes, 1e6), centers, 0.01, kern.radius,
                         kern._scale),
        _hot.kernel_sums(sizes, centers, 1e-5, kern.radius, kern._scale)))
    assert np.array_equal(with_outlier, plain)
    want = exact_gaussian_sums(sizes, centers, 1e-5)
    assert np.any(want > 0)
    assert np.allclose(narrow, want, rtol=1e-12, atol=0)
    assert peak < 16 * 2 ** 20


@pytest.mark.parametrize("n", [63, 65_535])
def test_valid_correlation_matches_full_convolution(n):
    """The lattice points the centers read, correlated in valid mode, are
    bit-identical to the same points of the full convolution, on the
    estimator's grid and on uneven centers."""
    rng = np.random.default_rng(n)
    sizes = rng.lognormal(0.0, 0.4, n)
    h = bandwidth(PowerBandwidth(), n)
    kern = GaussianKernel()
    for centers in (evaluation_grid(*GridSpec().resolve(n)) / 2.0,
                    np.sort(rng.uniform(0.2, 2.5, 97))):
        got = _hot.kernel_sums(np.sort(sizes), centers, h, kern.radius,
                               kern._scale)
        assert np.array_equal(got, convolved_lattice_sums(sizes, centers, h))


def lattice_stride(centers, h):
    """Lattice points between evenly spaced centers."""
    step = (centers[-1] - centers[0]) / (centers.size - 1)
    return int(np.ceil(step * _hot.BINS_PER_BANDWIDTH / h))


@pytest.mark.parametrize("n", [31, 255, 1023, 16_383])
def test_windowed_sums_equal_the_correlated_lattice(n):
    """The vecdot over lattice windows, at the three points around each
    center or at every point, is bit-identical to the per-row valid-mode
    ``np.correlate`` loop: on the estimator's grid (centers 3 or more
    lattice points apart), at strides 2 and 1, at a single center, at
    uneven and unsorted centers, and beside rows that sum their pairs."""
    rng = np.random.default_rng(n)
    xi = rng.lognormal(0.0, 0.4, (4, n))
    xi[2, 3:] += 50.0  # a handful of pairs: summed, not binned
    s = np.sort(xi, axis=1)
    h = bandwidth(PowerBandwidth(), n)
    kern = GaussianKernel()
    grid = evaluation_grid(*GridSpec().resolve(n)) / 2.0
    assert lattice_stride(grid, h) >= 3
    cases = [grid, grid[:1], np.array([1.0]),
             np.sort(rng.uniform(0.2, 2.5, 97)), rng.uniform(0.2, 2.5, 40)]
    for stride in (2, 1):
        step = (stride - 0.5) * h / _hot.BINS_PER_BANDWIDTH
        centers = 0.9 + step * np.arange(50)
        assert lattice_stride(centers, h) == stride
        cases.append(centers)
    for centers in cases:
        got = _hot.kernel_sums_rows(s, centers, h, kern.radius, kern._scale)
        want = correlated_rows_sums(s, centers, h, kern.radius, kern._scale)
        assert np.array_equal(got, want), centers.size
        assert np.array_equal(got[2], _hot.kernel_sums(
            s[2], centers, h, kern.radius, kern._scale))


@pytest.mark.parametrize("pair_rows", [3, 8])
@pytest.mark.parametrize("n", [2 ** 5, 2 ** 7])
def test_pair_sums_of_row_blocks_equal_the_row_loop(n, pair_rows,
                                                     monkeypatch):
    """Rows whose pairs within reach are no more than the lattice's bins
    are summed ``PAIR_ROWS`` at a time by a (row, center)-offset
    ``bincount``, each bin adding the same terms in the same order as the
    per-row loop of :func:`correlated_rows_sums`.  At 2^5 every lognormal
    row takes that path, as on the study ladder; at 2^7 only the rows
    moved out of reach do, beside rows that are binned."""
    monkeypatch.setattr(_hot, "PAIR_ROWS", pair_rows)
    rng = np.random.default_rng(n + 1)
    xi = rng.lognormal(0.0, 0.4, (12, n))
    xi[::3, 4:] += 50.0
    s = np.sort(xi, axis=1)
    h = bandwidth(PowerBandwidth(), n)
    kern = GaussianKernel()
    centers = evaluation_grid(*GridSpec().resolve(n)) / 2.0
    got = _hot.kernel_sums_rows(s, centers, h, kern.radius, kern._scale)
    want = correlated_rows_sums(s, centers, h, kern.radius, kern._scale)
    assert np.array_equal(got, want)
    for row, one in zip(s, got):
        assert np.array_equal(one, _hot.kernel_sums(row, centers, h,
                                                    kern.radius, kern._scale))


def test_one_row_kernel_sums_memory_per_cell(peak_bytes,
                                             bytes_per_added_cell):
    """A row longer than ``_BAND_CELLS`` is binned a band at a time, so
    from 2^18 to 2^19 cells the scratch rises by under 1 B per added cell
    (its sorted copy took 8 B), and it stays under 14 B/cell at 2^18."""
    def setup(n):
        sizes = np.random.default_rng(3).lognormal(0.0, 0.4, (1, n))
        centers = evaluation_grid(*GridSpec().resolve(n)) / 2.0
        h = bandwidth(PowerBandwidth(), n)
        return (lambda: estimator._kernel_sums(sizes, centers, h,
                                               GaussianKernel()), n)

    assert bytes_per_added_cell(setup, 2 ** 18, 2 ** 19)[0] < 1
    assert peak_bytes(setup(2 ** 18)[0])[0] < 14 * 2 ** 18


def sample_rows(r, n, seed):
    """(size_birth, growth_rate, lifetime) rows of r samples of n cells;
    row 1 lies out of every center's reach when r > 1."""
    rng = np.random.default_rng(seed)
    xi = rng.lognormal(0.0, 0.4, (r, n))
    if r > 1:
        xi[1] += 100.0
    return xi, rng.uniform(0.5, 2.0, (r, n)), rng.uniform(0.2, 1.5, (r, n))


def test_coverage_blocks_across_rows_give_the_same_sums(monkeypatch):
    xi, tau, zeta = sample_rows(3, 255, seed=11)
    upper = xi * np.exp(tau * zeta)
    args = (xi, evaluation_grid(0.01, 400), tau, lambda i, s, v: upper[i])
    whole = estimator._coverage_sums(*args)
    monkeypatch.setattr(estimator, "_COVER_BLOCK", 7)  # blocks straddle rows
    assert np.array_equal(estimator._coverage_sums(*args), whole)


def whole_row_coverage_sums(sizes, y, weight, upper):
    """Coverage sums as one ``bincount`` per edge over whole rows, each
    row's cells in ascending weight order."""
    order = np.argsort(weight, axis=1)
    r, n = order.shape
    m = y.size + 1
    offset = m * np.repeat(np.arange(r), n)
    w = np.take_along_axis(weight, order, axis=1).ravel()

    def edge(x, side):
        x = np.take_along_axis(x, order, axis=1).ravel()
        return np.bincount(np.searchsorted(y, x, side) + offset, w, r * m)

    sums = edge(sizes, "left") - edge(upper, "right")
    return np.cumsum(sums.reshape(r, m), axis=1)[:, :-1]


@pytest.mark.parametrize("block", [7, 1 << 14])
def test_coverage_sums_equal_whole_row_bincounts(monkeypatch, block):
    """Blocks of the rate order added by ``np.add.at`` equal whole-row
    ``bincount``s of the weights 1/rate bit for bit: with tied rates, and
    with the rows' pooled rates broadcast along them."""
    monkeypatch.setattr(estimator, "_COVER_BLOCK", block)
    xi, tau, zeta = sample_rows(3, 1023, seed=13)
    tau[:, ::2] = np.round(tau[:, ::2], 1)
    y = evaluation_grid(0.01, 400)
    pooled = np.broadcast_to(tau.mean(axis=1, keepdims=True), xi.shape)
    for rate in (tau, pooled):
        upper = xi * np.exp(rate * zeta)
        assert np.array_equal(
            estimator._coverage_sums(xi, y, rate, lambda i, s, v: upper[i]),
            whole_row_coverage_sums(xi, y, 1.0 / rate, upper))


def test_estimator_scratch_per_row(monkeypatch, bytes_per_added_cell):
    """On a fixed grid and bandwidth, rows longer than a band go through
    both sums a band at a time, so from 2^16 to 2^17 cells the scratch
    rises by under 2 B per added cell.  Sorting the rates and the sizes
    whole took 8 B/cell, and whole-row weights and edges 32 B/cell."""
    monkeypatch.setattr(estimator, "_BAND_CELLS", 2 ** 14)
    config = EstimatorConfig(bandwidth_rule=FixedBandwidth(0.05),
                             grid=GridSpec(dx=0.01))

    def setup(n):
        obs = ObservationSet(*(row[0] for row in sample_rows(1, n, seed=12)))
        return lambda: estimate_division_rate(obs, config), n

    assert bytes_per_added_cell(setup, 2 ** 16, 2 ** 17)[0] < 2


def band_rows(case, n=160):
    """(size_birth, growth_rate, lifetime) rows of two samples of n cells
    that stress the bands of :func:`estimator._bands`."""
    rng = np.random.default_rng(31)
    xi = rng.lognormal(0.0, 0.4, (2, n))
    tau = rng.uniform(0.5, 2.0, (2, n))
    zeta = rng.uniform(0.2, 1.5, (2, n))
    if case == "dirac rates":
        tau = np.ones_like(tau)
    elif case == "two rates":
        tau = np.where(rng.random((2, n)) < 0.5, 0.7, 1.3)
    elif case == "duplicated sizes":
        xi, tau = np.round(xi, 1), np.round(tau, 1)
    elif case == "pooled rates":
        tau = np.broadcast_to(tau.mean(axis=1, keepdims=True), tau.shape)
    elif case == "no size in reach":
        xi[1] += 100.0
    elif case == "cluster and outlier":  # one bin holds all but one cell
        xi = tau = 1.0 + 1e-12 * np.arange(2 * n).reshape(2, n)
        xi[:, -1] = tau[:, -1] = 1.9
    return xi, tau, zeta


def whole_row_polynomial_sums(sizes, centers, h, kernel):
    """Reference for the polynomial kernel sums: each center's window of
    the row sorted whole, summed at once."""
    r = kernel.support_radius
    out = np.zeros((len(sizes), centers.size))
    for row, s in zip(out, np.sort(sizes, axis=1)):
        lo = np.searchsorted(s, centers - r * h, side="left")
        hi = np.searchsorted(s, centers + r * h, side="right")
        for j in np.flatnonzero(hi > lo):
            row[j] = float(np.sum(kernel((s[lo[j]:hi[j]] - centers[j]) / h)))
    return out


@pytest.mark.parametrize("cap", [1, 5, 64])
@pytest.mark.parametrize("case", [
    "random", "dirac rates", "two rates", "duplicated sizes", "pooled rates",
    "no size in reach", "cluster and outlier"])
def test_bands_equal_whole_row_sums(monkeypatch, cap, case):
    """With rows longer than a band, the coverage sums, the Gaussian
    kernel sums (pairs summed at h = 1e-3, binned at h = 0.1), the
    polynomial ones and ``kernel_density`` equal the whole-row
    ``argsort``/``np.sort`` references bit for bit."""
    xi, tau, zeta = band_rows(case)
    y = evaluation_grid(0.01, 400)
    upper = xi * np.exp(tau * zeta)
    gauss, poly = GaussianKernel(), CompactPolynomialKernel(order=2)
    want = {"cover": whole_row_coverage_sums(xi, y, 1.0 / tau, upper),
            "poly": whole_row_polynomial_sums(xi, y / 2, 0.1, poly),
            "density": [kernel_density(ObservationSet(x, v, z), y, 0.1)
                        for x, v, z in zip(xi, tau, zeta)]}
    for h in (1e-3, 0.1):
        want[h] = _hot.kernel_sums_rows(np.sort(xi, axis=1), y / 2, h,
                                        gauss.radius, gauss._scale)
    monkeypatch.setattr(estimator, "_BAND_CELLS", cap)
    assert np.array_equal(estimator._coverage_sums(
        xi, y, tau, lambda i, s, v: upper[i]), want["cover"])
    for h in (1e-3, 0.1):
        assert np.array_equal(estimator._kernel_sums(xi, y / 2, h, gauss),
                              want[h])
    assert np.array_equal(estimator._kernel_sums(xi, y / 2, 0.1, poly),
                          want["poly"])
    for (x, v, z), density in zip(zip(xi, tau, zeta), want["density"]):
        assert np.array_equal(
            kernel_density(ObservationSet(x, v, z), y, 0.1), density)


def test_value_bands_split_a_crowded_bin(monkeypatch):
    """A bin of the first histogram that holds nearly every cell is cut
    again within its own values, so every band fits the cap unless its
    values are all equal, and the bands hold each cell once, in value
    order."""
    monkeypatch.setattr(estimator, "_BAND_CELLS", 5)
    values = np.append(1.0 + 1e-12 * np.arange(40), [1.9, 1.9, 1.9] * 3)
    bands = list(estimator._bands(values))
    assert all(b.size <= 5 for b in bands)
    assert np.array_equal(np.sort(np.concatenate(bands)),
                          np.arange(values.size))
    ordered = [values[b] for b in bands]
    assert all(a.max() < b.min() or a.max() == b.min() == b.max() == a.min()
               for a, b in zip(ordered, ordered[1:]))


@pytest.mark.parametrize("r, n", [(1, 255), (4, 31), (5, 255), (3, 1023)])
@pytest.mark.parametrize("pooled", [False, True])
def test_rows_equal_one_row_estimates(r, n, pooled):
    """R rows estimated together equal R one-row estimates bit for bit: at
    n = 31 the pairs are summed, and row 1 has no size in reach."""
    xi, tau, zeta = sample_rows(r, n, seed=r * n)
    batch = estimate_rows(xi, tau, zeta, pooled=pooled)
    one = estimate_division_rate_pooled if pooled else estimate_division_rate
    for k in range(r):
        want = one(ObservationSet(xi[k], tau[k], zeta[k]))
        got = batch[k]
        for col in ("values", "nu_values", "raw_denominator", "clipped", "y"):
            assert np.array_equal(getattr(got, col), getattr(want, col)), col
        assert got.report_dict() == want.report_dict()
    if r > 1:
        assert not batch[1].nu_values.any()


def test_rows_equal_one_row_sums_on_uneven_centers():
    """Rows of kernel sums, Gaussian and polynomial, and rows of coverage
    sums equal one-row calls at uneven centers, the pairs-summed rows
    mixed with binned ones."""
    xi, tau, zeta = sample_rows(4, 255, seed=8)
    xi[3, 20:] += 50.0  # few pairs: summed, beside binned rows
    centers = np.random.default_rng(9).uniform(0.0, 2.5, 200)
    for kern in (GaussianKernel(), CompactPolynomialKernel(order=2)):
        rows = estimator._kernel_sums(xi, centers, 0.1, kern)
        for k in range(4):
            assert np.array_equal(
                rows[k], estimator._kernel_sums(xi[k][None], centers, 0.1,
                                                kern)[0])
    y = np.sort(centers)
    upper = xi * np.exp(tau * zeta)
    rows = estimator._coverage_sums(xi, y, tau, lambda i, s, v: upper[i])
    for k in range(4):
        assert np.array_equal(rows[k], estimator._coverage_sums(
            xi[k][None], y, tau[k][None],
            lambda i, s, v: upper[k][None][i])[0])


def test_parent_indexed_rows_equal_one_row_estimates(variability_spec):
    trees = [simulate_full_tree(variability_spec, 7, seed) for seed in (3, 4)]
    cols = [parent_child_arrays(t) for t in trees]
    xi = np.array([t.size_birth for t in trees])
    ps, pg, cs = (np.array([c[j] for c in cols]) for j in range(3))
    batch = estimator._assemble(xi, EstimatorConfig(), lambda y: (
        estimator._coverage_sums(ps, y, pg, lambda i, s, v: 2.0 * cs[i])))
    for k, tree in enumerate(trees):
        want = estimate_division_rate_parent_indexed(
            extract_observations(tree), *cols[k])
        assert np.array_equal(batch[k].values, want.values)
        assert np.array_equal(batch[k].raw_denominator, want.raw_denominator)


def test_estimate_denominator_never_below_floor(variability_spec):
    tree = simulate_full_tree(variability_spec, 8, seed=24)
    est = estimate_division_rate(extract_observations(tree))
    denom = np.maximum(est.raw_denominator, est.threshold_value)
    assert np.all(denom >= est.threshold_value)
    # reconstruct the estimate from its parts: b = (y/2) nu / max(D, floor)
    rebuilt = 0.5 * est.y * est.nu_values / denom
    assert np.array_equal(rebuilt, est.values)


def test_signed_kernel_clipping_is_counted():
    rng = np.random.default_rng(3)
    obs = ObservationSet(rng.uniform(0.5, 2.0, 50), np.ones(50), np.ones(50))
    config = EstimatorConfig(kernel=CompactPolynomialKernel(2),
                             bandwidth_rule=FixedBandwidth(0.05),
                             threshold_rule=FixedThreshold(0.1),
                             grid=GridSpec(dx=0.01, x_max=5.0))
    est = estimate_division_rate(obs, config)
    assert est.negative_density_points > 0
    assert np.all(est.values >= 0.0)
    assert np.all(est.nu_values >= 0.0)


def test_consistency_improves_with_sample_size(dirac_spec):
    """Conditioned sup error |b_hat - B|/(1 + B) falls with n in median."""
    medians = []
    for log2n in (7, 10, 13):
        errs = []
        for rep in range(20):
            tree = simulate_full_tree(dirac_spec, log2n - 1,
                                      seed=1000 * log2n + rep)
            obs = extract_observations(tree)
            est = estimate_division_rate(obs)
            good = est.raw_denominator > 2.0 * est.threshold_value
            truth = est.y ** 2
            err = np.abs(est.values - truth) / (1.0 + truth)
            errs.append(float(err[good].max()))
        medians.append(float(np.median(errs)))
    assert medians[0] > medians[1] > medians[2]


def test_estimate_tsv_roundtrip(tmp_path, variability_spec):
    tree = simulate_full_tree(variability_spec, 7, seed=25)
    est = estimate_division_rate(extract_observations(tree))
    out = tmp_path / "est.tsv"
    write_estimate_tsv(est, out)
    header = out.read_text().splitlines()[0].split("\t")
    assert header == ["y", "b_hat", "nu_hat", "raw_denominator", "clipped"]
    data = np.loadtxt(out, skiprows=1)
    assert np.array_equal(data[:, 1], est.values)


def test_large_sample_reconstruction_is_accurate(variability_spec):
    """Reference-scale run: n = 2^17, h = n^-1/3, floor = n^-1/2; the
    conditioned relative error sits well below the small-sample levels."""
    tree = simulate_full_tree(variability_spec, 16, seed=41)
    obs = extract_observations(tree)
    est = estimate_division_rate(
        obs, EstimatorConfig(threshold_rule=InvSqrtThreshold()))
    cond = est.raw_denominator > 1.0 / math.log(obs.n)
    y = est.y[cond]
    truth = y ** 2
    err = math.sqrt(float(np.sum((est.values[cond] - truth) ** 2)
                          / np.sum(truth ** 2)))
    assert err < 0.06


# ---------------------------------------------------------------------------
# Closed loop: simulated trees against the invariant density
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("scheme, size, nu_bound, d_bound", [
    ("full", 13, 0.04, 0.01), ("sparse", 2 ** 12, 0.06, 0.015)],
    ids=["full", "sparse"])
def test_replicate_means_match_the_invariant_density(scheme, size, nu_bound,
                                                     d_bound):
    """With a constant growth rate tau = 1 the sizes at birth, along a
    lineage or over a whole tree, follow the invariant density nu of
    ``invariant_fixed_point``.  So the mean over 20 replicates of nu_hat
    (at y/2) must match nu(y/2), and of the denominator D_hat match
    D(y) = (y/2) nu(y/2) / B(y), at the grid points no replicate clips.
    Mean |ratio - 1| over 12 sets of 20 seeds: nu_hat 0.015-0.024 (full,
    2^14 - 1 cells) and 0.032-0.039 (lineages of 2^12), D_hat
    0.0013-0.0046 and 0.0017-0.0069; the bounds leave about 1.6-2.2
    times the largest.  A rate 1.1 x^2 or x^2.2 gives 0.06-0.12."""
    spec = reference_model("dirac")
    trees = simulate_replicates(spec, scheme, size, range(20))
    ests = estimate_rows(*(np.array([getattr(t, c) for t in trees]) for c in (
        "size_birth", "growth_rate", "lifetime")))
    kept = ~np.any([e.clipped for e in ests], axis=0)
    y = ests[0].y[kept]
    nu = invariant_fixed_point(spec.division_rate, 1.0).curve.interp(y / 2)
    d = (y / 2) * nu / spec.division_rate(y)
    nu_hat = np.mean([e.nu_values[kept] for e in ests], axis=0)
    d_hat = np.mean([e.raw_denominator[kept] for e in ests], axis=0)
    assert kept.sum() > 100
    assert np.mean(np.abs(nu_hat / nu - 1)) < nu_bound
    assert np.mean(np.abs(d_hat / d - 1)) < d_bound


# ---------------------------------------------------------------------------
# Parent-indexed cross-check
# ---------------------------------------------------------------------------

def test_parent_indexed_agrees_on_sparse_chains(dirac_spec):
    """On a lineage the two denominators differ by one boundary record, so
    the curves agree within 2/(n * floor) times the largest estimate."""
    chain = simulate_sparse_lineage(dirac_spec, 4096, seed=26)
    obs = extract_observations(chain)
    ps, pg, cs = parent_child_arrays(chain)
    self_indexed = estimate_division_rate(obs)
    parent_indexed = estimate_division_rate_parent_indexed(obs, ps, pg, cs)
    good = ((self_indexed.raw_denominator > self_indexed.threshold_value)
            & (parent_indexed.raw_denominator > self_indexed.threshold_value))
    sup = np.max(np.abs(self_indexed.values[good]
                        - parent_indexed.values[good]))
    tol = 2.0 / (obs.n * self_indexed.threshold_value) \
        * self_indexed.values[good].max()
    assert sup <= tol


def test_parent_indexed_agrees_on_full_trees(dirac_spec):
    """On full trees interior and leaf generations fluctuate independently,
    so agreement is statistical: within a few percent of the curve scale."""
    tree = simulate_full_tree(dirac_spec, 10, seed=27)
    obs = extract_observations(tree)
    ps, pg, cs = parent_child_arrays(tree)
    self_indexed = estimate_division_rate(obs)
    parent_indexed = estimate_division_rate_parent_indexed(obs, ps, pg, cs)
    good = ((self_indexed.raw_denominator > self_indexed.threshold_value)
            & (parent_indexed.raw_denominator > self_indexed.threshold_value))
    sup = np.max(np.abs(self_indexed.values[good]
                        - parent_indexed.values[good]))
    assert sup <= 0.05 * self_indexed.values[good].max()


# ---------------------------------------------------------------------------
# Observation validation
# ---------------------------------------------------------------------------

def test_observation_set_validation():
    with pytest.raises(ValueError):
        ObservationSet(np.array([1.0, -1.0]), np.ones(2), np.ones(2))
    with pytest.raises(ValueError):
        ObservationSet(np.array([1.0]), np.array([0.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        ObservationSet(np.array([np.nan]), np.array([1.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        ObservationSet(np.array([]), np.array([]), np.array([]))
