"""Nonparametric estimation of the division rate from flat cell records.

The input is a flat set of per-cell observations (size at birth, exponential
growth rate, lifetime) with no genealogy attached.  The estimate at y is

    b_hat(y) = (y/2) * nu_hat(y/2) / max(D_raw(y), threshold)

where nu_hat is a kernel density estimate of the size-at-birth distribution
and D_raw(y) averages (1/growth_rate) over cells whose size interval
[size_birth, size_birth * e^{rate * lifetime}] covers y; the floor keeps the
ratio defined where the data carry no mass.  Samples of one size are rows of
(R, n) arrays, estimated in one pass; a single sample is the one-row case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np
from numpy.polynomial import legendre

from . import _hot, curves
from .curves import CurveOnGrid, part_json, write_curve_tsv


@dataclass(frozen=True)
class ObservationSet:
    """Flat per-cell records: size at birth, growth rate, lifetime."""

    size_birth: np.ndarray
    growth_rate: np.ndarray
    lifetime: np.ndarray

    def __post_init__(self):
        xi = np.asarray(self.size_birth, dtype=np.float64)
        tau = np.asarray(self.growth_rate, dtype=np.float64)
        zeta = np.asarray(self.lifetime, dtype=np.float64)
        if not (xi.shape == tau.shape == zeta.shape) or xi.ndim != 1:
            raise ValueError("columns must be 1-d arrays of equal length")
        if xi.size < 1:
            raise ValueError("need at least one observation")
        for name, col in (("size_birth", xi), ("growth_rate", tau),
                          ("lifetime", zeta)):
            if not np.all(np.isfinite(col)) or np.any(col <= 0):
                raise ValueError(f"{name} entries must be finite and positive")
        object.__setattr__(self, "size_birth", xi)
        object.__setattr__(self, "growth_rate", tau)
        object.__setattr__(self, "lifetime", zeta)

    @property
    def n(self) -> int:
        return self.size_birth.size


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussianKernel:
    """Standard Gaussian kernel truncated at +-radius sigma and renormalised
    to unit mass, so it has compact support.  Order 1 (vanishing first
    moment by symmetry)."""

    json_tag = ("form", "gaussian")
    radius: float = 5.0

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("radius must be positive")

    @property
    def support_radius(self) -> float:
        return self.radius

    @property
    def _scale(self) -> float:
        mass = math.erf(self.radius / math.sqrt(2.0))
        return 1.0 / (math.sqrt(2.0 * math.pi) * mass)

    def __call__(self, z):
        z = np.asarray(z, dtype=np.float64)
        out = np.where(np.abs(z) <= self.radius,
                       np.exp(-0.5 * z * z) * self._scale, 0.0)
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class CompactPolynomialKernel:
    """Polynomial kernel on [-1, 1] with vanishing moments 1..order.

    Built from the orthonormal Legendre system: K = sum_l p_l(0) p_l(x),
    which reproduces polynomials up to the given degree, hence integrates
    to 1 and kills moments 1..order exactly.  Signed for order >= 2.
    """

    json_tag = ("form", "compact_polynomial")
    order: int = 2
    coef: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("order must be >= 1")
        coef = np.zeros(self.order + 1)
        for ell in range(self.order + 1):
            basis = np.zeros(ell + 1)
            basis[ell] = math.sqrt((2 * ell + 1) / 2.0)  # orthonormal on [-1, 1]
            coef[:ell + 1] += legendre.legval(0.0, basis) * basis
        object.__setattr__(self, "coef", coef)

    @property
    def support_radius(self) -> float:
        return 1.0

    def __call__(self, z):
        z = np.asarray(z, dtype=np.float64)
        out = np.where(np.abs(z) <= 1.0, legendre.legval(z, self.coef), 0.0)
        return out if out.ndim else float(out)


KernelSpec = Union[GaussianKernel, CompactPolynomialKernel]


def kernel_moment(kernel: KernelSpec, k: int) -> float:
    """integral z^k K(z) dz by 400-point Gauss-Legendre quadrature on the
    support."""
    r = kernel.support_radius
    nodes, weights = np.polynomial.legendre.leggauss(400)
    z = nodes * r
    return float(np.sum(weights * r * (z ** k if k else 1.0) * kernel(z)))


# ---------------------------------------------------------------------------
# Bandwidth, threshold, grid rules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FixedBandwidth:
    json_tag = ("rule", "fixed")
    h: float

    def evaluate(self, n: int) -> float:
        return self.h


@dataclass(frozen=True)
class PowerBandwidth:
    """h = n ** exponent (reference choice: exponent = -1/3)."""

    json_tag = ("rule", "power")
    exponent: float = -1.0 / 3.0

    def evaluate(self, n: int) -> float:
        return float(n) ** self.exponent


@dataclass(frozen=True)
class SmoothnessBandwidth:
    """h = c0 * n ** (-1/(2s+1)) for smoothness s (squared-loss optimal)."""

    json_tag = ("rule", "smoothness")
    s: float
    c0: float = 1.0

    def evaluate(self, n: int) -> float:
        return self.c0 * float(n) ** (-1.0 / (2.0 * self.s + 1.0))


BandwidthRule = Union[FixedBandwidth, PowerBandwidth, SmoothnessBandwidth]


def bandwidth(rule: BandwidthRule, n: float) -> float:
    """Evaluate a bandwidth rule at sample size n (n >= 2 for the
    size-dependent rules; a fixed bandwidth works for any sample)."""
    if n < 2 and not isinstance(rule, FixedBandwidth):
        raise ValueError("size-dependent bandwidth rules need n >= 2")
    h = rule.evaluate(n)
    if h <= 0:
        raise ValueError("bandwidth must be positive")
    return h


@dataclass(frozen=True)
class InvLogThreshold:
    json_tag = ("rule", "inv_log")

    def evaluate(self, n: int) -> float:
        return 1.0 / math.log(n)


@dataclass(frozen=True)
class InvSqrtThreshold:
    json_tag = ("rule", "inv_sqrt")

    def evaluate(self, n: int) -> float:
        return float(n) ** -0.5


@dataclass(frozen=True)
class InvNThreshold:
    json_tag = ("rule", "inv_n")

    def evaluate(self, n: int) -> float:
        return 1.0 / float(n)


@dataclass(frozen=True)
class FixedThreshold:
    json_tag = ("rule", "fixed")
    value: float

    def evaluate(self, n: int) -> float:
        return self.value


ThresholdRule = Union[InvLogThreshold, InvSqrtThreshold, InvNThreshold,
                      FixedThreshold]


def threshold(rule: ThresholdRule, n: float) -> float:
    """Evaluate a threshold rule at sample size n (n >= 2 for the
    size-dependent rules; a fixed floor works for any sample)."""
    if n < 2 and not isinstance(rule, FixedThreshold):
        raise ValueError("size-dependent threshold rules need n >= 2")
    w = rule.evaluate(n)
    if w <= 0:
        raise ValueError("threshold must be positive")
    return w


@dataclass(frozen=True)
class GridSpec:
    """Evaluation grid dx, 2 dx, ..., up to x_max; dx defaults to n^-1/2."""

    dx: Optional[float] = None
    x_max: float = 5.0

    def resolve(self, n: int) -> tuple[float, int]:
        dx = self.dx if self.dx is not None else float(n) ** -0.5
        if dx <= 0 or self.x_max <= dx:
            raise ValueError("need 0 < dx < x_max")
        return dx, int(math.floor(self.x_max / dx + 1e-9))


@dataclass(frozen=True)
class EstimatorConfig:
    kernel: KernelSpec = GaussianKernel()
    bandwidth_rule: BandwidthRule = PowerBandwidth()
    threshold_rule: ThresholdRule = InvLogThreshold()
    grid: GridSpec = GridSpec()

    def to_json_dict(self):
        return {"kernel": part_json(self.kernel),
                "bandwidth": part_json(self.bandwidth_rule),
                "threshold": part_json(self.threshold_rule),
                "grid": {"dx": self.grid.dx, "x_max": self.grid.x_max}}


# ---------------------------------------------------------------------------
# Core estimator pieces
# ---------------------------------------------------------------------------

def _grid_buckets(y: np.ndarray, x: np.ndarray, side: str) -> np.ndarray:
    """``np.searchsorted(y, x, side)`` for an ascending grid ``y``.

    Each bucket is guessed from the grid's first step and checked against
    its neighbours ``y[g - 1]`` and ``y[g]``; only the misses go through
    ``searchsorted``, so the result is exact for any ascending ``y`` and
    cheap for a uniform one.  Builds one guess array in place.
    """
    m = y.size
    step = y[1] - y[0] if m > 1 and y[1] > y[0] else 1.0
    guess = x - (y[0] if m else 0.0)
    guess /= step
    if side == "left":
        np.ceil(guess, out=guess)
    else:
        np.floor(guess, out=guess)
        guess += 1.0
    np.fmin(np.fmax(guess, 0.0, out=guess), m, out=guess)  # NaN to 0
    g = guess.astype(np.int64)
    del guess
    padded = np.concatenate(([-np.inf], y, [np.inf]))  # y[g - 1] is padded[g]
    below, above = ((np.less, np.greater_equal) if side == "left"
                    else (np.less_equal, np.greater))
    hit = below(padded[g], x)
    hit &= above(padded[1:][g], x)
    miss = np.flatnonzero(~hit)
    g[miss] = np.searchsorted(y, x[miss], side)
    return g


def _kernel_sums(sizes: np.ndarray, centers: np.ndarray, h: float,
                 kernel: KernelSpec) -> np.ndarray:
    """sum_i K((xi_ri - c)/h) per row r of ``sizes`` and center c
    (unnormalised): binned for the Gaussian, in any order of each row's
    sizes (:func:`_hot.row_kernel_sums`); exact per center for the
    polynomial kernel, whose jump at the support edge linear binning would
    smear, each row sorted whole and each center's window summed at
    once."""
    centers = np.atleast_1d(np.asarray(centers, dtype=np.float64))
    if isinstance(kernel, GaussianKernel):
        return _hot.row_kernel_sums(sizes, centers, h, kernel.radius,
                                    kernel._scale)
    reach = kernel.support_radius * h
    out = np.zeros((len(sizes), centers.size))
    for sums, row in zip(out, sizes):
        s = np.sort(row)
        lo = np.searchsorted(s, centers - reach, side="left")
        hi = np.searchsorted(s, centers + reach, side="right")
        for j in np.flatnonzero(hi > lo):
            sums[j] = float(np.sum(kernel((s[lo[j]:hi[j]] - centers[j]) / h)))
    return out


def kernel_density(obs: ObservationSet, y, h: float,
                   kernel: KernelSpec = GaussianKernel()):
    """n^-1 sum_i K_h(size_i - y) with K_h(z) = K(z/h)/h, clipped at 0.

    A signed higher-order kernel can produce small negative values; those are
    clipped (the full estimator records how often).
    """
    if h <= 0:
        raise ValueError("bandwidth must be positive")
    scalar = np.ndim(y) == 0
    vals = _kernel_sums(obs.size_birth[None], np.atleast_1d(y), h, kernel)[0]
    out = np.maximum(vals / (obs.n * h), 0.0)
    return float(out[0]) if scalar else out


def _coverage_sums(sizes: np.ndarray, y: np.ndarray, rate: np.ndarray,
                   upper) -> np.ndarray:
    """sum_i (1/rate_ri) 1{sizes_ri <= y <= upper_ri} per row r and
    ascending y; ``upper(i, s, v)`` gives upper at index i (sizes s, rates v).

    Cell i adds its weight in the bucket of the first y >= sizes_ri and
    takes it off in that of the first y > upper_ri; the rows' cumulative
    sums follow.  Cells go in memory order, ``curves.BLOCK`` at a time
    across rows, into :class:`_hot.ExactSums`, so each sum is exact until
    its one rounding: it equals ``math.fsum`` of its covering weights, in
    whatever order the cells come."""
    rows, n = sizes.shape
    m = y.size + 1
    sums = _hot.ExactSums(rows * m, 1.0 / rate.max(), 1.0 / rate.min(), n)
    for a in range(0, rows * n, curves.BLOCK):
        index = np.divmod(np.arange(a, min(a + curves.BLOCK, rows * n)), n)
        s, v = sizes[index], rate[index]
        base = m * index[0]
        sums.add(1.0 / v, _grid_buckets(y, s, "left") + base,
                 _grid_buckets(y, upper(index, s, v), "right") + base)
    return sums.rounded(m).reshape(rows, m)[:, :-1]


@dataclass(frozen=True)
class DivisionRateEstimate:
    """Estimated division-rate curve plus per-point diagnostics."""

    curve: CurveOnGrid
    nu_values: np.ndarray
    raw_denominator: np.ndarray
    clipped: np.ndarray
    h: float
    threshold_value: float
    n: int
    negative_density_points: int
    pooled: bool = False

    @property
    def y(self) -> np.ndarray:
        return self.curve.x

    @property
    def values(self) -> np.ndarray:
        return self.curve.values

    def report_dict(self):
        return {
            "n": self.n,
            "h": self.h,
            "threshold": self.threshold_value,
            "pooled": self.pooled,
            "grid": {"x0": self.curve.x0, "dx": self.curve.dx,
                     "points": len(self.curve)},
            "clipped_points": int(np.sum(self.clipped)),
            "negative_density_points": self.negative_density_points,
            "conditioned_fraction": float(np.mean(~self.clipped)),
        }


def evaluation_grid(dx: float, m: int) -> np.ndarray:
    """The canonical grid dx, 2 dx, ..., m dx (built exactly like
    CurveOnGrid.x so curves and their grids match bit for bit)."""
    return dx + dx * np.arange(m)


def _assemble(size_birth: np.ndarray, config: EstimatorConfig, cover,
              pooled: bool = False) -> list[DivisionRateEstimate]:
    """The estimates of the (R, n) samples ``size_birth`` on the config's
    grid y, each row's denominator the row of :func:`_coverage_sums` that
    ``cover(y)`` returns.  The rows share n, hence the bandwidth, floor and
    grid, and each sum takes them all in one pass."""
    n = size_birth.shape[1]
    h = bandwidth(config.bandwidth_rule, n)
    floor = threshold(config.threshold_rule, n)
    dx, m = config.grid.resolve(n)
    y = evaluation_grid(dx, m)
    raw_den = cover(y) / n
    dens_raw = _kernel_sums(size_birth, y / 2.0, h, config.kernel) / (n * h)
    negative = np.sum(dens_raw < 0, axis=1)
    dens = np.maximum(dens_raw, 0.0)
    values = 0.5 * y * dens / np.maximum(raw_den, floor)
    return [DivisionRateEstimate(
        curve=CurveOnGrid(float(y[0]), dx, v), nu_values=d,
        raw_denominator=raw, clipped=raw < floor, h=h, threshold_value=floor,
        n=n, negative_density_points=int(neg), pooled=pooled)
        for v, d, raw, neg in zip(values, dens, raw_den, negative)]


def estimate_rows(size_birth: np.ndarray, growth_rate: np.ndarray,
                  lifetime: np.ndarray,
                  config: EstimatorConfig = EstimatorConfig(),
                  pooled: bool = False) -> list[DivisionRateEstimate]:
    """One estimate per row of the (R, n) cell columns, variability-aware
    or, with ``pooled``, with each row's growth rates replaced by their
    mean in the denominator indicator and weight."""
    if pooled:
        growth_rate = np.array([[math.fsum(v) / v.size] for v in growth_rate])
    rate = np.broadcast_to(growth_rate, size_birth.shape)
    return _assemble(size_birth, config, lambda y: _coverage_sums(
        size_birth, y, rate, lambda i, s, v: s * np.exp(v * lifetime[i])),
        pooled)


def estimate_division_rate(obs: ObservationSet,
                           config: EstimatorConfig = EstimatorConfig()
                           ) -> DivisionRateEstimate:
    """Variability-aware estimate: each cell keeps its own growth rate."""
    return estimate_rows(obs.size_birth[None], obs.growth_rate[None],
                         obs.lifetime[None], config)[0]


def estimate_division_rate_pooled(obs: ObservationSet,
                                  config: EstimatorConfig = EstimatorConfig()
                                  ) -> DivisionRateEstimate:
    """Variability-ignoring control: every growth rate is replaced by the
    sample mean in the denominator indicator and weight."""
    return estimate_rows(obs.size_birth[None], obs.growth_rate[None],
                         obs.lifetime[None], config, pooled=True)[0]


def estimate_division_rate_parent_indexed(
        obs: ObservationSet, parent_size: np.ndarray,
        parent_growth: np.ndarray, child_size: np.ndarray,
        config: EstimatorConfig = EstimatorConfig()) -> DivisionRateEstimate:
    """Cross-check variant indexing the denominator by parent records.

    Uses (1/parent_rate) 1{parent_size <= y, child_size >= y/2} over the
    given parent-child pairs (one per non-root cell), normalised by the full
    observation count.  Agrees with the self-indexed estimate up to
    boundary-generation effects.
    """
    ps, pg, cs = (np.asarray(a, dtype=np.float64)[None]
                  for a in (parent_size, parent_growth, child_size))
    return _assemble(obs.size_birth[None], config, lambda y: _coverage_sums(
        ps, y, pg, lambda i, s, v: 2.0 * cs[i]))[0]


# ---------------------------------------------------------------------------
# Output formats
# ---------------------------------------------------------------------------

def write_estimate_tsv(estimate: DivisionRateEstimate, path) -> None:
    """Plot-ready TSV: y, b_hat, nu_hat, raw_denominator, clipped."""
    write_curve_tsv(path, {
        "y": estimate.y,
        "b_hat": estimate.values,
        "nu_hat": estimate.nu_values,
        "raw_denominator": estimate.raw_denominator,
        "clipped": estimate.clipped.astype(np.int64),
    })
