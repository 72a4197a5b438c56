"""Model parameterisation: division rate, growth-rate kernel, hazard machinery.

A cell of size ``x`` growing exponentially at rate ``v`` divides with hazard
``B(x e^{v t})`` at age ``t``.  The cumulative hazard

    F(x, v, t) = integral_0^t B(x e^{v s}) ds

drives every sampler: a lifetime is ``F^{-1}`` applied to a unit exponential.
With ``A(y) = integral^y B(s)/s ds``, ``F(x, v, t) = (A(x e^{vt}) - A(x)) / v``.
A power-law rate ``B(x) = c x^p`` has F and its inverse in closed form; a
tabulated rate integrates each linear segment exactly and inverts A segment
by segment (Devroye 1986, ch. 2).

Growth kernels describe how a child's exponential growth rate is drawn from
its parent's, conditioned to stay inside the admissible band
``[e_min, e_max]``; each kernel inverts that conditioned law, so a child's
rate costs one uniform (none for a Dirac kernel).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from typing import Optional, Union, get_args

import numpy as np

from . import _hot, streams
from .curves import part_json

HAZARD_TOL = 1e-10
DEFAULT_T_MAX = 1e4


class NonDivergentHazard(RuntimeError):
    """The cumulative hazard cannot reach the target.

    Signals a division rate too small at infinity for lifetimes to be
    almost-surely finite, such as a table vanishing beyond its grid.
    """


# ---------------------------------------------------------------------------
# Division rates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PowerLawRate:
    """Division rate B(x) = coefficient * x**exponent (both > 0)."""

    json_tag = ("form", "power_law")
    coefficient: float
    exponent: float

    def __post_init__(self):
        if not (0 < self.coefficient < math.inf and 0 < self.exponent < math.inf):
            raise ValueError("power-law coefficient and exponent must be finite, > 0")

    def __call__(self, x):
        x = np.asarray(x, dtype=np.float64)
        out = self.coefficient * np.power(x, self.exponent)
        return out if out.ndim else float(out)

    def log_antiderivative(self, y):
        """A(y) = integral_0^y B(s)/s ds = c y^p / p."""
        y = np.asarray(y, dtype=np.float64)
        return self.coefficient * y ** self.exponent / self.exponent

    def cumulative_hazard(self, x, v, t):
        # integral_0^t c (x e^{vs})^p ds = c x^p (e^{pvt} - 1) / (pv)
        x = np.asarray(x, dtype=np.float64)
        v = np.asarray(v, dtype=np.float64)
        t = np.asarray(t, dtype=np.float64)
        p = self.exponent
        out = self.coefficient * np.power(x, p) * np.expm1(p * v * t) / (p * v)
        return out if out.ndim else float(out)

    def invert_hazard(self, x, v, e):
        x = np.asarray(x, dtype=np.float64)
        v = np.asarray(v, dtype=np.float64)
        e = np.asarray(e, dtype=np.float64)
        p = self.exponent
        out = np.log1p(p * v * e / (self.coefficient * np.power(x, p))) / (p * v)
        return out if out.ndim else float(out)


def _linear_mass_root(f, slope, r):
    """The s >= 0 at which a linear density f + slope s has mass r on
    [0, s]: the root of f s + slope s^2 / 2 = r, without cancellation."""
    den = f + np.sqrt(np.maximum(f * f + 2.0 * slope * r, 0.0))
    return np.divide(2.0 * r, den, out=np.zeros_like(r), where=den > 0)


def _linear_log_mass(f, bg, q):
    """integral_g^{g (1 + q)} B(s)/s ds for B linear there, B(g) = f with
    slope b and bg = b g: f log1p(q) + b g (q - log1p(q)), the difference
    by its series q^2 (1/2 - q/3 + ...) for q < 1e-2, so that nothing
    cancels on narrow, steep segments far from the origin."""
    log1p = np.log1p(q)
    terms = [(-1.0) ** j / (j + 2) for j in range(8, -1, -1)]  # to q^10
    return f * log1p + bg * np.where(q < 1e-2, q * q * np.polyval(terms, q),
                                     q - log1p)


def _by_value(cls):
    """``==`` and hash by value for a frozen dataclass with ndarray fields,
    whose generated ones would compare or hash the arrays themselves."""
    def key(self):
        return tuple(tuple(v.tolist()) if isinstance(v, np.ndarray) else v
                     for v in (getattr(self, f.name) for f in fields(self)))
    cls.__eq__ = lambda self, other: (key(self) == key(other) if type(other)
                                      is type(self) else NotImplemented)
    cls.__hash__ = lambda self: hash(key(self))
    return cls


@_by_value
@dataclass(frozen=True)
class TabulatedRate:
    """Piecewise-linear division rate on an increasing grid.

    Evaluation outside the grid clamps to the boundary value; this keeps the
    hazard monotone and bounded on the sampling range.
    """

    json_tag = ("form", "tabulated")
    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=np.float64)
        values = np.asarray(self.values, dtype=np.float64)
        if grid.ndim != 1 or grid.size < 2:
            raise ValueError("tabulated rate needs at least two grid points")
        if not (grid[0] > 0 and np.all(np.diff(grid) > 0) and grid[-1] < math.inf):
            raise ValueError("grid must be finite, strictly increasing and positive")
        if values.shape != grid.shape or not np.all((values >= 0) & (values < math.inf)):
            raise ValueError("values must be finite, nonnegative, one per grid point")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        # (nodes, B there, slope b, b times the node, knots[j] = A(nodes[j]))
        # of the linear segments: the grid, each segment wider than a factor
        # 2 cut geometrically so that Newton in invert_hazard starts close.
        cuts = np.ceil(np.log2(grid[1:] / grid[:-1])).astype(np.int64)
        seg = np.repeat(np.arange(grid.size - 1), cuts)
        k = np.arange(seg.size) - np.repeat(np.cumsum(cuts) - cuts, cuts)
        nodes = np.append(grid[seg] * (grid[seg + 1] / grid[seg]) ** (k / cuts[seg]),
                          grid[-1])
        val = np.interp(nodes, grid, values)
        b = (np.diff(values) / np.diff(grid))[seg]
        bg = b * nodes[:-1]
        knots = np.concatenate([[0.0], np.cumsum(_linear_log_mass(
            val[:-1], bg, np.diff(nodes) / nodes[:-1]))])
        object.__setattr__(self, "_segments", (nodes, val, b, bg, knots))

    def __call__(self, x):
        x = np.asarray(x, dtype=np.float64)
        out = np.interp(x, self.grid, self.values)  # np.interp clamps
        return out if out.ndim else float(out)

    def log_antiderivative(self, y):
        """A(y) = integral_{grid[0]}^{y} B(s)/s ds: the knot below y plus
        the segment's :func:`_linear_log_mass`, and the clamped constant
        times log s off the grid."""
        nodes, val, _, bg, knots = self._segments
        y = np.asarray(y, dtype=np.float64)
        i = np.clip(np.searchsorted(nodes, y, side="right") - 1, 0, nodes.size - 2)
        with np.errstate(divide="ignore", invalid="ignore"):
            inside = knots[i] + _linear_log_mass(val[i], bg[i],
                                                 (y - nodes[i]) / nodes[i])
            below = val[0] * np.log(y / nodes[0]) if val[0] > 0 else 0.0
            above = knots[-1] + val[-1] * np.log(y / nodes[-1])
        return np.where(y < nodes[0], below, np.where(y >= nodes[-1], above, inside))

    def cumulative_hazard(self, x, v, t):
        x, v, t = (np.asarray(a, dtype=np.float64) for a in (x, v, t))
        # past the grid A grows as B(g_last) log y: add that tail in log
        # form, since the grown size overflows for long ages
        with np.errstate(over="ignore"):
            top = np.minimum(x * np.exp(v * t), self.grid[-1])
        tail = self.values[-1] * np.maximum(np.log(x / self.grid[-1]) + v * t, 0.0)
        out = (self.log_antiderivative(top) + tail - self.log_antiderivative(x)) / v
        out = np.where(t <= 0, 0.0, out)
        return out if out.ndim else float(out)

    def invert_hazard(self, x, v, e):
        """The age t at which F(x, v, t) = e, by solving
        A(x e^{vt}) = A(x) + v e for the division size y = x e^{vt}."""
        x, v, e = (np.asarray(a, dtype=np.float64) for a in (x, v, e))
        nodes, val, b, bg, knots = self._segments
        target = self.log_antiderivative(x) + v * e
        if val[-1] == 0 and np.any(target >= knots[-1]):
            raise NonDivergentHazard("cumulative hazard stays below the "
                                     "target: B vanishes beyond the grid")
        # Newton on the mass w = integral_{y_j}^y B past node y_j: A is concave
        # in w with slope 1/y, so from w = r y_j the iterates rise to the root.
        j = np.clip(np.searchsorted(knots, target, "right") - 1, 0, nodes.size - 2)
        y_j, f_j, b, bg = nodes[j], val[j], b[j], bg[j]
        r = np.clip(target - knots[j], 0.0, knots[j + 1] - knots[j])
        w = r * y_j
        for _ in range(6):
            y = y_j + _linear_mass_root(f_j, b, w)
            w = w + (r - _linear_log_mass(f_j, bg, (y - y_j) / y_j)) * y
        y = y_j + _linear_mass_root(f_j, b, w)
        with np.errstate(divide="ignore", invalid="ignore"):
            log_y = np.where(  # the clamped tails in closed form
                target < 0, np.log(nodes[0]) + target / val[0],
                np.where(target >= knots[-1],
                         np.log(nodes[-1]) + (target - knots[-1]) / val[-1],
                         np.log(y)))
        # rounding in A can leave y a hair below x when v e is tiny
        t = np.maximum(log_y - np.log(x), 0.0) / v
        # beyond HAZARD_TOL, allow the B(y) dt by which F moves for the dt of
        # four roundings of log x, log y and y = x e^{vt} (steep segments)
        with np.errstate(over="ignore"):
            slack = self(x * np.exp(v * t)) * (4 * np.finfo(float).eps / v) * (
                1.0 + np.abs(np.log(x)) + np.abs(log_y))
        if np.any(np.abs(self.cumulative_hazard(x, v, t) - e)
                  > HAZARD_TOL * np.maximum(1.0, e) + slack):
            raise NonDivergentHazard("hazard inversion did not meet tolerance")
        return t if t.ndim else float(t)


DivisionRate = Union[PowerLawRate, TabulatedRate]


def cumulative_hazard(rate: DivisionRate, x, v, t):
    """F(x, v, t) = integral_0^t B(x e^{v s}) ds."""
    return rate.cumulative_hazard(x, v, t)


def sample_lifetimes_keyed(rate: DivisionRate, node_keys: np.ndarray,
                           x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """One lifetime per node: the inverse hazard of the unit exponential
    ``-log(u)``, with ``u`` from the node's lifetime stream.

    Closed form for power-law rates; segment-wise inversion of the
    tabulated antiderivative otherwise.
    """
    u = streams.draw_uniform(node_keys, streams.STREAM_LIFETIME, 0)
    if isinstance(rate, PowerLawRate):
        return _hot.powerlaw_lifetimes(u, x, v, rate.coefficient,
                                       rate.exponent)
    return np.asarray(rate.invert_hazard(x, v, -np.log(u)))


def _interval_max(rate: DivisionRate, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Upper bound of B on [lo, hi] per lane (tight for both rate forms)."""
    if isinstance(rate, PowerLawRate):
        return rate(hi)  # increasing
    ends = np.maximum(rate(lo), rate(hi))
    g, val = rate.grid, rate.values
    inside = (g[None, :] > lo[:, None]) & (g[None, :] < hi[:, None])
    knots = np.where(inside, val[None, :], -np.inf).max(axis=1)
    return np.maximum(ends, knots)


def sample_lifetimes_rejection(rate: DivisionRate, x: float, v: float,
                               rng: np.random.Generator, size: int,
                               t_max: float = DEFAULT_T_MAX) -> np.ndarray:
    """Lifetimes by thinning the age-dependent division intensity.

    The division age has hazard lambda(t) = B(x e^{v t}).  On a window
    [t, t + w] the hazard is bounded by the maximum of B over the size range
    the cell sweeps; candidate events are drawn from the homogeneous bound
    and accepted with probability lambda/bound.  Kept as an independent
    implementation for distributional cross-checks of the keyed inverse
    sampler, :func:`sample_lifetimes_keyed`.
    """
    x = float(x)
    v = float(v)
    window = math.log(1.5) / v  # sizes grow by 1.5x per window
    t = np.zeros(size)
    done = np.zeros(size, dtype=bool)
    out = np.empty(size)
    while not done.all():
        act = ~done
        t_act = t[act]
        with np.errstate(over="ignore"):
            lo = x * np.exp(v * t_act)
            hi = lo * np.exp(v * window)
        bound = _interval_max(rate, lo, hi)
        safe = np.where(bound > 0, bound, 1.0)
        gap = rng.standard_exponential(t_act.size) / safe
        gap = np.where(bound > 0, gap, np.inf)
        beyond = gap >= window
        cand = t_act + gap
        accept = ~beyond & (rng.random(t_act.size) * safe
                            <= rate(x * np.exp(v * cand)))
        idx = np.flatnonzero(act)
        out[idx[accept]] = cand[accept]
        done[idx[accept]] = True
        t_new = np.where(beyond, t_act + window, cand)
        t[idx[~accept]] = t_new[~accept]
        if np.any(t[~done] > t_max):
            raise NonDivergentHazard(
                f"no division event within t_max={t_max}")
    return out


# ---------------------------------------------------------------------------
# Growth-rate kernels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GrowthBounds:
    """Admissible band [e_min, e_max] for per-cell growth rates."""

    e_min: float
    e_max: float

    def __post_init__(self):
        if not (0 < self.e_min <= self.e_max < math.inf):
            raise ValueError("need 0 < e_min <= e_max < inf")

    def contains(self, v) -> np.ndarray:
        v = np.asarray(v)
        return (v >= self.e_min) & (v <= self.e_max)


@dataclass(frozen=True)
class DiracGrowth:
    """Every cell inherits the same fixed growth rate."""

    json_tag = ("form", "dirac")
    value: float
    bounds: GrowthBounds

    uniforms_per_attempt = 0  # uniforms per rate; perfbench/tracing.py reads it

    def __post_init__(self):
        if not self.bounds.contains(self.value):
            raise ValueError("Dirac growth value must lie in [e_min, e_max]")

    def quantile(self, v_parent, u):
        return np.full(np.shape(v_parent), self.value, dtype=np.float64)


@dataclass(frozen=True)
class UniformIncrementGrowth:
    """Child rate = parent rate + step, step ~ scale * Uniform[1-alpha, 1+alpha].

    ``scale`` is fixed so that the root-mean-square of the step (before
    conditioning on the band) equals ``rms``: since E[U^2] = 1 + alpha^2/3
    for U ~ Uniform[1-alpha, 1+alpha], scale = rms / sqrt(1 + alpha^2/3).
    ``alpha > 1`` is required so the conditioned step can be negative;
    otherwise a parent near e_max has no admissible child rate.
    """

    json_tag = ("form", "uniform_increment")
    alpha: float = 2.0
    rms: float = 0.5
    bounds: GrowthBounds = field(default=None)  # type: ignore[assignment]

    uniforms_per_attempt = 1  # read by perfbench/tracing.py

    def __post_init__(self):
        if not 1.0 < self.alpha < math.inf:
            raise ValueError("alpha must be finite and > 1 so a step can move down")
        if not 0 < self.rms < math.inf:
            raise ValueError("rms must be finite and positive")
        if self.bounds is None:
            raise ValueError("bounds are required")
        if self.bounds.e_min == self.bounds.e_max:  # hit with probability 0
            raise ValueError("a continuous increment needs e_min < e_max")

    @property
    def scale(self) -> float:
        return self.rms / math.sqrt(1.0 + self.alpha ** 2 / 3.0)

    def step_support(self) -> tuple[float, float]:
        c = self.scale
        return c * (1.0 - self.alpha), c * (1.0 + self.alpha)

    def quantile(self, v_parent, u):
        lo, hi = self.step_support()
        left = np.maximum(self.bounds.e_min, np.asarray(v_parent) + lo)
        right = np.minimum(self.bounds.e_max, np.asarray(v_parent) + hi)
        out = left + (right - left) * u
        return np.minimum(out, right, out=out)

    def step_density(self, w) -> np.ndarray:
        lo, hi = self.step_support()
        w = np.asarray(w, dtype=np.float64)
        return np.where((w >= lo) & (w <= hi), 1.0 / (hi - lo), 0.0)

    def conditioned_density(self, v, w_child) -> np.ndarray:
        """Density of the child rate given parent ``v``, after conditioning."""
        lo, hi = self.step_support()
        b = self.bounds
        mass = (np.minimum(b.e_max, np.asarray(v) + hi)
                - np.maximum(b.e_min, np.asarray(v) + lo))
        if np.any(mass <= 0):
            raise ValueError("kernel has no mass inside the bounds")
        dens = self.step_density(np.asarray(w_child) - np.asarray(v))
        inside = GrowthBounds.contains(b, w_child)
        return np.where(inside, dens, 0.0) * (hi - lo) / mass


@dataclass(frozen=True)
class GaussianIncrementGrowth:
    """Child rate = parent rate + Normal(0, std^2) step, conditioned to the band."""

    json_tag = ("form", "gaussian_increment")
    std: float
    bounds: GrowthBounds

    uniforms_per_attempt = 1  # read by perfbench/tracing.py

    def __post_init__(self):
        if not 0 < self.std < math.inf:
            raise ValueError("std must be finite and positive")
        if self.bounds.e_min == self.bounds.e_max:  # hit with probability 0
            raise ValueError("a continuous increment needs e_min < e_max")

    def quantile(self, v_parent, u):
        """The truncated normal inverted in the tail that holds ``u``: ndtr
        below 1/2, else ndtr(-.) on the mirrored band at the exact 1 - u;
        the clip only absorbs rounding and the top level u = 1."""
        from scipy.special import ndtr, ndtri  # lazy: ~0.3 s of CLI start-up
        b, v = self.bounds, v_parent
        lo, hi = (b.e_min - v) / self.std, (b.e_max - v) / self.std
        lower = u < 0.5
        p_lo, p_hi = ndtr(np.where(lower, [lo, hi], [-hi, -lo]))
        z = ndtri(p_lo + np.where(lower, u, 1.0 - u) * (p_hi - p_lo))
        return np.clip(v + self.std * np.where(lower, z, -z), b.e_min, b.e_max)

    def conditioned_density(self, v, w_child) -> np.ndarray:
        from scipy.special import ndtr
        b = self.bounds
        v = np.asarray(v, dtype=np.float64)
        z = (np.asarray(w_child) - v) / self.std
        mass = ndtr((b.e_max - v) / self.std) - ndtr((b.e_min - v) / self.std)
        dens = np.exp(-0.5 * z ** 2) / (self.std * math.sqrt(2 * math.pi))
        inside = GrowthBounds.contains(b, w_child)
        return np.where(inside, dens, 0.0) / mass


@_by_value
@dataclass(frozen=True)
class IndependentResampleGrowth:
    """Child rate drawn afresh from a tabulated density on the band,
    independent of the parent."""

    json_tag = ("form", "independent_resample")
    grid: np.ndarray
    density: np.ndarray
    bounds: GrowthBounds = field(default=None)  # type: ignore[assignment]

    uniforms_per_attempt = 1  # read by perfbench/tracing.py

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=np.float64)
        dens = np.asarray(self.density, dtype=np.float64)
        if grid.ndim != 1 or grid.size < 2 or np.any(np.diff(grid) <= 0) \
                or not np.all(np.isfinite(grid)):
            raise ValueError("density grid must be finite and increasing")
        if not np.all((dens >= 0) & (dens < math.inf)) or not np.any(dens > 0):
            raise ValueError("density must be finite, nonnegative and not all zero")
        if self.bounds is None:
            raise ValueError("bounds are required")
        b = self.bounds
        if b.e_min == b.e_max:  # every child rate is e_min
            inside = np.interp(b.e_min, grid, dens, left=0.0, right=0.0)
        else:  # exact when piecewise linear; <= 0 if the band misses the grid
            lo, hi = max(b.e_min, grid[0]), min(b.e_max, grid[-1])
            nodes = np.concatenate(([lo], grid[(grid > lo) & (grid < hi)], [hi]))
            at = np.interp(nodes, grid, dens)
            seg = np.diff(nodes) * (at[:-1] + at[1:]) / 2.0
            inside, keep = seg.sum(), seg > 0
            # per positive-mass segment: start, density, slope, CDF at start
            object.__setattr__(self, "_knots", (
                nodes[:-1][keep], at[:-1][keep],
                np.diff(at)[keep] / np.diff(nodes)[keep],
                np.concatenate(([0.0], np.cumsum(seg)[keep][:-1])), inside))
        if not inside > 0:  # no child rate could be drawn
            raise ValueError("the resample density has no mass in the band")
        norm = np.trapezoid(dens, grid)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "density", dens / norm)
        object.__setattr__(self, "_band_mass", inside / norm)

    def quantile(self, v_parent, u):
        """The piecewise-quadratic band CDF inverted: the segment holding
        level ``u``, then the root of f0 t + slope t^2 / 2 = r, stably."""
        if self.bounds.e_min == self.bounds.e_max:
            return np.full(np.shape(u), self.bounds.e_min)
        x0, f0, slope, start, total = self._knots
        target = u * total
        i = np.searchsorted(start, target, side="right") - 1
        t = _linear_mass_root(f0[i], slope[i], target - start[i])
        return np.clip(x0[i] + t, self.bounds.e_min, self.bounds.e_max)

    def conditioned_density(self, v, w_child) -> np.ndarray:
        inside = GrowthBounds.contains(self.bounds, w_child)
        dens = np.interp(w_child, self.grid, self.density, left=0.0, right=0.0)
        return np.where(inside, dens, 0.0) / self._band_mass


GrowthKernel = Union[DiracGrowth, UniformIncrementGrowth,
                     GaussianIncrementGrowth, IndependentResampleGrowth]


def sample_growth_rates_keyed(kernel: GrowthKernel, v_parent: np.ndarray,
                              node_keys: np.ndarray, stream: int) -> np.ndarray:
    """Child growth rates from kernel(v_parent, .) conditioned to the band,
    by inversion: node i's rate is the kernel's conditioned quantile at the
    uniform (node_keys[i], stream, 0).  A Dirac kernel draws nothing."""
    u = (streams.draw_uniform(node_keys, stream, 0)
         if kernel.uniforms_per_attempt else None)
    return kernel.quantile(np.asarray(v_parent, dtype=np.float64), u)


# ---------------------------------------------------------------------------
# Initial condition and full model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PointStart:
    """Every root starts at growth rate ``value``; draws no uniform."""

    json_tag = ("form", "point")
    value: float

    def support(self, bounds: GrowthBounds) -> tuple[float, float]:
        return self.value, self.value

    def draw(self, keys: np.ndarray, bounds: GrowthBounds) -> np.ndarray:
        return np.full(keys.size, float(self.value))


@dataclass(frozen=True)
class UniformStart:
    """Root growth rate uniform on [low, high]; an edge left None is the
    band's."""

    json_tag = ("form", "uniform")
    low: Optional[float] = None
    high: Optional[float] = None

    def support(self, bounds: GrowthBounds) -> tuple[float, float]:
        return (bounds.e_min if self.low is None else self.low,
                bounds.e_max if self.high is None else self.high)

    def draw(self, keys: np.ndarray, bounds: GrowthBounds) -> np.ndarray:
        lo, hi = self.support(bounds)
        return lo + (hi - lo) * streams.draw_uniform(
            keys, streams.STREAM_INITIAL_GROWTH, 0)


InitialGrowth = Union[PointStart, UniformStart]


@dataclass(frozen=True)
class InitialDistribution:
    """Root law: size ~ Uniform[size_low, size_high] (degenerate allowed),
    growth rate by its ``growth`` part."""

    size_low: float
    size_high: float
    growth: InitialGrowth = UniformStart()

    def __post_init__(self):
        if not (0 < self.size_low <= self.size_high < math.inf):
            raise ValueError("initial sizes must satisfy 0 < low <= high < inf")


@dataclass(frozen=True)
class ModelSpec:
    """Complete parameterisation of the branching dynamics."""

    division_rate: DivisionRate
    growth_kernel: GrowthKernel
    bounds: GrowthBounds
    initial: InitialDistribution

    def __post_init__(self):
        if self.growth_kernel.bounds != self.bounds:
            raise ValueError("growth kernel bounds must match the model bounds")
        lo, hi = self.initial.growth.support(self.bounds)
        if not (self.bounds.e_min <= lo <= hi <= self.bounds.e_max):
            raise ValueError("initial growth outside [e_min, e_max]")

    def to_json(self) -> str:
        init = self.initial
        doc = {"division_rate": part_json(self.division_rate),
               "growth_kernel": part_json(self.growth_kernel),
               "bounds": asdict(self.bounds),
               "initial": {"growth": part_json(init.growth), "size": {
                   "low": init.size_low, "high": init.size_high}}}
        return json.dumps(doc, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "ModelSpec":
        doc = _known(json.loads(text), "model", (
            "division_rate", "growth_kernel", "bounds", "initial"))
        bounds = GrowthBounds(**doc["bounds"])
        rate = _part(doc["division_rate"], DivisionRate, "division rate")
        kernel = _part(doc["growth_kernel"], GrowthKernel, "growth kernel",
                       bounds=bounds)
        init = _known(doc["initial"], "initial", ("size", "growth"))
        size = _known(init["size"], "initial size", ("low", "high"))
        growth = _part(init.get("growth", {"form": "uniform"}), InitialGrowth,
                       "initial growth")
        return ModelSpec(rate, kernel, bounds, InitialDistribution(
            size["low"], size["high"], growth))


def _known(doc: dict, what: str, keys) -> dict:
    """``doc``, refused if it holds a key outside ``keys``."""
    unknown = sorted(set(doc) - set(keys))
    if unknown:
        raise ValueError(f"unknown {what} key {unknown[0]!r}")
    return doc


def _part(doc: dict, kinds, what: str, **bounds):
    """The part among the classes of the ``Union`` ``kinds`` whose tag is
    ``doc``'s form, built from ``doc``'s other keys (and ``bounds``)."""
    doc = dict(doc)
    form = doc.pop("form")
    by_form = {cls.json_tag[1]: cls for cls in get_args(kinds)}
    if form not in by_form:
        raise ValueError(f"unknown {what} form {form!r}")
    return by_form[form](**doc, **bounds)


def reference_model(growth: str = "uniform_increment") -> ModelSpec:
    """The reference configuration used throughout the numerical studies:
    B(x) = x^2, band [0.2, 3], root size uniform on [1/3, 3].

    The uniform-increment kernel uses a large alpha, which makes the scaled
    step nearly centred: growth rates then spread across the band instead of
    piling against e_max, keeping 1/rate averages (the estimator's
    denominator scale) of order one.
    """
    bounds = GrowthBounds(0.2, 3.0)
    kernels = {
        "uniform_increment": UniformIncrementGrowth(20.0, 0.5, bounds),
        "dirac": DiracGrowth(1.0, bounds),
        "gaussian_increment": GaussianIncrementGrowth(0.5, bounds),
    }
    if growth not in kernels:
        raise ValueError(f"unknown reference growth kernel {growth!r}")
    start = PointStart(1.0) if growth == "dirac" else UniformStart()
    initial = InitialDistribution(1.0 / 3.0, 3.0, start)
    return ModelSpec(PowerLawRate(1.0, 2.0), kernels[growth], bounds, initial)


# ---------------------------------------------------------------------------
# Admissibility class and its contraction proxy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassParams:
    """Constants (lam; r, m, ell, L) delimiting the admissible rate class:
    controlled mass of x^-1 B(2x) near the origin and a power-law floor
    m x^lam beyond r."""

    lam: float
    r: float
    m: float
    ell: float
    L: float

    def __post_init__(self):
        for name in ("lam", "r", "m", "ell", "L"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")


def contraction_coefficient(params: ClassParams, bounds: GrowthBounds) -> float:
    """delta = (1 - 2^-lam)^-1 exp(-(1 - 2^-lam) m r^lam / (e_max lam)).

    Below 1 the size chain satisfies a geometric drift condition off a
    small set; below 1/2 whole-tree averages also concentrate.
    """
    lam = params.lam
    a = 1.0 - 2.0 ** (-lam)
    return math.exp(-a * params.m * params.r ** lam / (bounds.e_max * lam)) / a


def _halved_rate_log_integral(rate: DivisionRate, a: float, b: float) -> float:
    """integral_a^b x^-1 B(2x) dx = A(2b) - A(2a), exact for both rate forms."""
    return float(rate.log_antiderivative(2.0 * b) - rate.log_antiderivative(2.0 * a))


@dataclass(frozen=True)
class ClassReport:
    """Outcome of the admissibility check; field-by-field pass/fail."""

    near_origin_integral: float
    near_origin_ok: bool
    lower_integral: float
    lower_ok: bool
    power_floor_min: float
    power_floor_ok: bool
    delta: float
    delta_ok: bool
    mode: str
    spectral_radius_verified: bool = False  # no constructive check exists

    @property
    def all_ok(self) -> bool:
        return (self.near_origin_ok and self.lower_ok
                and self.power_floor_ok and self.delta_ok)

    def to_json_dict(self):
        return {**asdict(self), "all_ok": self.all_ok}


def check_class_membership(params: ClassParams, rate: DivisionRate,
                           bounds: GrowthBounds,
                           mode: str = "sparse") -> ClassReport:
    """Check the rate against the admissibility class and the contraction
    proxy (threshold 1 for the sparse scheme, 1/2 for the full scheme).

    The power-law floor is checked as the minimum of B(x)/x^lam over a log
    grid on [r, max(50, 2 r)].  The spectral-radius side condition of the full
    scheme has no constructive evaluation and is only flagged.
    """
    if mode not in ("sparse", "full"):
        raise ValueError("mode must be 'sparse' or 'full'")
    r = params.r
    i0 = _halved_rate_log_integral(rate, 0.0, r / 2.0)
    i1 = _halved_rate_log_integral(rate, r / 2.0, r)
    xs = np.geomspace(r, max(50.0, 2 * r), 512)
    floor = float(np.min(rate(xs) / xs ** params.lam))
    delta = contraction_coefficient(params, bounds)
    threshold = 1.0 if mode == "sparse" else 0.5
    return ClassReport(
        near_origin_integral=i0, near_origin_ok=bool(i0 <= params.L),
        lower_integral=i1, lower_ok=bool(i1 >= params.ell),
        power_floor_min=floor, power_floor_ok=bool(floor >= params.m),
        delta=delta, delta_ok=bool(delta < threshold), mode=mode)


def reference_class_params() -> ClassParams:
    """Class constants under which the reference rate x^2 passes the
    full-scheme check with band [0.2, 3]."""
    return ClassParams(lam=2.0, r=3.0, m=1.0, ell=1.0, L=5.0)
