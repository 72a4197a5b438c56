"""Model parameterisation: division rate, growth-rate kernel, hazard machinery.

A cell of size ``x`` growing exponentially at rate ``v`` divides with hazard
``B(x e^{v t})`` at age ``t``.  The cumulative hazard

    F(x, v, t) = integral_0^t B(x e^{v s}) ds

drives every sampler: a lifetime is ``F^{-1}`` applied to a unit exponential.
For a power-law rate ``B(x) = c x^p`` both the hazard and its inverse are in
closed form; tabulated rates use exact piecewise-segment integration of the
substituted integral ``(1/v) * integral_x^{x e^{vt}} B(y)/y dy`` and a
bisection/Newton inverse.

Growth kernels describe how a child's exponential growth rate is drawn from
its parent's; every draw is conditioned to stay inside the admissible band
``[e_min, e_max]`` by rejection.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from . import _hot, streams

HAZARD_TOL = 1e-10
DEFAULT_T_MAX = 1e4
REJECTION_CAP = 10 ** 6


class NonDivergentHazard(RuntimeError):
    """The cumulative hazard failed to reach the target within t_max.

    Signals a division rate too small at infinity for lifetimes to be
    almost-surely finite on the guarded range.
    """


class RejectionBudgetExceeded(RuntimeError):
    """Growth-rate rejection sampling ran out of attempts.

    Signals a kernel/bounds mismatch: the proposal mass inside
    [e_min, e_max] is (nearly) zero for some parent rate.
    """


# ---------------------------------------------------------------------------
# Division rates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PowerLawRate:
    """Division rate B(x) = coefficient * x**exponent (both > 0)."""

    coefficient: float
    exponent: float

    def __post_init__(self):
        if self.coefficient <= 0 or self.exponent <= 0:
            raise ValueError("power-law rate needs positive coefficient and exponent")

    def __call__(self, x):
        x = np.asarray(x, dtype=np.float64)
        out = self.coefficient * np.power(x, self.exponent)
        return out if out.ndim else float(out)

    def cumulative_hazard(self, x, v, t):
        # integral_0^t c (x e^{vs})^p ds = c x^p (e^{pvt} - 1) / (pv)
        x = np.asarray(x, dtype=np.float64)
        v = np.asarray(v, dtype=np.float64)
        t = np.asarray(t, dtype=np.float64)
        p = self.exponent
        out = self.coefficient * np.power(x, p) * np.expm1(p * v * t) / (p * v)
        return out if out.ndim else float(out)

    def invert_hazard(self, x, v, e, t_max=DEFAULT_T_MAX):
        x = np.asarray(x, dtype=np.float64)
        v = np.asarray(v, dtype=np.float64)
        e = np.asarray(e, dtype=np.float64)
        p = self.exponent
        out = np.log1p(p * v * e / (self.coefficient * np.power(x, p))) / (p * v)
        return out if out.ndim else float(out)

    def to_json_dict(self):
        return {"form": "power_law", "coefficient": self.coefficient,
                "exponent": self.exponent}


@dataclass(frozen=True)
class TabulatedRate:
    """Piecewise-linear division rate on an increasing grid.

    Evaluation outside the grid clamps to the boundary value; this keeps the
    hazard monotone and bounded on the sampling range.
    """

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=np.float64)
        values = np.asarray(self.values, dtype=np.float64)
        if grid.ndim != 1 or grid.size < 2:
            raise ValueError("tabulated rate needs at least two grid points")
        if np.any(np.diff(grid) <= 0) or grid[0] <= 0:
            raise ValueError("grid must be strictly increasing and positive")
        if values.shape != grid.shape or np.any(values < 0):
            raise ValueError("values must be nonnegative, one per grid point")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    def __call__(self, x):
        x = np.asarray(x, dtype=np.float64)
        out = np.interp(x, self.grid, self.values)  # np.interp clamps
        return out if out.ndim else float(out)

    def _log_weighted_antiderivative(self, y):
        """A(y) = integral_{grid[0]}^{y} B(s)/s ds, exact per linear segment.

        On a segment where B(s) = a + b s the antiderivative is
        a log s + b s; outside the grid B is the clamped constant.
        """
        g, val = self.grid, self.values
        seg_b = np.diff(val) / np.diff(g)
        seg_a = val[:-1] - seg_b * g[:-1]
        # knots[i] = A(g[i])
        seg_full = (seg_a * np.log(g[1:] / g[:-1]) + seg_b * np.diff(g))
        knots = np.concatenate([[0.0], np.cumsum(seg_full)])

        y = np.asarray(y, dtype=np.float64)
        idx = np.clip(np.searchsorted(g, y, side="right") - 1, 0, g.size - 2)
        below = y < g[0]
        above = y >= g[-1]
        mid = ~(below | above)

        out = np.empty_like(y)
        if np.any(mid):
            i = idx[mid]
            out[mid] = knots[i] + seg_a[i] * np.log(y[mid] / g[i]) \
                + seg_b[i] * (y[mid] - g[i])
        if np.any(below):
            with np.errstate(divide="ignore"):
                out[below] = val[0] * np.log(y[below] / g[0])
        if np.any(above):
            out[above] = knots[-1] + val[-1] * np.log(y[above] / g[-1])
        return out

    def cumulative_hazard(self, x, v, t):
        x, v, t = np.broadcast_arrays(
            np.asarray(x, dtype=np.float64),
            np.asarray(v, dtype=np.float64),
            np.asarray(t, dtype=np.float64))
        scalar = x.ndim == 0
        x, v, t = np.atleast_1d(x), np.atleast_1d(v), np.atleast_1d(t)
        # compute the grown size in log form: it would overflow for the
        # large bracketing times the inverse probes
        log_top = np.log(x) + v * t
        g_hi = self.grid[-1]
        above = log_top > np.log(g_hi)
        top = np.exp(np.where(above, 0.0, log_top))
        anti_top = np.where(
            above,
            self._log_weighted_antiderivative(np.full_like(top, g_hi))
            + self.values[-1] * (log_top - np.log(g_hi)),
            self._log_weighted_antiderivative(top))
        out = (anti_top - self._log_weighted_antiderivative(x)) / v
        out = np.where(t <= 0, 0.0, out)
        return float(out[0]) if scalar else out

    def invert_hazard(self, x, v, e, t_max=DEFAULT_T_MAX):
        x, v, e = np.broadcast_arrays(
            np.asarray(x, dtype=np.float64),
            np.asarray(v, dtype=np.float64),
            np.asarray(e, dtype=np.float64))
        scalar = x.ndim == 0
        x, v, e = np.atleast_1d(x), np.atleast_1d(v), np.atleast_1d(e)

        # Bracket by doubling, then bisect; polish with guarded Newton.
        hi = np.full(x.shape, 1.0)
        for _ in range(64):
            short = self.cumulative_hazard(x, v, hi) < e
            if not np.any(short):
                break
            hi = np.where(short & (hi < t_max), np.minimum(hi * 2.0, t_max), hi)
            if np.all(hi >= t_max):
                break
        if np.any(self.cumulative_hazard(x, v, np.full(x.shape, t_max)) < e):
            raise NonDivergentHazard(
                f"cumulative hazard below target within t_max={t_max}")

        lo = np.zeros_like(hi)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            under = self.cumulative_hazard(x, v, mid) < e
            lo = np.where(under, mid, lo)
            hi = np.where(under, hi, mid)
        t = 0.5 * (lo + hi)
        for _ in range(4):
            f = self.cumulative_hazard(x, v, t) - e
            slope = self(x * np.exp(v * t))
            step = np.where(slope > 0, f / np.where(slope > 0, slope, 1.0), 0.0)
            t = np.clip(t - step, lo, hi)
        if np.any(np.abs(self.cumulative_hazard(x, v, t) - e)
                  > HAZARD_TOL * np.maximum(1.0, e)):
            raise NonDivergentHazard("hazard inversion did not meet tolerance")
        return float(t[0]) if scalar else t

    def to_json_dict(self):
        return {"form": "tabulated", "grid": self.grid.tolist(),
                "values": self.values.tolist()}


DivisionRate = Union[PowerLawRate, TabulatedRate]


def eval_division_rate(rate: DivisionRate, x):
    """B(x) for x >= 0."""
    return rate(x)


def cumulative_hazard(rate: DivisionRate, x, v, t):
    """F(x, v, t) = integral_0^t B(x e^{v s}) ds."""
    return rate.cumulative_hazard(x, v, t)


def invert_hazard(rate: DivisionRate, x, v, e, t_max: float = DEFAULT_T_MAX):
    """Smallest t with F(x, v, t) = e, to |F(t) - e| <= 1e-10 max(1, e)."""
    return rate.invert_hazard(x, v, e, t_max=t_max)


def sample_lifetimes_keyed(rate: DivisionRate, node_keys: np.ndarray,
                           x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """One lifetime per node: the inverse hazard of the unit exponential
    ``-log(u)``, with ``u`` from the node's lifetime stream.

    Closed form for power-law rates; bisection/Newton otherwise.
    """
    u = streams.draw_uniform(node_keys, streams.STREAM_LIFETIME, 0)
    if isinstance(rate, PowerLawRate):
        return _hot.powerlaw_lifetimes(
            np.ascontiguousarray(u), np.ascontiguousarray(x),
            np.ascontiguousarray(v), rate.coefficient, rate.exponent)
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
    the cell sweeps; candidate events are proposed from the homogeneous bound
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
        if not (0 < self.e_min <= self.e_max):
            raise ValueError("need 0 < e_min <= e_max")

    def contains(self, v) -> np.ndarray:
        v = np.asarray(v)
        return (v >= self.e_min) & (v <= self.e_max)


@dataclass(frozen=True)
class DiracGrowth:
    """Every cell inherits the same fixed growth rate."""

    value: float
    bounds: GrowthBounds

    uniforms_per_attempt = 0

    def __post_init__(self):
        if not self.bounds.contains(self.value):
            raise ValueError("Dirac growth value must lie in [e_min, e_max]")

    def propose(self, v_parent, u):
        return np.full(np.shape(v_parent), self.value, dtype=np.float64)

    def to_json_dict(self):
        return {"form": "dirac", "value": self.value}


@dataclass(frozen=True)
class UniformIncrementGrowth:
    """Child rate = parent rate + step, step ~ scale * Uniform[1-alpha, 1+alpha].

    ``scale`` is fixed so that the root-mean-square of the step (before
    conditioning on the band) equals ``rms``: since E[U^2] = 1 + alpha^2/3
    for U ~ Uniform[1-alpha, 1+alpha], scale = rms / sqrt(1 + alpha^2/3).
    ``alpha > 1`` is required so the conditioned step can be negative;
    otherwise a parent near e_max has no admissible child rate.
    """

    alpha: float = 2.0
    rms: float = 0.5
    bounds: GrowthBounds = field(default=None)  # type: ignore[assignment]

    uniforms_per_attempt = 1

    def __post_init__(self):
        if self.alpha <= 1.0:
            raise ValueError("alpha must exceed 1 so rejection can terminate")
        if self.rms <= 0:
            raise ValueError("rms must be positive")
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

    def propose(self, v_parent, u):
        lo, hi = self.step_support()
        return np.asarray(v_parent) + lo + (hi - lo) * u

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

    def to_json_dict(self):
        return {"form": "uniform_increment", "alpha": self.alpha, "rms": self.rms}


@dataclass(frozen=True)
class GaussianIncrementGrowth:
    """Child rate = parent rate + Normal(0, std^2) step, conditioned to the band."""

    std: float
    bounds: GrowthBounds

    uniforms_per_attempt = 1

    def __post_init__(self):
        if self.std <= 0:
            raise ValueError("std must be positive")
        if self.bounds.e_min == self.bounds.e_max:  # hit with probability 0
            raise ValueError("a continuous increment needs e_min < e_max")

    def propose(self, v_parent, u):
        from scipy.special import ndtri  # lazy: ~0.3 s of CLI start-up
        return np.asarray(v_parent) + self.std * ndtri(u)

    def conditioned_density(self, v, w_child) -> np.ndarray:
        from scipy.special import ndtr
        b = self.bounds
        v = np.asarray(v, dtype=np.float64)
        z = (np.asarray(w_child) - v) / self.std
        mass = ndtr((b.e_max - v) / self.std) - ndtr((b.e_min - v) / self.std)
        dens = np.exp(-0.5 * z ** 2) / (self.std * math.sqrt(2 * math.pi))
        inside = GrowthBounds.contains(b, w_child)
        return np.where(inside, dens, 0.0) / mass

    def to_json_dict(self):
        return {"form": "gaussian_increment", "std": self.std}


@dataclass(frozen=True)
class IndependentResampleGrowth:
    """Child rate drawn afresh from a tabulated density on the band,
    independent of the parent."""

    grid: np.ndarray
    density: np.ndarray
    bounds: GrowthBounds = field(default=None)  # type: ignore[assignment]

    uniforms_per_attempt = 2

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=np.float64)
        dens = np.asarray(self.density, dtype=np.float64)
        if grid.ndim != 1 or grid.size < 2 or np.any(np.diff(grid) <= 0):
            raise ValueError("density grid must be increasing")
        if np.any(dens < 0) or not np.any(dens > 0):
            raise ValueError("density must be nonnegative with positive mass")
        if self.bounds is None:
            raise ValueError("bounds are required")
        mass = np.trapezoid(dens, grid)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "density", dens / mass)

    def _density_at(self, v):
        return np.interp(v, self.grid, self.density, left=0.0, right=0.0)

    def propose(self, v_parent, u):
        # u carries two uniforms per lane: location proposal and accept level.
        u_loc, u_acc = u
        b = self.bounds
        cand = b.e_min + (b.e_max - b.e_min) * u_loc
        top = float(np.max(self.density))
        ok = u_acc * top <= self._density_at(cand)
        return np.where(ok, cand, np.nan)  # nan = retry (outside-band reject)

    def conditioned_density(self, v, w_child) -> np.ndarray:
        b = self.bounds
        gg = np.linspace(b.e_min, b.e_max, 2001)
        mass = np.trapezoid(self._density_at(gg), gg)
        inside = GrowthBounds.contains(b, w_child)
        return np.where(inside, self._density_at(w_child), 0.0) / mass

    def to_json_dict(self):
        return {"form": "independent_resample", "grid": self.grid.tolist(),
                "density": self.density.tolist()}


GrowthKernel = Union[DiracGrowth, UniformIncrementGrowth,
                     GaussianIncrementGrowth, IndependentResampleGrowth]


def _accept_mask(kernel: GrowthKernel, proposal: np.ndarray) -> np.ndarray:
    return kernel.bounds.contains(proposal) & ~np.isnan(proposal)


def sample_growth_rates_keyed(kernel: GrowthKernel, v_parent: np.ndarray,
                              node_keys: np.ndarray, stream: int,
                              cap: int = REJECTION_CAP) -> np.ndarray:
    """Child growth rates from kernel(v_parent, .) conditioned to the band,
    by rejection with a hard attempt cap: attempt j of node i draws from
    the hash stream (node_keys[i], stream, j).

    Only the pending lanes are carried from round to round, as the
    compacted columns (flat index, node key, parent rate), so a round costs
    in proportion to the lanes it still draws for."""
    v = np.asarray(v_parent, dtype=np.float64)
    if isinstance(kernel, DiracGrowth):
        return kernel.propose(v, None)

    out = np.full(v.size, np.nan)
    lane, keys, parent = np.arange(v.size), np.ravel(node_keys), v.ravel()
    per = kernel.uniforms_per_attempt
    counter = 0
    for _ in range(cap):
        if not lane.size:
            break
        if per == 1:
            u = streams.draw_uniform(keys, stream, counter)
        else:
            u = (streams.draw_uniform(keys, stream, counter),
                 streams.draw_uniform(keys, stream, counter + 1))
        prop = kernel.propose(parent, u)
        ok = _accept_mask(kernel, prop)
        # integer positions: a boolean mask this random indexes ~3x slower
        accept, pending = np.flatnonzero(ok), np.flatnonzero(~ok)
        out[lane[accept]] = prop[accept]
        lane, keys, parent = lane[pending], keys[pending], parent[pending]
        counter += per
    if lane.size:
        b = kernel.bounds
        raise RejectionBudgetExceeded(
            f"no admissible growth rate in [{b.e_min}, {b.e_max}] within "
            f"{cap} attempts for parent rate {float(parent[0])}")
    return out.reshape(v.shape)


# ---------------------------------------------------------------------------
# Initial condition and full model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InitialDistribution:
    """Root law: size ~ Uniform[size_low, size_high] (degenerate allowed),
    growth rate either a fixed point or Uniform on a sub-band of the bounds."""

    size_low: float
    size_high: float
    growth_low: Optional[float] = None
    growth_high: Optional[float] = None
    growth_value: Optional[float] = None

    def __post_init__(self):
        if not (0 < self.size_low <= self.size_high):
            raise ValueError("initial sizes must satisfy 0 < low <= high")
        point = self.growth_value is not None
        band = self.growth_low is not None or self.growth_high is not None
        if point and band:
            raise ValueError("give either growth_value or a growth range")

    def growth_range(self, bounds: GrowthBounds) -> tuple[float, float]:
        lo = self.growth_low if self.growth_low is not None else bounds.e_min
        hi = self.growth_high if self.growth_high is not None else bounds.e_max
        return lo, hi

    def to_json_dict(self):
        d = {"size": {"low": self.size_low, "high": self.size_high}}
        if self.growth_value is not None:
            d["growth"] = {"form": "point", "value": self.growth_value}
        else:
            d["growth"] = {"form": "uniform"}
            if self.growth_low is not None:
                d["growth"]["low"] = self.growth_low
            if self.growth_high is not None:
                d["growth"]["high"] = self.growth_high
        return d


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
        init = self.initial
        if init.growth_value is not None:
            if not self.bounds.contains(init.growth_value):
                raise ValueError("initial growth rate outside [e_min, e_max]")
        else:
            lo, hi = init.growth_range(self.bounds)
            if not (self.bounds.e_min <= lo <= hi <= self.bounds.e_max):
                raise ValueError("initial growth range outside [e_min, e_max]")

    def to_json(self, **dump_kwargs) -> str:
        doc = {
            "division_rate": self.division_rate.to_json_dict(),
            "growth_kernel": self.growth_kernel.to_json_dict(),
            "bounds": {"e_min": self.bounds.e_min, "e_max": self.bounds.e_max},
            "initial": self.initial.to_json_dict(),
        }
        return json.dumps(doc, sort_keys=True, **dump_kwargs)

    @staticmethod
    def from_json(text: str) -> "ModelSpec":
        doc = json.loads(text)
        bounds = GrowthBounds(**doc["bounds"])
        rate_doc = dict(doc["division_rate"])
        form = rate_doc.pop("form")
        if form == "power_law":
            rate: DivisionRate = PowerLawRate(**rate_doc)
        elif form == "tabulated":
            rate = TabulatedRate(np.asarray(rate_doc["grid"]),
                                 np.asarray(rate_doc["values"]))
        else:
            raise ValueError(f"unknown division rate form {form!r}")
        k_doc = dict(doc["growth_kernel"])
        k_form = k_doc.pop("form")
        if k_form == "dirac":
            kernel: GrowthKernel = DiracGrowth(k_doc["value"], bounds)
        elif k_form == "uniform_increment":
            kernel = UniformIncrementGrowth(k_doc.get("alpha", 2.0),
                                            k_doc.get("rms", 0.5), bounds)
        elif k_form == "gaussian_increment":
            kernel = GaussianIncrementGrowth(k_doc["std"], bounds)
        elif k_form == "independent_resample":
            kernel = IndependentResampleGrowth(np.asarray(k_doc["grid"]),
                                               np.asarray(k_doc["density"]),
                                               bounds)
        else:
            raise ValueError(f"unknown growth kernel form {k_form!r}")
        i_doc = doc["initial"]
        g = i_doc.get("growth", {"form": "uniform"})
        initial = InitialDistribution(
            size_low=i_doc["size"]["low"], size_high=i_doc["size"]["high"],
            growth_low=g.get("low"), growth_high=g.get("high"),
            growth_value=g.get("value") if g.get("form") == "point" else None)
        return ModelSpec(rate, kernel, bounds, initial)


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
    initial = (InitialDistribution(1.0 / 3.0, 3.0, growth_value=1.0)
               if growth == "dirac"
               else InitialDistribution(1.0 / 3.0, 3.0))
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
    """integral_a^b x^-1 B(2x) dx, exact for both rate forms."""
    if isinstance(rate, PowerLawRate):
        # c 2^lam integral x^{lam-1} = c 2^lam (b^lam - a^lam)/lam
        lam = rate.exponent
        return rate.coefficient * 2.0 ** lam * (b ** lam - a ** lam) / lam
    # substitute u = 2x: integral_{2a}^{2b} B(u)/u du
    anti = rate._log_weighted_antiderivative
    if a == 0.0:
        if rate.values[0] > 0:
            return math.inf
        a = rate.grid[0] / 2.0  # B vanishes below the first knot
        if b <= a:
            return 0.0
    return float((anti(np.asarray([2.0 * b])) - anti(np.asarray([2.0 * a])))[0])


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
        return {
            "mode": self.mode,
            "near_origin_integral": self.near_origin_integral,
            "near_origin_ok": self.near_origin_ok,
            "lower_integral": self.lower_integral,
            "lower_ok": self.lower_ok,
            "power_floor_min": self.power_floor_min,
            "power_floor_ok": self.power_floor_ok,
            "delta": self.delta,
            "delta_ok": self.delta_ok,
            "all_ok": self.all_ok,
            "spectral_radius_verified": self.spectral_radius_verified,
        }


def check_class_membership(params: ClassParams, rate: DivisionRate,
                           bounds: GrowthBounds, mode: str = "sparse",
                           x_max: float = 50.0) -> ClassReport:
    """Check the rate against the admissibility class and the contraction
    proxy (threshold 1 for the sparse scheme, 1/2 for the full scheme).

    The power-law floor is checked as the minimum of B(x)/x^lam over a log
    grid on [r, x_max].  The spectral-radius side condition of the full
    scheme has no constructive evaluation and is only flagged.
    """
    if mode not in ("sparse", "full"):
        raise ValueError("mode must be 'sparse' or 'full'")
    r = params.r
    i0 = _halved_rate_log_integral(rate, 0.0, r / 2.0)
    i1 = _halved_rate_log_integral(rate, r / 2.0, r)
    xs = np.geomspace(r, max(x_max, 2 * r), 512)
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
