"""Deterministic characterisations: transition density, invariant size law,
closed-loop rate recovery, and the conservative transport-fragmentation PDE.

These are the estimator's oracles.  The size-at-birth chain has an explicit
transition density; its invariant density nu solves nu P = nu and is computed
by power iteration on a uniform grid.  For a constant growth rate tau the
division rate is recoverable from nu alone,

    B(y) = (tau y / 2) nu(y/2) / integral_{y/2}^{y} nu,

and the steady state N of the conservative PDE

    dn/dt + tau d(x n)/dx = 2 B(2x) n(2x) - B(x) n(x)

matches the invariant density through nu(x) = 2 B(2x) N(2x) (up to overall
scale: both sides are normalised to unit mass before comparison).

N is the Perron eigenvector of the upwind finite-volume operator, solved
for directly by sparse LU inverse iteration (Doumic & Gabriel 2010; Perthame
2007).  An explicit, mass-renormalised march of the same operator remains
for finite-horizon transients; run long enough it reaches the same vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _hot
from .curves import CurveOnGrid
from .model import (ClassParams, DiracGrowth, DivisionRate, GrowthBounds,
                    GrowthKernel, PowerLawRate, contraction_coefficient)


class NoConvergence(RuntimeError):
    """Power or inverse iteration failed to reach the requested tolerance."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (last residual {residual:.3e})")
        self.residual = residual


class DegenerateDenominator(RuntimeError):
    """The reconstruction denominator vanishes at some grid points."""

    def __init__(self, points: np.ndarray):
        super().__init__(
            f"invariant mass vanishes on [y/2, y] at {points.size} grid "
            f"points (first: y={points[0]:.6g})")
        self.points = points


class CflViolation(ValueError):
    """Explicit time step too large for the advection speed."""


class QuadratureOverflow(RuntimeError):
    """The drift weight overflows (or its integral diverges) on the grid."""

    def __init__(self, x_overflow: float, reason: str | None = None):
        super().__init__(reason or (
            f"drift weight overflows float range beyond x={x_overflow:.6g}; "
            "shrink the grid or the class constants"))
        self.x_overflow = x_overflow


def _halved_rate_over_x_antiderivative(rate: DivisionRate, y: np.ndarray,
                                       v: float) -> np.ndarray:
    """Phi(y) = integral^y B(2s)/(v s) ds (additive constant irrelevant)."""
    y = np.asarray(y, dtype=np.float64)
    if isinstance(rate, PowerLawRate):
        lam = rate.exponent
        return rate.coefficient * 2.0 ** lam * y ** lam / (v * lam)
    return rate._log_weighted_antiderivative(2.0 * y) / v


# ---------------------------------------------------------------------------
# Transition density
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransitionEvaluator:
    """Explicit density of the child (size, rate) given the parent's.

    size part:  p(y | x, v) = B(2y)/(v y) 1{y >= x/2}
                              exp(-integral_{x/2}^{y} B(2s)/(v s) ds)
    rate part:  the band-conditioned kernel density (kernels with a density
                only; a point-mass kernel has no joint density).
    """

    rate: DivisionRate
    kernel: GrowthKernel
    bounds: GrowthBounds

    def size_density(self, x, v, y) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        phi = _halved_rate_over_x_antiderivative
        with np.errstate(divide="ignore", invalid="ignore"):
            dens = self.rate(2.0 * y) / (v * y) * np.exp(
                phi(self.rate, x / 2.0, v) - phi(self.rate, y, v))
        dens = np.where(y <= 0, 0.0, dens)
        return np.where(y >= x / 2.0, dens, 0.0)

    def growth_density(self, v, v_child) -> np.ndarray:
        if isinstance(self.kernel, DiracGrowth):
            raise ValueError("point-mass growth kernel has no density; "
                             "use size_density")
        return self.kernel.conditioned_density(v, v_child)

    def density(self, x, v, y, v_child) -> np.ndarray:
        return self.size_density(x, v, y) * self.growth_density(v, v_child)


def transition_density(ev: TransitionEvaluator, x, v, y, v_child):
    """Joint transition density at (child size y, child rate v_child)."""
    return ev.density(x, v, y, v_child)


# ---------------------------------------------------------------------------
# Invariant size density (constant growth rate)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InvariantSolution:
    """Invariant size-at-birth density on a uniform grid, with the fixed
    point residual |nu P - nu|_L1."""

    curve: CurveOnGrid
    residual: float
    iterations: int

    @property
    def x(self) -> np.ndarray:
        return self.curve.x

    @property
    def values(self) -> np.ndarray:
        return self.curve.values


def _size_kernel_factors(rate: DivisionRate, tau: float, x: np.ndarray):
    """The size transition factorises as p(y|x) = a(y) b(x) 1{y >= x/2},
    with a(y) = B(2y)/(tau y) e^{-Phi(y)} and b(x) = e^{Phi(x/2)}."""
    phi_half = _halved_rate_over_x_antiderivative(rate, x / 2.0, tau)
    phi = _halved_rate_over_x_antiderivative(rate, x, tau)
    with np.errstate(divide="ignore", invalid="ignore"):
        a = rate(2.0 * x) / (tau * x) * np.exp(-phi)
    a = np.where(x <= 0, _origin_limit(rate, tau), a)
    b = np.exp(phi_half)
    return a, b


def _origin_limit(rate: DivisionRate, tau: float) -> float:
    """lim_{y -> 0} B(2y)/(tau y); finite for rates vanishing at least
    linearly at the origin."""
    if isinstance(rate, PowerLawRate):
        if rate.exponent > 1.0:
            return 0.0
        if rate.exponent == 1.0:
            return 2.0 * rate.coefficient / tau
        return math.inf
    slope = rate.values[0] / rate.grid[0] if rate.values[0] > 0 else 0.0
    return 2.0 * slope / tau


def _apply_size_kernel(a: np.ndarray, b: np.ndarray, dx: float,
                       half_index: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """(nu P)(y_i) = a(y_i) * integral_0^{2 y_i} b(x) nu(x) dx, trapezoid.

    2 y_i lands exactly on a grid node, so the integral is a prefix sum with
    half weights at both ends of the integration range.
    """
    f = b * nu
    prefix = np.concatenate([[0.0], np.cumsum(f * dx)])
    last = half_index - 1
    full = prefix[half_index] - 0.5 * dx * (f[0] + f[last])
    return a * full


def invariant_fixed_point(rate: DivisionRate, tau: float, x_max: float = 5.0,
                          dx: float = 2.5e-3, tol: float = 1e-10,
                          max_iterations: int = 100_000) -> InvariantSolution:
    """Invariant probability density of the size-at-birth chain for constant
    growth rate tau, by power iteration with trapezoid quadrature.

    Iterates nu <- nu P (renormalised) from the uniform density until the L1
    change drops below ``tol``; the reported residual is |nu P - nu|_L1 of
    the returned density.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    m = int(round(x_max / dx)) + 1
    x = dx * np.arange(m)
    w = np.full(m, dx)
    w[0] = w[-1] = dx / 2.0
    a, b = _size_kernel_factors(rate, tau, x)
    if not np.all(np.isfinite(a)):
        raise ValueError("size kernel diverges at the origin for this rate; "
                         "use a rate vanishing at least linearly at 0")
    # number of x-grid points with x_j <= 2 y_i
    half_index = np.minimum(np.floor(2.0 * x / dx + 1e-12).astype(np.int64) + 1, m)

    nu = np.ones(m) / x_max
    residual = math.inf
    for it in range(1, max_iterations + 1):
        nu_next = _apply_size_kernel(a, b, dx, half_index, nu)
        mass = float(np.sum(w * nu_next))
        if mass <= 0:
            raise NoConvergence("kernel application lost all mass", math.inf)
        nu_next /= mass
        residual = float(np.sum(w * np.abs(nu_next - nu)))
        nu = nu_next
        if residual < tol:
            return InvariantSolution(CurveOnGrid(0.0, dx, nu), residual, it)
    raise NoConvergence("power iteration did not converge", residual)


def reconstruct_division_rate(solution: InvariantSolution, tau: float,
                              y: np.ndarray) -> CurveOnGrid:
    """Closed-loop recovery B(y) = (tau y/2) nu(y/2) / integral_{y/2}^y nu.

    ``y`` must be a uniform grid; raises DegenerateDenominator where the
    invariant mass between y/2 and y vanishes.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.size < 2:
        raise ValueError("need at least two evaluation points")
    steps = np.diff(y)
    if not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
        raise ValueError("evaluation grid must be uniform")
    nu = solution.curve
    cdf_vals = np.concatenate(
        [[0.0], np.cumsum((nu.values[1:] + nu.values[:-1]) * 0.5 * nu.dx)])

    def cdf(q):
        return np.interp(q, nu.x, cdf_vals)

    denom = cdf(y) - cdf(y / 2.0)
    bad = denom <= 0
    if np.any(bad):
        raise DegenerateDenominator(y[bad])
    values = 0.5 * tau * y * nu.interp(y / 2.0) / denom
    return CurveOnGrid(float(y[0]), float(steps[0]), values)


# ---------------------------------------------------------------------------
# Conservative transport-fragmentation PDE
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PdeState:
    """Steady (or final-time) state of the conservative equation."""

    curve: CurveOnGrid
    time: float
    mass: float
    steps: int
    l1_rate: float
    max_mass_drift_rate: float
    converged: bool

    @property
    def x(self) -> np.ndarray:
        return self.curve.x

    @property
    def values(self) -> np.ndarray:
        return self.curve.values


def _pde_stencil(rate: DivisionRate, tau: float, centers: np.ndarray,
                 dx: float):
    """Coefficients of the upwind finite-volume operator on ``centers``.

    Returns (flux_coef, sink, src, src_idx, src_w) such that

        (A n)_i = -(flux_coef_i n_i - flux_coef_{i-1} n_{i-1}) / dx
                  + src_i ((1 - src_w_i) n_k + src_w_i n_{k+1}) - sink_i n_i

    with k = src_idx_i: zero inflow at x = 0, free outflow at x_max, and the
    doubled-argument source linearly interpolated onto the grid.  Where 2 x_i
    falls beyond the grid the source vanishes (src_idx = -1, src = 0).
    """
    m = centers.size
    flux_coef = tau * (np.arange(1, m + 1) * dx)
    sink = np.asarray(rate(centers))
    pos = (2.0 * centers - centers[0]) / dx
    k = np.floor(pos).astype(np.int64)
    valid = k < m - 1
    src = np.where(valid, 2.0 * np.asarray(rate(2.0 * centers)), 0.0)
    src_idx = np.where(valid, k, -1)
    src_w = np.where(valid, pos - k, 0.0)
    return flux_coef, sink, src, src_idx, src_w


# Inverse iteration converges by the ratio of the two eigenvalues nearest 0
# (a handful of solves on the reference grids); the cap only stops a
# pathological operator from looping.
_INVERSE_ITERATIONS = 50


def _pde_steady_state(stencil, n0: np.ndarray, dx: float):
    """Perron eigenpair of the stencil's operator A by LU inverse iteration
    at shift 0, from the unit-mass start ``n0``.

    Returns (n, lam, l1_rate): the eigenvector clipped to n >= 0 with unit
    mass, lam = sum(A n) dx, and l1_rate = |(A - lam) n|_1 dx, the rate of
    change of the renormalised march evaluated at n.
    """
    # scipy.sparse costs ~0.1 s to import; only this path needs it
    from scipy.sparse import csc_matrix, diags
    from scipy.sparse.linalg import splu

    flux_coef, sink, src, src_idx, src_w = stencil
    m = n0.size
    rows = np.flatnonzero(src_idx >= 0)
    k = src_idx[rows]
    gain = csc_matrix(
        (np.concatenate([src[rows] * (1.0 - src_w[rows]),
                         src[rows] * src_w[rows]]),
         (np.concatenate([rows, rows]), np.concatenate([k, k + 1]))),
        shape=(m, m))
    a = diags([-flux_coef / dx - sink, flux_coef[:-1] / dx], [0, -1],
              format="csc") + gain
    lu = splu(a)

    # lam < 0 makes A^-1 flip the sign of the iterate, so normalise by the
    # signed sum; clipping inside the loop would destroy the vector.  Stop
    # once the L1 change no longer shrinks: the iterate sits at rounding level
    n = n0
    prev = math.inf
    for _ in range(_INVERSE_ITERATIONS):
        nxt = lu.solve(n)
        nxt /= np.sum(nxt) * dx
        change = float(np.sum(np.abs(nxt - n))) * dx
        n = nxt
        if change >= prev:
            break
        prev = change
    else:
        raise NoConvergence("inverse iteration for the PDE steady state "
                            "did not settle", change)
    n = np.maximum(n, 0.0)
    n /= np.sum(n) * dx
    an = a @ n
    lam = float(np.sum(an)) * dx
    return n, lam, float(np.sum(np.abs(an - lam * n))) * dx


def solve_conservative_pde(rate: DivisionRate, tau: float, x_max: float = 5.0,
                           dx: float = 2.5e-3, t_end: Optional[float] = None,
                           cfl: float = 0.9, dt: Optional[float] = None,
                           stop_rate: float = 1e-8,
                           initial: Optional[np.ndarray] = None) -> PdeState:
    """Steady state (or a transient) of dn/dt + tau d(x n)/dx =
    2 B(2x) n(2x) - B(x) n(x), first-order upwind finite volumes on cell
    centres (i + 1/2) dx (see ``_pde_stencil``).

    With ``t_end=None`` the steady state is solved for directly: the march
    below renormalises mass every step, so its fixed point is the Perron
    eigenvector of the discrete operator A, found by sparse LU inverse
    iteration.  ``steps`` is then 0, ``time`` infinite, ``l1_rate`` the
    march's rate of change at that vector and ``max_mass_drift_rate`` the
    eigenvalue's magnitude.  Raises NoConvergence unless ``l1_rate`` falls
    below ``stop_rate``.

    With a finite ``t_end`` the equation is marched explicitly from
    ``initial`` (default: uniform on [0, x_max/2]) with time step ``dt``
    (default: the CFL bound), renormalising mass every step and recording
    the pre-normalisation drift; the march stops at ``t_end`` or when the
    L1 rate of change falls below ``stop_rate``.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    if not (0 < cfl <= 1):
        raise ValueError("cfl must lie in (0, 1]")
    m = int(round(x_max / dx))
    centers = (np.arange(m) + 0.5) * dx
    if dt is None:
        dt = cfl * dx / (tau * x_max)
    elif tau * x_max * dt / dx > cfl:
        raise CflViolation(
            f"dt={dt} violates the step bound cfl*dx/(tau*x_max)")

    if initial is None:
        n0 = np.where(centers <= x_max / 2.0, 1.0, 0.0)
    else:
        n0 = np.asarray(initial, dtype=np.float64).copy()
        if n0.size != m:
            raise ValueError("initial profile size must match the grid")
    n0 /= np.sum(n0) * dx
    stencil = _pde_stencil(rate, tau, centers, dx)

    if t_end is None:
        n, lam, l1_rate = _pde_steady_state(stencil, n0, dx)
        if not l1_rate < stop_rate:
            raise NoConvergence("PDE steady state misses stop_rate="
                                f"{stop_rate:.3e}", l1_rate)
        return PdeState(CurveOnGrid(float(centers[0]), dx, n), math.inf,
                        float(np.sum(n)) * dx, 0, l1_rate, abs(lam), True)

    flux_coef, sink, src, src_idx, src_w = stencil
    max_steps = int(math.ceil(t_end / dt))
    n, steps, l1_rate, drift = _hot.pde_run(
        np.ascontiguousarray(n0), float(dt), np.ascontiguousarray(flux_coef),
        np.ascontiguousarray(src), np.ascontiguousarray(sink),
        np.ascontiguousarray(src_idx), np.ascontiguousarray(src_w),
        float(dx), max_steps, float(stop_rate))
    mass = float(np.sum(n)) * dx
    return PdeState(CurveOnGrid(float(centers[0]), dx, n), steps * dt, mass,
                    int(steps), float(l1_rate), float(drift),
                    bool(l1_rate < stop_rate))


def steady_state_relation_error(invariant: InvariantSolution, pde: PdeState,
                                rate: DivisionRate, lo: float,
                                hi: float) -> float:
    """Relative L2 error of nu(x) = 2 B(2x) N(2x) on [lo, hi].

    The PDE steady state is only defined up to scale, so the rebuilt density
    is renormalised to unit mass before comparison.
    """
    x = invariant.x
    rebuilt = 2.0 * np.asarray(rate(2.0 * x)) * pde.curve.interp(2.0 * x)
    rebuilt = np.where(2.0 * x <= pde.x[-1], rebuilt, 0.0)
    mass = np.trapezoid(rebuilt, dx=invariant.curve.dx)
    if mass <= 0:
        raise ValueError("rebuilt density has no mass on the grid")
    rebuilt /= mass
    sel = (x >= lo) & (x <= hi)
    diff = rebuilt[sel] - invariant.values[sel]
    return float(np.sqrt(np.sum(diff ** 2) / np.sum(invariant.values[sel] ** 2)))


def flux_identity_error(pde: PdeState, rate: DivisionRate, tau: float,
                        lo: float, hi: float) -> float:
    """Max relative pointwise error of
    integral_y^{2y} B N = tau y N(y) on [lo, hi] (scale-free in N)."""
    x = pde.x
    bn = np.asarray(rate(x)) * pde.values
    cum = np.concatenate([[0.0], np.cumsum((bn[1:] + bn[:-1]) * 0.5 * pde.curve.dx)])

    def integral_bn(q):
        return np.interp(q, x, cum)

    y = x[(x >= lo) & (x <= hi) & (2 * x <= x[-1])]
    lhs = integral_bn(2.0 * y) - integral_bn(y)
    rhs = tau * y * pde.curve.interp(y)
    return float(np.max(np.abs(lhs - rhs) / np.abs(rhs)))


# ---------------------------------------------------------------------------
# Drift condition check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DriftReport:
    """Numerical drift verification for the weight V(x) = e^{m x^lam/(e_min lam)}.

    ``sup_ratio`` is sup_{x >= r} (P V)(x, v) / V(x) maximised over the rate
    band; below ``delta`` the one-step drift contracts outside [0, r).
    ``small_set_bound`` is sup_{x < r} (P V)(x, v).
    """

    sup_ratio: float
    arg_sup: float
    small_set_bound: float
    delta: float
    ratio_curve: CurveOnGrid
    v_grid: np.ndarray

    @property
    def contracts(self) -> bool:
        # the reference rate attains the bound exactly at x = r, so leave
        # room for the quadrature error of sup_ratio
        return self.sup_ratio <= self.delta * (1.0 + 1e-4)

    def to_json_dict(self):
        return {
            "sup_ratio": self.sup_ratio,
            "arg_sup": self.arg_sup,
            "small_set_bound": self.small_set_bound,
            "delta": self.delta,
            "contracts": self.contracts,
        }


def verify_drift(params: ClassParams, rate: DivisionRate,
                 bounds: GrowthBounds, x_max: float = 8.0,
                 dx: float = 1e-2, quad_points: int = 2001) -> DriftReport:
    """Evaluate (P V)(x, v) by quadrature over the child size and compare
    with delta V(x) beyond r (and report the bound on [0, r)).

    The rate-kernel part integrates out exactly since V depends on size
    only; v enters through the size transition and is scanned over the band.
    Each x integrates on its own grid starting exactly at x/2, with the log
    of the integrand assembled first so large weights never overflow.
    """
    lam, mcst, r = params.lam, params.m, params.r

    def exponent_at(x):
        return mcst * np.asarray(x) ** lam / (bounds.e_min * lam)

    if exponent_at(x_max) > math.log(np.finfo(np.float64).max):
        x_over = float((math.log(np.finfo(np.float64).max)
                        * bounds.e_min * lam / mcst) ** (1.0 / lam))
        raise QuadratureOverflow(x_over)

    # The integral of V against the transition tail converges only when the
    # hazard antiderivative outgrows the weight exponent at the slowest rate
    # band edge; otherwise (P V)(x, e_max) is infinite and no grid can help.
    probes = np.array([64.0, 128.0])
    gap = (exponent_at(probes)
           - _halved_rate_over_x_antiderivative(rate, probes, bounds.e_max))
    if gap[1] >= gap[0]:
        raise QuadratureOverflow(float(probes[0]), reason=(
            "the drift weight grows at least as fast as the transition tail "
            "decays at v = e_max; the drift integral diverges for this band "
            "(for matched power laws this needs e_max < 2^lam * e_min)"))

    xs = np.arange(dx, x_max + dx / 2.0, dx)
    if bounds.e_min == bounds.e_max:
        v_grid = np.array([bounds.e_min])
    else:
        v_grid = np.array([bounds.e_min,
                           0.5 * (bounds.e_min + bounds.e_max), bounds.e_max])

    # Upper integration limit: extend until the integrand's exponent
    # V(y) e^{-Phi(y)} has dropped far below any achievable value.
    y_hi = max(2.0 * x_max, 1.0)
    while (float(exponent_at(y_hi))
           - float(_halved_rate_over_x_antiderivative(
               rate, np.asarray(y_hi), bounds.e_max))) > -80.0:
        y_hi *= 1.25
        if exponent_at(y_hi) > 700.0:
            raise QuadratureOverflow(float(y_hi))

    ratios = np.empty((v_grid.size, xs.size))
    small = np.empty((v_grid.size, xs.size))
    log_v_x = exponent_at(xs)
    for i, v in enumerate(v_grid):
        # per-x child grid from x/2 to y_hi (boundary is a quadrature node)
        s = np.linspace(0.0, 1.0, quad_points)
        half = xs[:, None] / 2.0
        ygrid = half + (y_hi - half) * s[None, :]
        phi_y = _halved_rate_over_x_antiderivative(rate, ygrid, v)
        phi_half = _halved_rate_over_x_antiderivative(rate, xs / 2.0, v)
        with np.errstate(divide="ignore", invalid="ignore"):
            log_a = np.log(np.asarray(rate(2.0 * ygrid)) / (v * ygrid))
        log_ratio = (log_a + exponent_at(ygrid) - phi_y
                     + phi_half[:, None] - log_v_x[:, None])
        integrand = np.where(np.isfinite(log_ratio), np.exp(log_ratio), 0.0)
        ratios[i] = np.trapezoid(integrand, ygrid, axis=1)
        small[i] = ratios[i] * np.exp(np.minimum(log_v_x, 700.0))

    beyond = xs >= r
    ratio_max = ratios.max(axis=0)
    sup_ratio = float(ratio_max[beyond].max())
    arg_sup = float(xs[beyond][np.argmax(ratio_max[beyond])])
    small_bound = float(small.max(axis=0)[~beyond].max()) if np.any(~beyond) else 0.0
    return DriftReport(
        sup_ratio=sup_ratio, arg_sup=arg_sup, small_set_bound=small_bound,
        delta=contraction_coefficient(params, bounds),
        ratio_curve=CurveOnGrid(float(xs[0]), dx, ratio_max), v_grid=v_grid)
