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

N is the Perron eigenvector of the upwind finite-volume operator, built
once as its bands (``_pde_operator``) and found by inverse iteration, each
solve an O(m) sweep over blocks of rows (Doumic & Gabriel 2010; Perthame
2007).  Finite-horizon transients march the same operator explicitly with
the step cfl dx / (tau x_max), from n uniform on [0, x_max/2],
renormalising mass every step; run long enough the march reaches the same
vector.
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
    return rate.log_antiderivative(2.0 * np.asarray(y, dtype=np.float64)) / v


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


# ---------------------------------------------------------------------------
# Invariant size density (constant growth rate)
# ---------------------------------------------------------------------------

class _OnCurve:
    """``x`` and ``values`` of the result's ``curve``."""

    x = property(lambda self: self.curve.x)
    values = property(lambda self: self.curve.values)


@dataclass(frozen=True)
class InvariantSolution(_OnCurve):
    """Invariant size-at-birth density on a uniform grid, with the fixed
    point residual |nu P - nu|_L1."""

    curve: CurveOnGrid
    residual: float
    iterations: int


def _size_kernel_factors(rate: DivisionRate, tau: float, x: np.ndarray):
    """The size transition factorises as p(y|x) = a(y) b(x) 1{y >= x/2},
    with a(y) = B(2y)/(tau y) e^{-Phi(y)} and b(x) = e^{Phi(x/2)}."""
    phi_half = _halved_rate_over_x_antiderivative(rate, x / 2.0, tau)
    phi = _halved_rate_over_x_antiderivative(rate, x, tau)
    with np.errstate(divide="ignore", invalid="ignore"):
        a = rate(2.0 * x) / (tau * x) * np.exp(-phi)
    a = np.where(x <= 0, _origin_limit(rate, tau), a)
    with np.errstate(over="ignore"):  # checked by the caller
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
    if not np.all(np.isfinite(b)):  # e^{Phi(x/2)}, large for a small tau
        raise NoConvergence("size kernel overflows on the grid; raise tau "
                            "or lower x_max", math.inf)
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
    denom = np.interp(y, nu.x, cdf_vals) - np.interp(y / 2.0, nu.x, cdf_vals)
    bad = denom <= 0
    if np.any(bad):
        raise DegenerateDenominator(y[bad])
    values = 0.5 * tau * y * nu.interp(y / 2.0) / denom
    return CurveOnGrid(float(y[0]), float(steps[0]), values)


# ---------------------------------------------------------------------------
# Conservative transport-fragmentation PDE
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PdeState(_OnCurve):
    """Steady (or final-time) state of the conservative equation."""

    curve: CurveOnGrid
    time: float
    mass: float
    steps: int
    l1_rate: float
    max_mass_drift_rate: float
    converged: bool


def _recur(step, add, acc=0.0):
    """[acc_1, acc_2, ...] with acc_i = step_i acc_{i-1} + add_i, on Python
    floats: the one sequential part of the block sweep."""
    return np.array([acc := s * acc + a for s, a in zip(step, add.tolist())])


class _UpwindOperator:
    """The upwind operator by its bands: row i holds ``diag[i]``, ``sub[i-1]``
    at column i - 1 and ``gain[:, i]`` at columns 2i and 2i + 1 (zero from
    row m // 2 on; row 0's first gain is folded into ``diag[0]``).  ``@``
    adds each row's products in column order, as a CSC product does.

    ``solve`` is O(m).  It sweeps the blocks [h // 2, h), h = m, m // 2,
    ..., 1, from the top.  A block's gains read its top row s and rows
    above, held as affine in s, so stepping up from the unknown u below the
    block (|sub/diag| < 1 damps) gives each row as A + B u + C s; the top
    row closes s.  Only A depends on the right-hand side.
    """

    def __init__(self, diag, sub, gain):
        self.diag, self.sub, self.gain = diag, sub, gain
        self.ratio = gain / diag
        self.steps = (-np.append(0.0, sub) / diag).tolist()  # row 0: no sub
        m = diag.size
        self.blocks = [(m >> k + 1, m >> k) for k in range(m.bit_length())]
        # x_i = p_i + q_i u once the block of row i is solved (0 past row m);
        # ``solve`` finds the p_i, which depend on the right-hand side
        self.q, self.close = np.zeros(2 * m), np.zeros(m)
        for lo, hi in self.blocks:
            self.q[hi - 1] = 1.0  # the gains read the top row as s itself
            c = self._block(self.q, lo, hi, 0.0)  # close[lo:hi] is still 0
            self.close[lo:hi] = c / (1.0 - c[-1])  # s = (A+Bu)_top / (1-C_top)
            b = np.cumprod(self.steps[lo:hi])
            self.q[lo:hi] = b + self.close[lo:hi] * b[-1]

    def _block(self, v, lo, hi, add):
        """Rows [lo, hi) stepped up from 0 by ``add`` less their gains over
        the diagonal at the values v, then closed at the top row."""
        y = _recur(self.steps[lo:hi],
                   add - (self.ratio[0, lo:hi] * v[2 * lo:2 * hi:2]
                          + self.ratio[1, lo:hi] * v[2 * lo + 1:2 * hi:2]))
        return y + self.close[lo:hi] * y[-1]

    def __matmul__(self, n: np.ndarray) -> np.ndarray:
        y = self.diag * n
        y[1:] += self.sub * n[:-1]
        r = n.size // 2
        y[:r] += self.gain[0, :r] * n[0:2 * r:2]
        y[:r] += self.gain[1, :r] * n[1:2 * r:2]
        return y

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """x with a @ x = rhs, by the block sweep."""
        p = np.zeros(2 * rhs.size)
        for lo, hi in self.blocks:
            p[lo:hi] = self._block(p, lo, hi, rhs[lo:hi] / self.diag[lo:hi])
        x = np.zeros(rhs.size + 1)  # x[0] stands for the missing row -1
        for lo, hi in reversed(self.blocks):
            x[lo + 1:hi + 1] = p[lo:hi] + self.q[lo:hi] * x[lo]
        return x[1:]


def _pde_operator(rate: DivisionRate, tau: float, centers: np.ndarray,
                  dx: float) -> _UpwindOperator:
    """The upwind finite-volume operator A on the centres (i + 1/2) dx:

        (A n)_i = -(tau x_{i+1/2} n_i - tau x_{i-1/2} n_{i-1}) / dx
                  + 2 B(2 x_i) ntilde(2 x_i) - B(x_i) n_i

    with zero inflow at x = 0, free outflow at x_max, and ntilde the
    linear interpolation of n at 2 x_i = (2i + 1/2) dx, between cells 2i
    and 2i + 1.  From i = m // 2 on, that lies beyond the grid: no gain.
    """
    m = centers.size
    flux_coef = tau * (np.arange(1, m + 1) * dx)
    r = m // 2
    w = (2.0 * centers[:r] - centers[0]) / dx - 2 * np.arange(r)
    gain = np.zeros((2, m))
    gain[:, :r] = (2.0 * np.asarray(rate(2.0 * centers[:r]))
                   * np.array([1.0 - w, w]))
    diag = -flux_coef / dx - np.asarray(rate(centers))
    diag[0] += gain[0, 0]  # row 0's first gain sits on the diagonal
    gain[0, 0] = 0.0
    return _UpwindOperator(diag, flux_coef[:-1] / dx, gain)


# Inverse iteration converges by the ratio of the two eigenvalues nearest 0
# (a handful of solves on the reference grids, ~50 for B = 0.1 x, tau = 3);
# the cap only stops a pathological operator from looping.
_INVERSE_ITERATIONS = 100


def _pde_steady_state(a: _UpwindOperator, n0: np.ndarray, dx: float):
    """Perron eigenpair of the operator A by inverse iteration at shift 0,
    from the unit-mass start ``n0``.

    Returns (n, lam, l1_rate): the eigenvector clipped to n >= 0 with unit
    mass, lam = sum(A n) dx, and l1_rate = |(A - lam) n|_1 dx, the rate of
    change of the renormalised march evaluated at n.
    """
    # lam < 0 makes A^-1 flip the sign of the iterate, so normalise by the
    # signed sum; clipping inside the loop would destroy the vector.  Stop
    # once the L1 change no longer shrinks or falls below rounding (cells
    # the steady state leaves empty can shrink on down to underflow)
    n = n0
    prev = math.inf
    for _ in range(_INVERSE_ITERATIONS):
        nxt = a.solve(n)
        nxt /= np.sum(nxt) * dx
        change = float(np.sum(np.abs(nxt - n))) * dx
        n = nxt
        if change >= prev or change < np.finfo(float).eps:
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
                           cfl: float = 0.9,
                           stop_rate: float = 1e-8) -> PdeState:
    """Steady state (or a transient) of dn/dt + tau d(x n)/dx =
    2 B(2x) n(2x) - B(x) n(x), first-order upwind finite volumes on cell
    centres (i + 1/2) dx (the operator A of ``_pde_operator``), from n
    uniform on [0, x_max/2].

    With ``t_end=None`` the steady state is solved for directly: the march
    below renormalises mass every step, so its fixed point is the Perron
    eigenvector of A, found by inverse iteration.  ``steps`` is
    then 0, ``time`` infinite, ``l1_rate`` the march's rate of change at
    that vector and ``max_mass_drift_rate`` the eigenvalue's magnitude.
    Raises NoConvergence unless ``l1_rate`` falls below ``stop_rate``.

    With a finite ``t_end`` the same operator is marched explicitly,
    n <- n + dt A n with dt = cfl dx / (tau x_max), clipping at 0,
    renormalising mass every step and recording the pre-normalisation
    drift; the march stops at ``t_end`` or when the L1 rate of change falls
    below ``stop_rate``.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    if not (0 < cfl <= 1):
        raise ValueError("cfl must lie in (0, 1]")
    m = int(round(x_max / dx))
    centers = (np.arange(m) + 0.5) * dx
    n0 = np.where(centers <= x_max / 2.0, 1.0, 0.0)
    n0 /= np.sum(n0) * dx
    a = _pde_operator(rate, tau, centers, dx)

    if t_end is None:
        n, lam, l1_rate = _pde_steady_state(a, n0, dx)
        if not l1_rate < stop_rate:
            raise NoConvergence("PDE steady state misses stop_rate="
                                f"{stop_rate:.3e}", l1_rate)
        return PdeState(CurveOnGrid(float(centers[0]), dx, n), math.inf,
                        float(np.sum(n)) * dx, 0, l1_rate, abs(lam), True)

    dt = cfl * dx / (tau * x_max)
    n, steps, l1_rate, drift = _hot.pde_run(
        n0, dt, a, dx, math.ceil(t_end / dt), stop_rate)
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
    """Max relative pointwise error of integral_y^{2y} B N = tau y N(y)
    over the grid's y in [lo, hi] with 2y on the grid (scale-free in N);
    ValueError if there is no such y."""
    x = pde.x
    bn = np.asarray(rate(x)) * pde.values
    cum = np.concatenate([[0.0], np.cumsum((bn[1:] + bn[:-1]) * 0.5 * pde.curve.dx)])
    y = x[(x >= lo) & (x <= hi) & (2 * x <= x[-1])]
    if not y.size:
        raise ValueError(f"no y in [{lo}, {hi}] has 2y on the grid")
    lhs = np.interp(2.0 * y, x, cum) - np.interp(y, x, cum)
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
        return {k: getattr(self, k) for k in (
            "sup_ratio", "arg_sup", "small_set_bound", "delta", "contracts")}


def verify_drift(params: ClassParams, rate: DivisionRate,
                 bounds: GrowthBounds, x_max: float = 8.0) -> DriftReport:
    """Evaluate (P V)(x, v) by quadrature over the child size and compare
    with delta V(x) beyond r (and report the bound on [0, r)).

    The rate-kernel part integrates out exactly since V depends on size
    only; v enters through the size transition and is scanned over the band.
    Each x of the grid of step 1e-2 integrates on its own grid of 2001
    points starting exactly at x/2, with the log of the integrand assembled
    first so large weights never overflow.
    """
    lam, mcst, r = params.lam, params.m, params.r
    dx = 1e-2

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
    # the band's ends and midpoint: one point for a one-point band
    v_grid = np.unique([bounds.e_min, 0.5 * (bounds.e_min + bounds.e_max),
                        bounds.e_max])

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
        s = np.linspace(0.0, 1.0, 2001)
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
