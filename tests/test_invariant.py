import math
import warnings

import numpy as np
import pytest
from scipy import integrate

from gftree import _hot, invariant
from gftree.curves import CurveOnGrid
from gftree.invariant import (DegenerateDenominator, InvariantSolution,
                              NoConvergence, QuadratureOverflow,
                              TransitionEvaluator, _pde_operator,
                              _pde_steady_state, flux_identity_error,
                              invariant_fixed_point,
                              reconstruct_division_rate,
                              solve_conservative_pde,
                              steady_state_relation_error, verify_drift)
from gftree.model import (ClassParams, DiracGrowth, GaussianIncrementGrowth,
                          GrowthBounds, PowerLawRate, TabulatedRate,
                          UniformIncrementGrowth, contraction_coefficient)
from gftree.trees import extract_observations, simulate_full_tree

SQUARE = PowerLawRate(1.0, 2.0)
SCALAR_BOUNDS = GrowthBounds(1.0, 1.0)


@pytest.fixture(scope="module")
def square_invariant():
    return invariant_fixed_point(SQUARE, 1.0)


@pytest.fixture(scope="module")
def square_pde():
    return solve_conservative_pde(SQUARE, 1.0)


# ---------------------------------------------------------------------------
# Transition density
# ---------------------------------------------------------------------------

def test_density_vanishes_below_half_parent():
    ev = TransitionEvaluator(SQUARE, DiracGrowth(1.0, SCALAR_BOUNDS),
                             SCALAR_BOUNDS)
    assert ev.size_density(1.0, 1.0, 0.49) == 0.0
    assert ev.size_density(1.0, 1.0, 0.51) > 0.0


def test_density_normalisation_dirac_collapse():
    ev = TransitionEvaluator(SQUARE, DiracGrowth(1.0, SCALAR_BOUNDS),
                             SCALAR_BOUNDS)
    val, _ = integrate.quad(lambda y: ev.size_density(1.0, 1.0, y),
                            0.5, 30.0, limit=200)
    assert val == pytest.approx(1.0, abs=1e-6)


def test_density_normalisation_random_states(rng):
    bounds = GrowthBounds(0.2, 3.0)
    kernel = GaussianIncrementGrowth(0.5, bounds)
    ev = TransitionEvaluator(SQUARE, kernel, bounds)
    for _ in range(20):
        x = rng.uniform(0.2, 3.0)
        v = rng.uniform(0.2, 3.0)
        size_mass, _ = integrate.quad(lambda y: ev.size_density(x, v, y),
                                      x / 2.0, 30.0, limit=200)
        rate_mass, _ = integrate.quad(lambda w: ev.growth_density(v, w),
                                      0.2, 3.0)
        assert size_mass * rate_mass == pytest.approx(1.0, abs=1e-6)


def test_joint_density_factorises(rng):
    bounds = GrowthBounds(0.2, 3.0)
    kernel = UniformIncrementGrowth(2.0, 0.5, bounds)
    ev = TransitionEvaluator(SQUARE, kernel, bounds)
    val = ev.density(1.0, 1.5, 0.8, 1.7)
    assert val == pytest.approx(
        ev.size_density(1.0, 1.5, 0.8) * ev.growth_density(1.5, 1.7),
        rel=1e-12)
    with pytest.raises(ValueError):
        TransitionEvaluator(SQUARE, DiracGrowth(1.0, SCALAR_BOUNDS),
                            SCALAR_BOUNDS).growth_density(1.0, 1.0)


def test_density_mode_matches_stationarity_condition():
    # d/dy log p vanishes where 1/y = B(2y)/(v y), i.e. at y = sqrt(v)/2 for
    # the square rate; the mode clamps to the support edge x/2 beyond it
    ev = TransitionEvaluator(SQUARE, DiracGrowth(1.0, SCALAR_BOUNDS),
                             SCALAR_BOUNDS)
    for v, x in ((1.0, 1.0), (1.0, 0.6)):
        grid = np.linspace(x / 2.0, 3.0, 200_001)
        dens = ev.size_density(x, 1.0, grid)
        y_star = grid[np.argmax(dens)]
        expected = max(math.sqrt(v) / 2.0, x / 2.0)
        assert y_star == pytest.approx(expected, abs=2 * (grid[1] - grid[0]))


# ---------------------------------------------------------------------------
# Invariant fixed point
# ---------------------------------------------------------------------------

def test_invariant_is_a_probability_density(square_invariant):
    mass = np.trapezoid(square_invariant.values, dx=square_invariant.curve.dx)
    assert mass == pytest.approx(1.0, abs=1e-12)
    assert np.all(square_invariant.values >= 0.0)
    assert square_invariant.residual < 1e-10


def test_invariant_is_unimodal_with_expected_support(square_invariant):
    vals = square_invariant.values
    x = square_invariant.x
    peak = int(np.argmax(vals))
    assert 0.3 < x[peak] < 1.2
    # unimodal up to tail noise: increasing before, decreasing after
    smooth = np.convolve(vals, np.ones(5) / 5.0, mode="same")
    assert np.all(np.diff(smooth[20:peak]) > -1e-9)
    assert np.all(np.diff(smooth[peak:1600]) < 1e-9)
    inside = (x >= 0.2) & (x <= 3.5)
    mass_outside = 1.0 - np.trapezoid(vals[inside], dx=square_invariant.curve.dx)
    assert mass_outside < 0.005


def test_invariant_is_a_fixed_point(square_invariant):
    # one further kernel application moves the density by less than the
    # convergence tolerance, via an independent dense-quadrature application
    ev = TransitionEvaluator(SQUARE, DiracGrowth(1.0, SCALAR_BOUNDS),
                             SCALAR_BOUNDS)
    x = square_invariant.x
    dx = square_invariant.curve.dx
    sub = x[::4]
    dens_matrix = ev.size_density(x[None, :], 1.0, sub[:, None])
    integrand = dens_matrix * square_invariant.values[None, :]
    pushed = np.trapezoid(integrand, x, axis=1)
    # the integrand stops exactly at x = 2 y (a grid node): take back the
    # half cell the trapezoid rule adds across the jump
    boundary = ev.size_density(2.0 * sub, 1.0, sub) \
        * square_invariant.curve.interp(2.0 * sub)
    pushed -= 0.5 * dx * boundary
    diff = np.trapezoid(np.abs(pushed - square_invariant.curve.interp(sub)),
                        sub)
    assert diff < 1e-4  # quadrature-limited independent check


def test_invariant_matches_simulated_sizes(dirac_spec, square_invariant):
    tree = simulate_full_tree(dirac_spec, 16, seed=99)
    sizes = np.sort(extract_observations(tree).size_birth)
    grid = square_invariant.x
    dx = square_invariant.curve.dx
    cdf_model = np.concatenate([[0.0], np.cumsum(
        (square_invariant.values[1:] + square_invariant.values[:-1]) * 0.5 * dx)])
    cdf_at = np.interp(sizes, grid, cdf_model)
    empirical = np.arange(1, sizes.size + 1) / sizes.size
    assert np.max(np.abs(cdf_at - empirical)) < 0.01


def test_invariant_no_convergence_raises():
    with pytest.raises(NoConvergence):
        invariant_fixed_point(SQUARE, 1.0, dx=0.05, tol=1e-14,
                              max_iterations=3)


@pytest.mark.parametrize("tau", [0.01, 1e-9])
def test_invariant_size_kernel_overflow_raises_before_iterating(monkeypatch,
                                                                tau):
    # e^{Phi(x/2)} overflows on [0, 5] for a small tau: refused before the
    # first power step, which would iterate on nan, and without a warning
    calls = []
    apply = invariant._apply_size_kernel
    monkeypatch.setattr(invariant, "_apply_size_kernel",
                        lambda *a: calls.append(1) or apply(*a))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NoConvergence, match="overflows"):
            invariant_fixed_point(SQUARE, tau)
    assert not calls


# ---------------------------------------------------------------------------
# Closed-loop reconstruction
# ---------------------------------------------------------------------------

def test_reconstruct_constant_density_gives_tau():
    flat = InvariantSolution(CurveOnGrid(0.0, 0.01, np.full(1001, 0.1)),
                             0.0, 1)
    y = np.arange(1.0, 3.0, 0.01)
    rec = reconstruct_division_rate(flat, 0.7, y)
    assert np.allclose(rec.values, 0.7, rtol=1e-9)


def test_reconstruct_recovers_square_rate(square_invariant):
    y = np.arange(1.0, 3.0 + 1e-9, 2.5e-3)
    rec = reconstruct_division_rate(square_invariant, 1.0, y)
    rel = np.abs(rec.values - y ** 2) / y ** 2
    assert rel.max() < 0.01


def test_closed_loop_at_other_growth_rate():
    inv = invariant_fixed_point(SQUARE, 2.0)
    assert inv.residual < 1e-10
    y = np.arange(1.0, 3.0, 0.01)
    rec = reconstruct_division_rate(inv, 2.0, y)
    assert np.max(np.abs(rec.values - y ** 2) / y ** 2) < 0.01


def test_reconstruct_is_linear_in_tau(square_invariant):
    y = np.arange(1.0, 2.0, 0.01)
    one = reconstruct_division_rate(square_invariant, 1.0, y)
    two = reconstruct_division_rate(square_invariant, 2.0, y)
    assert np.allclose(two.values, 2.0 * one.values, rtol=1e-12)


def test_reconstruct_degenerate_denominator():
    vals = np.zeros(1001)
    vals[100:200] = 1.0  # support [1, 2] on a 0.01 grid
    vals /= np.trapezoid(vals, dx=0.01)
    sol = InvariantSolution(CurveOnGrid(0.0, 0.01, vals), 0.0, 1)
    with pytest.raises(DegenerateDenominator):
        reconstruct_division_rate(sol, 1.0, np.arange(8.0, 9.0, 0.01))


# ---------------------------------------------------------------------------
# Conservative PDE
# ---------------------------------------------------------------------------

def test_pure_transport_conserves_mass():
    zero_rate = TabulatedRate([1.0, 2.0], [0.0, 0.0])
    state = solve_conservative_pde(zero_rate, 1.0, x_max=4.0, dx=2e-3,
                                   t_end=0.5 * math.log(2.0), cfl=0.9)
    # profile starts on [0, 2]: nothing reaches the outflow before
    # t = log(2), so the pre-normalisation drift stays at rounding level
    assert state.max_mass_drift_rate < 1e-9
    assert state.mass == pytest.approx(1.0, abs=1e-12)


def test_pde_reaches_steady_state(square_pde):
    assert square_pde.converged
    assert square_pde.l1_rate < 1e-8
    assert np.all(square_pde.values >= 0.0)
    assert square_pde.mass == pytest.approx(1.0, abs=1e-9)


def test_steady_state_matches_invariant(square_invariant, square_pde):
    err = steady_state_relation_error(square_invariant, square_pde, SQUARE,
                                      0.5, 2.5)
    assert err < 0.02


def test_flux_identity(square_pde):
    err = flux_identity_error(square_pde, SQUARE, 1.0, 0.5, 2.5)
    assert err < 0.02


def test_relation_error_halves_under_refinement():
    errs = []
    for dx in (5e-3, 2.5e-3):
        inv = invariant_fixed_point(SQUARE, 1.0, dx=dx)
        pde = solve_conservative_pde(SQUARE, 1.0, dx=dx)
        errs.append(steady_state_relation_error(inv, pde, SQUARE, 0.5, 2.5))
    assert errs[1] <= 0.6 * errs[0]


@pytest.mark.parametrize("rate", [SQUARE, PowerLawRate(2.0, 1.0)],
                         ids=["x^2", "2*x"])
def test_direct_steady_state_matches_march(rate):
    # the direct solve against the retained explicit march, run until its
    # L1 rate of change drops below 1e-8 (~0.3 s per rate at dx=1e-2)
    direct = solve_conservative_pde(rate, 1.0, dx=1e-2)
    march = solve_conservative_pde(rate, 1.0, dx=1e-2, t_end=300.0)
    assert march.converged and march.steps > 0
    assert np.max(np.abs(direct.values - march.values)) <= 1e-8
    assert np.all(direct.values >= 0.0)
    assert direct.steps == 0
    assert direct.l1_rate < 1e-12


def test_steady_state_no_convergence_fails_fast():
    with pytest.raises(NoConvergence):
        solve_conservative_pde(SQUARE, 1.0, dx=1e-2, stop_rate=0.0)


def _csc_operator(rate, tau, centers, dx):
    """Reference: the operator as the CSC matrix it was built as before the
    block solve, for its product (column by column) and its sparse LU."""
    from scipy.sparse import csc_matrix, diags

    m = centers.size
    flux_coef = tau * (np.arange(1, m + 1) * dx)
    pos = (2.0 * centers - centers[0]) / dx
    k = np.floor(pos).astype(np.int64)
    rows = np.flatnonzero(k < m - 1)
    k = k[rows]
    src = 2.0 * np.asarray(rate(2.0 * centers))[rows]
    w = pos[rows] - k
    gain = csc_matrix(
        (np.concatenate([src * (1.0 - w), src * w]),
         (np.concatenate([rows, rows]), np.concatenate([k, k + 1]))),
        shape=(m, m))
    return diags([-flux_coef / dx - np.asarray(rate(centers)),
                  flux_coef[:-1] / dx], [0, -1], format="csc") + gain


class _SpluOperator:
    """The reference matrix with ``@`` and a sparse-LU ``solve``."""

    def __init__(self, matrix):
        from scipy.sparse.linalg import splu

        self.matrix, self.solve = matrix, splu(matrix).solve

    def __matmul__(self, n):
        return self.matrix @ n


def _grid(dx, x_max=5.0):
    m = int(round(x_max / dx))
    centers = (np.arange(m) + 0.5) * dx
    n0 = np.where(centers <= x_max / 2.0, 1.0, 0.0)
    return centers, n0 / (np.sum(n0) * dx)


TABULATED = TabulatedRate([0.5, 1.0, 2.0, 4.0], [0.0, 0.5, 3.0, 10.0])


@pytest.mark.parametrize("rate, tau, dx, floor", [
    (SQUARE, 1.0, 1e-3, False),
    (PowerLawRate(2.0, 1.0), 0.5, 1e-3, False),
    (PowerLawRate(5.0, 3.0), 0.2, 1e-3, False),
    (PowerLawRate(20.0, 4.0), 0.05, 1e-3, False),
    # no division below x = 0.5: the cells there empty by a factor ~1e-3
    # per solve, so the L1 change shrinks until it is below rounding
    (TABULATED, 1.0, 1e-3, False),
    # eigenvalue ratio 0.5: about 50 inverse iterations
    (PowerLawRate(0.1, 1.0), 3.0, 2.5e-3, False),
    # the same at dx 1e-4: each solver stops where its L1 change stops
    # shrinking, with l1_rate ~1e-11 (8.8e-12 here, 1.0e-11 for the LU)
    # rather than at rounding, and the two steady states were measured
    # 2.4e-11 of the maximum apart, outside 1e-13; so this grid is bounded
    # by its noise floor, 10x the two l1_rates
    (PowerLawRate(0.1, 1.0), 3.0, 1e-4, True),
], ids=["x^2", "2x", "5x^3", "20x^4", "tabulated", "0.1x-tau3",
        "0.1x-tau3-dx1e-4"])
def test_block_solve_matches_sparse_lu(rate, tau, dx, floor):
    # the O(m) block sweep against the retained sparse LU: residual
    # |A x - b|_inf / |b|_inf at most 4x the LU's, steady state within
    # 1e-13 of its maximum (or of the noise floor, where ``floor``)
    centers, n0 = _grid(dx)
    a = _pde_operator(rate, tau, centers, dx)
    ref = _SpluOperator(_csc_operator(rate, tau, centers, dx))
    for b in (n0, np.random.default_rng(5).random(centers.size)):
        def residual(x):
            return np.max(np.abs(ref @ x - b)) / np.max(np.abs(b))
        assert residual(a.solve(b)) <= 4.0 * residual(ref.solve(b))
    n, lam, l1_rate = _pde_steady_state(a, n0, dx)
    ref_n, ref_lam, ref_l1_rate = _pde_steady_state(ref, n0, dx)
    if floor:
        assert l1_rate + ref_l1_rate < 1e-10
    tol = 10.0 * (l1_rate + ref_l1_rate) if floor else 1e-13
    assert np.max(np.abs(n - ref_n)) <= tol * np.max(ref_n)
    assert lam == pytest.approx(ref_lam, rel=1e-9, abs=1e-12)
    assert l1_rate < 1e-8


@pytest.mark.parametrize("rate, tau", [(SQUARE, 1.0), (TABULATED, 1.0),
                                       (PowerLawRate(20.0, 4.0), 0.05)],
                         ids=["x^2", "tabulated", "20x^4"])
def test_operator_product_is_the_csc_product(rate, tau):
    # the banded product adds each row in the CSC column order, so it and
    # a 2,000-step march agree with the reference matrix bit for bit, on
    # odd and even grids
    for dx in (2.5e-3, 5.0 / 1999):
        centers, n0 = _grid(dx)
        a = _pde_operator(rate, tau, centers, dx)
        ref = _csc_operator(rate, tau, centers, dx)
        n = np.random.default_rng(6).random(centers.size)
        assert np.array_equal(a @ n, ref @ n)
        dt = 0.9 * dx / (tau * 5.0)
        ours = _hot.pde_run(n0, dt, a, dx, 2000, 0.0)
        theirs = _hot.pde_run(n0, dt, ref, dx, 2000, 0.0)
        assert np.array_equal(ours[0], theirs[0])
        assert ours[1:] == theirs[1:]


# ---------------------------------------------------------------------------
# Drift condition
# ---------------------------------------------------------------------------

def test_drift_matches_contraction_coefficient():
    params = ClassParams(lam=2.0, r=2.0, m=1.0, ell=1.0, L=5.0)
    report = verify_drift(params, SQUARE, SCALAR_BOUNDS)
    delta = contraction_coefficient(params, SCALAR_BOUNDS)
    # for B = x^2, m = 1, scalar unit rate the ratio attains delta at x = r
    assert report.sup_ratio <= delta * (1.0 + 1e-4)
    assert report.sup_ratio == pytest.approx(delta, rel=1e-3)
    assert report.arg_sup == pytest.approx(params.r, abs=0.02)
    assert report.contracts
    assert report.small_set_bound > 0.0


def test_drift_ratio_continuous_at_r():
    params = ClassParams(lam=2.0, r=2.0, m=1.0, ell=1.0, L=5.0)
    report = verify_drift(params, SQUARE, SCALAR_BOUNDS)
    curve = report.ratio_curve
    k = int(round((params.r - curve.x0) / curve.dx))
    jump = abs(curve.values[k + 1] - curve.values[k - 1])
    local_slope = abs(curve.values[k - 1] - curve.values[k - 3])
    assert jump <= 4.0 * max(local_slope, 1e-6)


def test_drift_sup_decreases_when_m_doubles():
    base = ClassParams(lam=2.0, r=2.0, m=1.0, ell=1.0, L=5.0)
    doubled = ClassParams(lam=2.0, r=2.0, m=2.0, ell=1.0, L=5.0)
    assert (verify_drift(doubled, SQUARE, SCALAR_BOUNDS).sup_ratio
            < verify_drift(base, SQUARE, SCALAR_BOUNDS).sup_ratio)


def test_drift_diverges_for_wide_band():
    params = ClassParams(lam=2.0, r=3.0, m=1.0, ell=1.0, L=5.0)
    with pytest.raises(QuadratureOverflow):
        verify_drift(params, SQUARE, GrowthBounds(0.2, 3.0))


def test_drift_weight_overflow_raises():
    params = ClassParams(lam=2.0, r=2.0, m=60.0, ell=1.0, L=5.0)
    with pytest.raises(QuadratureOverflow):
        verify_drift(params, PowerLawRate(60.0, 2.0), SCALAR_BOUNDS,
                     x_max=40.0)
