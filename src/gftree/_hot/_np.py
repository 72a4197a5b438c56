"""Pure-numpy implementations of the hot kernels."""

from __future__ import annotations

import numpy as np


def powerlaw_lifetimes(u: np.ndarray, x: np.ndarray, v: np.ndarray,
                       coeff: float, lam: float) -> np.ndarray:
    """Lifetimes via closed-form hazard inversion on unit exponentials.

    u are open-(0,1) uniforms; e = -log(u); t = log1p(lam v e / (c x^lam)) / (lam v).
    """
    e = -np.log(u)
    return np.log1p(lam * v * e / (coeff * np.power(x, lam))) / (lam * v)


BINS_PER_BANDWIDTH = 80  # lattice resolution of the binned kernel sums


def kernel_sums(sizes_sorted: np.ndarray, centers: np.ndarray, h: float,
                radius: float, scale: float) -> np.ndarray:
    """:func:`kernel_sums_rows` of one row, given as a 1-d array."""
    return kernel_sums_rows(sizes_sorted[None], centers, h, radius, scale)[0]


def kernel_sums_rows(sizes_sorted: np.ndarray, centers: np.ndarray, h: float,
                     radius: float, scale: float) -> np.ndarray:
    """sum_i K((s_ri - c)/h) for a truncated-Gaussian K, per row r and
    center c, by linear binning and a direct correlation (Fan & Marron 1994).

    ``radius`` is the truncation radius in units of h; ``scale`` multiplies
    the raw exp(-z^2/2) values (normalisation is applied by the caller).
    Rows must be sorted ascending, so each bin sums in a canonical order.
    Only sizes within reach of a center are binned, on a lattice of spacing
    <= h/BINS_PER_BANDWIDTH that holds evenly spaced centers exactly (others
    are interpolated); a center with no size within radius*h gets exactly 0.
    One row-offset ``bincount`` bins every row; each row's valid-mode
    correlation with the symmetric taps gives the lattice points
    [span, size - span), the only ones the centers read.  A row whose
    pairs within reach are no more than the bins sums them instead.
    """
    reach = radius * h
    lo = np.array([np.searchsorted(s, centers - reach, side="left")
                   for s in sizes_sorted])
    hi = np.array([np.searchsorted(s, centers + reach, side="right")
                   for s in sizes_sorted])
    c0, c1 = float(centers.min()), float(centers.max())
    step = (c1 - c0) / (centers.size - 1) if c1 > c0 else h
    delta = step / np.ceil(step * BINS_PER_BANDWIDTH / h)
    span = int(reach / delta)
    origin = c0 - (span + 1) * delta
    size = int((c1 - origin) / delta) + span + 3
    pairs = hi - lo
    summed = pairs.sum(axis=1) <= size  # e.g. h far below the center step
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
    t -= i  # each size's fraction past its bin
    i += np.repeat(size * np.arange(binned.size), [p.size for p in parts])
    bins = binned.size * size
    w = np.bincount(i, 1.0 - t, bins) + np.bincount(i + 1, t, bins)
    taps = np.exp(-0.5 * (np.arange(-span, span + 1) * (delta / h)) ** 2)
    x = (centers - origin) / delta
    for r, row in zip(binned, w.reshape(-1, size)):
        out[r] = np.interp(x, np.arange(span, size - span),
                           np.correlate(row, taps, "valid"))
    return np.where(hi > lo, out, 0.0) * scale


def pde_run(n: np.ndarray, dt: float, flux_coef: np.ndarray,
            src_rate: np.ndarray, sink_rate: np.ndarray,
            src_idx: np.ndarray, src_w: np.ndarray, dx: float,
            max_steps: int, stop_rate: float):
    """Explicit upwind steps of the conservative transport-fragmentation
    scheme, with per-step mass renormalisation.

    dn_i/dt = -(F_{i+1/2} - F_{i-1/2})/dx + src_rate_i * ntilde(2 x_i)
              - sink_rate_i * n_i,
    where F_{i+1/2} = flux_coef_i * n_i (upwind, velocity >= 0) and
    ntilde(2 x_i) = (1 - src_w_i) n_{src_idx_i} + src_w_i n_{src_idx_i + 1},
    zero when 2 x_i falls beyond the grid (encoded as src_idx < 0).

    Returns (n, steps_done, last_l1_rate, max_mass_drift_rate).
    """
    n = n.copy()
    m = n.size
    valid = src_idx >= 0
    idx = np.where(valid, src_idx, 0)
    w = src_w
    max_drift = 0.0
    rate = np.inf
    steps = 0
    flux = np.empty(m + 1)
    flux[0] = 0.0
    for steps in range(1, max_steps + 1):
        flux[1:] = flux_coef * n
        ntilde = np.where(valid, (1.0 - w) * n[idx] + w * n[np.minimum(idx + 1, m - 1)], 0.0)
        n_new = n + dt * (-(flux[1:] - flux[:-1]) / dx
                          + src_rate * ntilde - sink_rate * n)
        np.maximum(n_new, 0.0, out=n_new)
        # the upwind scheme conserves the plain cell sum exactly (telescoping
        # fluxes), so that is the mass the renormalisation tracks
        mass = float(np.sum(n_new)) * dx
        drift = abs(mass - 1.0) / dt
        if drift > max_drift:
            max_drift = drift
        if mass > 0:
            n_new /= mass
        rate = float(np.sum(np.abs(n_new - n)) * dx / dt)
        n = n_new
        if rate < stop_rate:
            break
    return n, steps, rate, max_drift
