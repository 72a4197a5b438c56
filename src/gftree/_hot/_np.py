"""Pure-numpy implementations of the hot kernels."""

from __future__ import annotations

import numpy as np


def powerlaw_lifetimes(u: np.ndarray, x: np.ndarray, v: np.ndarray,
                       coeff: float, lam: float) -> np.ndarray:
    """Lifetimes via closed-form hazard inversion on unit exponentials.

    u are open-(0,1) uniforms; e = -log(u); t = log1p(lam v e / (c x^lam)) / (lam v).
    """
    t = lam * v  # the steps of that formula, in place
    t *= -np.log(u)
    t /= coeff * np.power(x, lam)
    return np.divide(np.log1p(t, out=t), lam * v, out=t)


BINS_PER_BANDWIDTH = 80  # lattice resolution of the binned kernel sums
PAIR_ROWS = 8  # rows whose pairs one bincount sums: they stay in cache
BIN_BLOCK = 1 << 14  # sizes binned at a time


def kernel_sums(sizes_sorted: np.ndarray, centers: np.ndarray, h: float,
                radius: float, scale: float) -> np.ndarray:
    """:func:`kernel_sums_rows` of one row, given as a 1-d array."""
    return kernel_sums_rows(sizes_sorted[None], centers, h, radius, scale)[0]


def kernel_sums_rows(sizes_sorted: np.ndarray, centers: np.ndarray, h: float,
                     radius: float, scale: float) -> np.ndarray:
    """sum_i K((s_ri - c)/h) for a truncated-Gaussian K, per row r and
    center c, by linear binning and direct sums (Fan & Marron 1994).

    ``radius`` is the truncation radius in units of h; ``scale`` multiplies
    the raw exp(-z^2/2) values (normalisation is applied by the caller).
    Rows must be sorted ascending, so each bin sums in a canonical order.
    Only sizes within reach of a center are binned, on a lattice of spacing
    <= h/BINS_PER_BANDWIDTH that holds evenly spaced centers exactly (others
    are interpolated); a center with no size within radius*h gets exactly 0.
    Row-offset ``np.add.at``s bin every row, ``BIN_BLOCK`` sizes at a time
    in ``bincount``'s order; one ``vecdot`` of the taps over a window view
    of all rows gives the points the centers read, the three around each
    center when their nearest points step by 3 or more, else all of
    [span, size - span), each the dot product of ``np.correlate``'s valid
    mode.  A row whose pairs within reach are no more than the bins sums
    them instead, ``PAIR_ROWS`` rows to a (row, center)-offset ``bincount``.
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
    summed_rows = np.flatnonzero(summed)
    for a in range(0, summed_rows.size, PAIR_ROWS):
        rows = summed_rows[a:a + PAIR_ROWS]
        per = pairs[rows].ravel()  # per (row, center), row-major
        j = np.repeat(np.arange(per.size), per)  # each pair's (row, center)
        start = (lo[rows] + sizes_sorted.shape[1] * rows[:, None]).ravel()
        k = np.arange(j.size) + np.repeat(start - np.cumsum(per) + per, per)
        z = (sizes_sorted.ravel()[k] - centers[j % centers.size]) / h
        out[rows] = np.bincount(j, np.exp(-0.5 * z * z), per.size).reshape(
            rows.size, centers.size)
    binned = np.flatnonzero(~summed)
    upper, w = np.zeros(binned.size * size), np.zeros(binned.size * size)
    for k, r in enumerate(binned):
        part = sizes_sorted[r, lo[r].min():hi[r].max()]
        for a in range(0, part.size, BIN_BLOCK):
            t = (part[a:a + BIN_BLOCK] - origin) / delta
            i = t.astype(np.intp)
            t -= i  # each size's fraction past its bin
            i += size * k
            np.add.at(upper, i, t)  # the shares of bins i + 1
            np.add.at(w, i, np.subtract(1.0, t, out=t))
    w[1:] += upper[:-1]
    taps = np.exp(-0.5 * (np.arange(-span, span + 1) * (delta / h)) ** 2)
    windows = np.lib.stride_tricks.sliding_window_view(
        w.reshape(-1, size), taps.size, axis=1)  # point q is window q - span
    x = (centers - origin) / delta
    near = np.rint(x).astype(np.intp)
    stride = int(near[1] - near[0]) if near.size > 1 else 3
    if stride >= 3 and np.all(np.diff(near) == stride):  # no overlap
        xp = (near[:, None] + np.arange(-1, 2)).ravel()
        first = near[0] - 1 - span
        table = np.stack([np.vecdot(windows[:, a::stride][:, :x.size], taps)
                          for a in range(first, first + 3)], axis=2)
    else:
        xp = np.arange(span, size - span)
        table = np.vecdot(windows, taps)
    for r, fp in zip(binned, table):
        out[r] = np.interp(x, xp, fp.ravel())
    return np.where(hi > lo, out, 0.0) * scale


def pde_run(n: np.ndarray, dt: float, operator, dx: float, max_steps: int,
            stop_rate: float):
    """Explicit steps n <- n + dt (operator @ n) of the PDE's upwind
    operator, each clipped at 0 and renormalised to unit mass.

    Returns (n, steps_done, last_l1_rate, max_mass_drift_rate).
    """
    max_drift = 0.0
    rate = np.inf
    steps = 0
    for steps in range(1, max_steps + 1):
        n_new = n + dt * (operator @ n)
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
