"""Hot numerical kernels in numpy: the binned kernel sums of rows given a
sorted piece at a time (``kernel_sums_pieces``, one windowed dot product
per lattice point the centers read), of sorted rows (``kernel_sums_rows``)
or of one (``kernel_sums``), lifetimes and the explicit march
``pde_run`` of the PDE's upwind operator.  ``BACKEND`` and
``compiled_backend()`` exist for the machine stamp of
``perfbench/run.py``; numpy is the only implementation."""

from __future__ import annotations

import itertools

import numpy as np

BACKEND = "numpy"


def compiled_backend():
    """Always None: there is no compiled extension."""
    return None


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
PAIR_ROWS = 8  # row pieces whose pairs one np.add.at sums: they stay in cache
BIN_BLOCK = 1 << 14  # sizes binned at a time


def kernel_sums(sizes_sorted: np.ndarray, centers: np.ndarray, h: float,
                radius: float, scale: float) -> np.ndarray:
    """:func:`kernel_sums_rows` of one row, given as a 1-d array."""
    return kernel_sums_rows(sizes_sorted[None], centers, h, radius, scale)[0]


def kernel_sums_rows(sizes_sorted: np.ndarray, centers: np.ndarray, h: float,
                     radius: float, scale: float) -> np.ndarray:
    """:func:`kernel_sums_pieces` of the rows of a 2-d array, each sorted
    ascending and taken whole."""
    return kernel_sums_pieces(
        [lambda lo, hi, ordered=True, s=s: (s,) for s in sizes_sorted],
        centers, h, radius, scale)


def _pair_sums(out: np.ndarray, batch, centers: np.ndarray, h: float,
               reach: float) -> None:
    """Add to the (row, center) cells of the flat ``out`` the kernel value
    of each size in reach of each center, from the ``(row, ascending
    sizes)`` pieces ``batch``, a piece's sizes in order and after those of
    an earlier piece of its row."""
    rows = np.array([r for r, _ in batch])
    parts = [p for _, p in batch]
    lo = np.array([np.searchsorted(p, centers - reach, side="left")
                   for p in parts])
    per = (np.array([np.searchsorted(p, centers + reach, side="right")
                     for p in parts]) - lo).ravel()  # per (piece, center)
    offset = np.cumsum([0] + [p.size for p in parts[:-1]])
    start = (lo + offset[:, None]).ravel()
    j = np.repeat(np.arange(per.size), per)  # each pair's (piece, center)
    k = np.arange(j.size) + np.repeat(start - np.cumsum(per) + per, per)
    z = (np.concatenate(parts)[k] - centers[j % centers.size]) / h
    cell = (rows[:, None] * centers.size + np.arange(centers.size)).ravel()
    np.add.at(out, cell[j], np.exp(-0.5 * z * z))


def kernel_sums_pieces(rows, centers: np.ndarray, h: float, radius: float,
                       scale: float) -> np.ndarray:
    """sum_i K((s_ri - c)/h) for a truncated-Gaussian K, per row r and
    center c, by linear binning and direct sums (Fan & Marron 1994).

    ``rows[r](lo, hi)`` yields row r's sizes in [lo, hi], and maybe others,
    as ascending arrays in ascending order, so each bin sums in a canonical
    order; ``rows[r](lo, hi, False)`` may yield the ascending arrays in any
    order, to count each center's sizes in reach first.  ``radius`` is the
    truncation radius in units of h; ``scale`` multiplies the raw
    exp(-z^2/2) values (normalisation is applied by the caller).  Only
    sizes within reach of a center are
    binned, on a lattice of spacing <= h/BINS_PER_BANDWIDTH that holds
    evenly spaced centers exactly (others are interpolated); a center with
    no size within radius*h gets exactly 0.  Row-offset ``np.add.at``s bin
    every row, ``BIN_BLOCK`` sizes at a time in ``bincount``'s order; one
    ``vecdot`` of the taps over a window view of all rows gives the points
    the centers read, the three around each center when their nearest
    points step by 3 or more, else all of [span, size - span), each the dot
    product of ``np.correlate``'s valid mode.  A row whose pairs within
    reach are no more than the bins sums them instead by ``np.add.at``,
    ``PAIR_ROWS`` pieces at a time.
    """
    reach = radius * h
    c0, c1 = float(centers.min()), float(centers.max())
    window = c0 - reach, c1 + reach
    pairs = np.zeros((len(rows), centers.size), dtype=np.intp)
    for count, row in zip(pairs, rows):
        for s in row(*window, False):
            count += np.searchsorted(s, centers + reach, side="right")
            count -= np.searchsorted(s, centers - reach, side="left")
    step = (c1 - c0) / (centers.size - 1) if c1 > c0 else h
    delta = step / np.ceil(step * BINS_PER_BANDWIDTH / h)
    span = int(reach / delta)
    origin = c0 - (span + 1) * delta
    size = int((c1 - origin) / delta) + span + 3
    summed = pairs.sum(axis=1) <= size  # e.g. h far below the center step
    out = np.zeros(pairs.shape)
    pieces = ((r, s) for r in np.flatnonzero(summed) for s in rows[r](*window))
    while batch := list(itertools.islice(pieces, PAIR_ROWS)):
        _pair_sums(out.reshape(-1), batch, centers, h, reach)
    binned = np.flatnonzero(~summed)
    upper, w = np.zeros(binned.size * size), np.zeros(binned.size * size)
    for k, r in enumerate(binned):
        for s in rows[r](*window):
            part = s[np.searchsorted(s, window[0], side="left"):
                     np.searchsorted(s, window[1], side="right")]
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
    return np.where(pairs > 0, out, 0.0) * scale


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
