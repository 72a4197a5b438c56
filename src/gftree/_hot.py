"""Hot numerical kernels in numpy: exact bucket sums that no order of the
weights changes (:class:`ExactSums`), the binned kernel sums of the rows of
an (R, n) array (``row_kernel_sums``, one windowed dot product per lattice
point the centers read) or of one sorted row (``kernel_sums``), lifetimes
and the explicit march ``pde_run`` of the PDE's upwind operator.
``BACKEND`` and ``compiled_backend()`` exist for the machine stamp of
``perfbench/run.py``; numpy is the only implementation."""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import curves

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


class ExactSums:
    """Sums of float64 weights into ``size`` buckets, exact whatever the
    order the weights come in, each then rounded once (to nearest, ties to
    even), so a sum equals ``math.fsum`` of its weights.

    A fixed-point accumulator (Higham 2002, *Accuracy and Stability of
    Numerical Algorithms*, ch. 4): a weight of magnitude at least ``low``
    is a multiple of 2^q = ulp(``low``), and below 2^e for ``high`` < 2^e.
    Each weight is cut into limbs of b = 52 - bit_length(``count``) bits
    from 2^q up, each added by ``np.add.at``; while a bucket takes at most
    ``count`` weights, or a row's cumulative sum does, every limb's sum is
    a multiple of its unit below 2^52 units, which float64 holds
    exactly."""

    def __init__(self, size: int, low: float, high: float, count: int):
        self.q = max(math.frexp(low)[1] - 53, -1074) if low > 0 else -1074
        self.b = 52 - count.bit_length()
        limbs = -(-(math.frexp(high)[1] - self.q) // self.b)
        # an array per limb: freeing one (limbs, size) array instead raises
        # glibc's mmap threshold as far, and the study ladder's peak RSS by
        # about 3 MB
        self.limbs = [np.zeros(size) for _ in range(limbs)]

    def add(self, weight: np.ndarray, up: np.ndarray, down=None) -> None:
        """Add each weight to its bucket in ``up`` and, unless ``down`` is
        None, take it off its bucket in ``down``."""
        for k in range(len(self.limbs) - 1, -1, -1):
            unit = math.ldexp(1.0, self.q + self.b * k)
            # exact: the bits of limb k, those below it left in weight
            part = np.trunc(weight / unit) * unit if k else weight
            np.add.at(self.limbs[k], up, part)
            if down is not None:
                np.subtract.at(self.limbs[k], down, part)
            weight = weight - part

    def count(self, index: np.ndarray) -> None:
        """Add 1 to each bucket in ``index``; 1 must lie in [low, high]."""
        np.add.at(self.limbs[-self.q // self.b], index, 1.0)

    def rounded(self, row: int = 0) -> np.ndarray:
        """The sums, or with ``row`` the cumulative sums along rows of
        ``row`` buckets, each rounded once, in the limbs' memory."""
        limbs = self.limbs
        if row:
            limbs = [np.cumsum(limb.reshape(-1, row), axis=1).reshape(-1)
                     for limb in limbs]
        if len(limbs) == 2:  # one rounding of the exact sum of two floats
            return np.add(limbs[1], limbs[0], out=limbs[1])
        # more limbs: their sum in units of 2^q as Python ints, which a
        # true division by 2^-q rounds once
        whole = sum(np.ldexp(limb, -self.q - self.b * k).astype(np.int64)
                    .astype(object) << self.b * k
                    for k, limb in enumerate(limbs))
        shift = 1 << abs(self.q)
        return (whole / shift if self.q < 0 else whole * shift
                ).astype(np.float64)


BINS_PER_BANDWIDTH = 80  # lattice resolution of the binned kernel sums
PAIR_ROWS = 8  # rows whose pairs one np.add.at sums: they stay in cache


def kernel_sums(sizes_sorted: np.ndarray, centers: np.ndarray, h: float,
                radius: float, scale: float) -> np.ndarray:
    """:func:`row_kernel_sums` of one row, given as a 1-d array."""
    return row_kernel_sums(sizes_sorted[None], centers, h, radius, scale)[0]


def _pair_sums(out: np.ndarray, batch, centers: np.ndarray, h: float,
               reach: float) -> None:
    """Add to the (row, center) cells of the flat ``out`` the kernel value
    of each size in reach of each center, from the ``(row, ascending
    sizes)`` pairs ``batch``."""
    rows = np.array([r for r, _ in batch])
    parts = [p for _, p in batch]
    lo = np.array([np.searchsorted(p, centers - reach, side="left")
                   for p in parts])
    per = (np.array([np.searchsorted(p, centers + reach, side="right")
                     for p in parts]) - lo).ravel()  # per (row, center)
    offset = np.cumsum([0] + [p.size for p in parts[:-1]])
    start = (lo + offset[:, None]).ravel()
    j = np.repeat(np.arange(per.size), per)  # each pair's (row, center)
    k = np.arange(j.size) + np.repeat(start - np.cumsum(per) + per, per)
    z = (np.concatenate(parts)[k] - centers[j % centers.size]) / h
    cell = (rows[:, None] * centers.size + np.arange(centers.size)).ravel()
    np.add.at(out, cell[j], np.exp(-0.5 * z * z))


def row_kernel_sums(sizes: np.ndarray, centers: np.ndarray, h: float,
                    radius: float, scale: float) -> np.ndarray:
    """sum_i K((s_ri - c)/h) for a truncated-Gaussian K, per row r of the
    (R, n) ``sizes``, each in any order, and per center c, by linear
    binning and direct sums (Fan & Marron 1994).

    ``radius`` is the truncation radius in units of h; ``scale`` multiplies
    the raw exp(-z^2/2) values (normalisation is applied by the caller).  A
    first pass sorts ``curves.BLOCK`` sizes of a row at a time to count each
    center's sizes within reach; a center with none gets exactly 0.  A row
    whose pairs within reach are no more than the lattice's bins keeps its
    sizes in reach of some center and sums them sorted, by ``np.add.at``,
    ``PAIR_ROWS`` rows at a time.  The other rows bin their sizes within
    reach, in memory order, ``curves.BLOCK`` at a time across rows, on a
    lattice of spacing <= h/BINS_PER_BANDWIDTH that holds evenly spaced
    centers exactly (others are interpolated): a size a fraction t past
    bin i gives 1 - t to bin i and t to bin i + 1, and each bin's shares
    add in :class:`ExactSums`, so no order of the sizes changes a bin.  One
    ``vecdot`` of the taps over a window view of all rows gives the points
    the centers read, the three around each center when their nearest
    points step by 3 or more, else all of [span, size - span), each the dot
    product of ``np.correlate``'s valid mode.
    """
    reach = radius * h
    c0, c1 = float(centers.min()), float(centers.max())
    window = c0 - reach, c1 + reach
    step = (c1 - c0) / (centers.size - 1) if c1 > c0 else h
    delta = step / np.ceil(step * BINS_PER_BANDWIDTH / h)
    span = int(reach / delta)
    origin = c0 - (span + 1) * delta
    size = int((c1 - origin) / delta) + span + 3
    (rows, n), block = sizes.shape, curves.BLOCK
    pairs = np.zeros((rows, centers.size), dtype=np.intp)
    held = [[] for _ in range(rows)]  # sizes in reach, while pairs <= size
    per = max(1, block // n)  # rows sorted at once
    for r0, a in itertools.product(range(0, rows, per), range(0, n, block)):
        for r, s in enumerate(np.sort(sizes[r0:r0 + per, a:a + block]), r0):
            lo = np.searchsorted(s, centers - reach, side="left")
            hi = np.searchsorted(s, centers + reach, side="right")
            pairs[r] += hi - lo
            if held[r] is not None and pairs[r].sum() <= size:
                covered = np.cumsum(np.bincount(lo, minlength=s.size + 1)
                                    - np.bincount(hi, minlength=s.size + 1))
                held[r].append(s[covered[:-1] > 0])
            else:
                held[r] = None
    summed = pairs.sum(axis=1) <= size  # e.g. h far below the center step
    out = np.zeros(pairs.shape)
    kept = ((r, np.sort(np.concatenate(held[r])))
            for r in np.flatnonzero(summed))
    while batch := list(itertools.islice(kept, PAIR_ROWS)):
        _pair_sums(out.reshape(-1), batch, centers, h, reach)
    del held
    binned = np.flatnonzero(~summed)
    # a size in the window lies at least this far past the origin, in bins,
    # so its t is a multiple of this value's last bit, or of 2^-52
    bins = ExactSums(binned.size * size,
                     min(1.0, (window[0] - origin) / delta), 1.0, n)
    for a in range(0, binned.size * n, block):
        k, j = np.divmod(np.arange(a, min(a + block, binned.size * n)), n)
        s = sizes[binned[k], j]
        inside = (s >= window[0]) & (s <= window[1])
        t = (s[inside] - origin) / delta
        i = t.astype(np.intp)
        t -= i  # each size's fraction past its bin
        i += size * k[inside]
        bins.count(i)
        bins.add(t, i + 1, i)  # t of it moves on to bin i + 1
    w = bins.rounded()
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
