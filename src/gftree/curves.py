"""Uniform-grid curves and their TSV serialisation, plus the float format
of every text writer and the CSV column loader of the genealogy and lineage
readers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CurveOnGrid:
    """A function sampled on the uniform grid x0, x0 + dx, x0 + 2 dx, ..."""

    x0: float
    dx: float
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1 or values.size < 1:
            raise ValueError("values must be a non-empty 1-d array")
        if not np.all(np.isfinite(values)):
            raise ValueError("curve values must be finite")
        if self.dx <= 0:
            raise ValueError("dx must be positive")
        object.__setattr__(self, "values", values)

    @property
    def x(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.values.size)

    def __len__(self) -> int:
        return self.values.size

    def interp(self, xq) -> np.ndarray:
        """Linear interpolation, clamped at the ends."""
        return np.interp(xq, self.x, self.values)

    def mass(self) -> float:
        """Trapezoid integral over the grid."""
        return float(np.trapezoid(self.values, dx=self.dx))


# The printf-style format of every float the text writers emit: 17
# significant digits round-trip float64 exactly.  ``FLOAT_FORMAT % x`` and
# ``format(x, ".17g")`` both end in CPython's ``PyOS_double_to_string``.
FLOAT_FORMAT = "%.17g"


def float_repr(value: float) -> str:
    """Decimal form with 17 significant digits: round-trips float64 exactly."""
    return FLOAT_FORMAT % value


def write_curve_tsv(path, columns: dict[str, np.ndarray]) -> None:
    """Write named columns as TSV, 17-significant-digit decimals.

    Each column is formatted by its dtype kind: bools as ``1``/``0`` and
    integers in full (``%d`` of the Python scalars), anything else through
    float64 as :data:`FLOAT_FORMAT`.  The table is one ``%`` call.
    """
    from itertools import chain

    names = list(columns)
    cols = [np.asarray(columns[k]) for k in names]
    n = cols[0].size
    if any(c.size != n for c in cols):
        raise ValueError("all columns must have equal length")
    formats, cells = [], []
    for c in cols:
        if c.dtype.kind in "biu":
            formats.append("%d")
        else:
            formats.append(FLOAT_FORMAT)
            c = c.astype(np.float64, copy=False)
        cells.append(c.tolist())
    row = "\t".join(formats) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(names) + "\n")
        fh.write(row * n % tuple(chain.from_iterable(zip(*cells))))


def load_csv_columns(fh, dtype, usecols) -> np.ndarray:
    """Parse the rest of an open CSV file in one pass of numpy's C reader.

    Fields follow the ``csv`` module's default dialect: comma-separated,
    ``"``-quoted with ``""`` as an escaped quote; ``\\n``, ``\\r\\n`` and
    ``\\r`` all end a line, and empty lines are skipped.  Floats are parsed
    by ``PyOS_string_to_double``, the routine behind ``float()``.  Raises
    ``ValueError`` on a cell that does not convert or a row too short for
    ``usecols``.  Returns a 1-d array of ``dtype`` with one element per row.
    """
    import warnings

    with warnings.catch_warnings():
        # an empty table is for the caller to judge
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        return np.loadtxt(fh, dtype=dtype, delimiter=",", quotechar='"',
                          comments=None, usecols=usecols, ndmin=1)
