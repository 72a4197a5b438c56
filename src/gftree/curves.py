"""Uniform-grid curves and their TSV serialisation, the JSON of every model
and estimator part, the float text and row assembly of every text writer,
and the line count, opener and block loop of the genealogy and lineage
CSV readers."""

from __future__ import annotations

import contextlib
import csv
import warnings
from dataclasses import dataclass, fields

import numpy as np

# Rows or cells per block of every blocked pass: CSV rows parsed and
# checked, estimator cells summed.  Read as ``curves.BLOCK``, so that one
# setting reaches every pass.
BLOCK = 1 << 14


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


def part_json(part) -> dict:
    """A model or estimator part as JSON: its ``json_tag`` (key, value)
    pair and each constructor field but the growth band ``bounds``, which
    the model writes once, and those left None, with arrays as lists."""
    key, tag = part.json_tag
    doc = {key: tag}
    for f in fields(part):
        value = getattr(part, f.name)
        if f.init and f.name != "bounds" and value is not None:
            doc[f.name] = (value.tolist() if isinstance(value, np.ndarray)
                           else value)
    return doc


# The printf-style format of every float the text writers emit: 17
# significant digits round-trip float64 exactly.  ``FLOAT_FORMAT % x`` and
# ``format(x, ".17g")`` both end in CPython's ``PyOS_double_to_string``;
# :func:`float_text` gives the same bytes for a whole column at once.
FLOAT_FORMAT = "%.17g"

# b"0000" .. b"9999" as little-endian 4-byte words (byte k: digit k)
_DIGITS4 = sum(np.arange(48, 58, dtype="<u4").reshape(-1, *[1] * (3 - k))
               << 8 * k for k in range(4)).ravel()
_POW10 = np.array([float(10 ** s) for s in range(21)])  # all exact
# _DECADES[k + 5]: the least float64 not below 10**k, for k in [-5, 17]
_DECADES = np.array([float(f"1e{k}") for k in range(-5, 18)])
# below this many values, numpy's per-call cost outweighs that of ``%``
_FEW = 192


def _digits17(x):
    """``(n, e)`` for ``x`` in [1e-4, 1e16): ``e`` is the decimal exponent
    and ``n`` the int64 of ``x * 10**(16 - e)`` rounded half to even."""
    e = np.floor(np.log10(x)).astype(np.int64)
    # log10 may misplace a value next to a power of ten
    e[x < _DECADES[e + 5]] -= 1
    e[x >= _DECADES[e + 6]] += 1
    # x * 10**s as hi + lo exactly, by Dekker's two-product (numpy never
    # fuses these products into an FMA); hi is an even integer here
    def split(a):  # Veltkamp's split into two 26-bit halves
        c = a * 134217729.0  # 2**27 + 1
        return c - (c - a), a - (c - (c - a))

    p = _POW10[16 - e]
    hi = x * p
    (xh, xl), (ph, pl) = split(x), split(p)
    lo = ((xh * ph - hi) + xh * pl + xl * ph) + xl * pl
    # n never rounds up to 10**17: below each power of ten in range, the
    # nearest float64 lies more than half a 17th digit away
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64), e


def float_text(values) -> np.ndarray:
    """``(FLOAT_FORMAT % v).encode()`` of each value, as a 1-d ``S`` array.

    Values in [1e-4, 1e16) get correctly rounded digits from exact float64
    arithmetic, laid out as ``%g`` does; ``%`` formats the others (0,
    negatives, nan, inf, the very small and the very large) and any array
    shorter than ``_FEW``.
    """
    x = np.asarray(values, dtype=np.float64).ravel()
    if x.size < _FEW:
        return _percent_text(FLOAT_FORMAT, x.tolist())
    slow = ~((x >= 1e-4) & (x < 1e16))
    n, e = _digits17(np.where(slow, 1.0, x))
    # "000" and the 17 digits, in five groups of four
    groups = np.empty((x.size, 5), "<u4")
    for k in range(4, 0, -1):
        n, low = np.divmod(n, 10000)
        groups[:, k] = _DIGITS4[low]
    groups[:, 0] = _DIGITS4[n]
    digits = groups.view("S20").ravel()
    # the integer part (or "0"), a point and the rest, less trailing zeros
    # and a trailing point; byte 4 + e of digits is the first after the point
    point = 4 + e
    whole = np.strings.slice(digits, np.where(e < 0, 0, 3),
                             np.where(e < 0, 1, point))
    text = np.strings.add(np.strings.add(whole, b"."),
                          np.strings.slice(digits, point, None)).astype("S24")
    text = np.strings.rstrip(np.strings.rstrip(text, b"0"), b".")
    rows = np.flatnonzero(slow)
    if rows.size:
        text[rows] = _percent_text(FLOAT_FORMAT, x[rows].tolist())
    return text


def _percent_text(fmt: str, values: list) -> np.ndarray:
    """``fmt % v`` of each value as an ``S`` array, through one ``%`` call;
    the texts must hold no whitespace."""
    return np.array(((fmt + "\n") * len(values) % tuple(values)).encode()
                    .split(), dtype="S")


def join_text(columns, delimiter: bytes, end: bytes,
              scratch: bytearray) -> bytearray:
    """Rows of delimited text, ready to write: row ``i`` holds cell ``i``
    of each of the equally long ``S`` arrays ``columns`` (ASCII, NUL only as
    padding), less its padding, with ``delimiter`` between cells and
    ``end`` after the last.  The padded rows are laid out in ``scratch``,
    grown as needed, so that a loop of calls reuses one buffer.  The list
    ``columns`` is emptied, so that each column is freed once it is laid
    out."""
    n = len(columns[0])
    parts = [part for c in columns for part in (c, np.bytes_(delimiter))]
    parts[-1] = np.bytes_(end)
    columns.clear()
    dtype = np.dtype([(f"f{k}", part.dtype) for k, part in enumerate(parts)])
    size = dtype.itemsize * n
    if len(scratch) < size:
        scratch += bytes(size - len(scratch))
    rows = np.frombuffer(scratch, dtype, count=n)
    for k in range(len(parts)):
        rows[f"f{k}"], parts[k] = parts[k], None
    del rows
    np.frombuffer(scratch, np.uint8)[size:] = 0  # a longer block's rows
    return scratch.translate(None, b"\0")


def write_curve_tsv(path, columns: dict[str, np.ndarray]) -> None:
    """Write named columns as TSV, 17-significant-digit decimals.

    Each column is formatted by its dtype kind: bools as ``1``/``0`` and
    integers in full (``%d`` of the Python scalars), anything else through
    float64 as :data:`FLOAT_FORMAT`, all such columns in one
    :func:`float_text` call.
    """
    names = list(columns)
    cols = [np.asarray(columns[k]) for k in names]
    n = cols[0].size
    if any(c.size != n for c in cols):
        raise ValueError("all columns must have equal length")
    floats = [c for c in cols if c.dtype.kind not in "biu"]
    texts = iter(float_text(floats).reshape(len(floats), n))
    cells = [_percent_text("%d", c.tolist()) if c.dtype.kind in "biu"
             else next(texts) for c in cols]
    with open(path, "wb") as fh:
        fh.write(("\t".join(names) + "\n").encode())
        fh.write(join_text(cells, b"\t", b"\n", bytearray()))


def line_ends(path, block_bytes: int = 1 << 18) -> tuple[int, bool]:
    """The line ends in a file (``\\r\\n`` once), which bound its rows after
    a header, and whether it holds a NUL byte, ``block_bytes`` at a time."""
    ends, cr_last, nul = 0, False, False
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(block_bytes), b""):
            byte = np.frombuffer(block, dtype=np.uint8)
            nul = nul or not byte.all()
            lf, cr = byte == ord("\n"), byte == ord("\r")  # \r\n ends one
            ends += (np.count_nonzero(lf) + np.count_nonzero(cr)
                     - np.count_nonzero(cr[:-1] & lf[1:]) - (cr_last and lf[0]))
            cr_last = cr[-1]
    return int(ends), nul


@contextlib.contextmanager
def open_csv(path):
    """``(handle, header)``: the CSV file open past its first row, and that
    row's cells as the ``csv`` module reads them (None for an empty file).
    The text is UTF-8, a leading byte-order mark dropped."""
    with open(path, encoding="utf-8-sig", newline="") as fh:
        yield fh, next(csv.reader(fh), None)


def csv_blocks(fh, dtype, usecols, rows: int):
    """``(block, table)`` for each 1-d ``dtype`` array of at most ``rows``
    rows that numpy's C reader parses from the open CSV file ``fh``,
    ``block`` the slice of the file's rows it holds, until one falls short.
    Fields follow the ``csv`` module's default dialect: comma-separated,
    ``"``-quoted with ``""`` as an escaped quote; ``\\n``, ``\\r\\n`` and
    ``\\r`` all end a line, and empty lines are skipped.  Floats are parsed
    by ``PyOS_string_to_double``, the routine behind ``float()``.  Raises
    ``ValueError`` on a cell that does not convert or a short row."""
    n = 0
    while True:
        with warnings.catch_warnings():
            # the caller judges an empty table; empty lines are skipped
            warnings.filterwarnings("ignore", "loadtxt: input contained no "
                                    "data|Input line [0-9]+ contained no data")
            table = np.loadtxt(fh, dtype=dtype, delimiter=",", quotechar='"',
                               comments=None, usecols=usecols, ndmin=1,
                               max_rows=rows)
        yield slice(n, n + table.size), table
        n += table.size
        if table.size < rows:
            return
