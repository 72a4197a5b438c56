"""Numerical studies: error ladders, convergence slopes, confidence bands,
and ingestion of experimental lineage data.

A study draws M independent genealogies per target size, estimates the
division rate on each, and scores the conditioned relative L2 error against
the true rate.  Replicate seeds are hash-derived from (run seed, size,
replicate index), so results are identical for any worker count.
Replicates are grown in batches, one forest per batch, the unit of work a
worker runs.  A full-tree batch holds one size and ``_FOREST_CELLS`` cells.
A sparse forest steps one live cell per lineage, so its cost is its levels,
not its width: a sparse batch holds replicates of every size, longest
first, up to ``_SPARSE_CELLS`` cells, and takes as many levels as its
longest lineage.  Each size is estimated as soon as its lineages end, as
rows, ``_FOREST_CELLS`` cells per pass, and its storage is then freed.
"""

from __future__ import annotations

import csv
import itertools
import math
import warnings
from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence

import numpy as np

from . import streams
from .curves import (CurveOnGrid, csv_blocks, line_ends, open_csv,
                     write_curve_tsv)
from .estimator import (DivisionRateEstimate, EstimatorConfig,
                        InvSqrtThreshold, ObservationSet,
                        estimate_division_rate, estimate_rows,
                        evaluation_grid, kernel_density)
from .model import DivisionRate, ModelSpec
from .trees import _FOREST_CELLS, grow_replicates

_SPARSE_CELLS = 1 << 22  # cells stored per batch of sparse lineages
_INGEST_ROWS = 1 << 14  # lineage CSV rows parsed and checked per block


class EmptyConditioningSet(RuntimeError):
    """No grid point passes the conditioning threshold."""


class SchemaError(ValueError):
    """The lineage CSV is missing required columns."""


class EmptyAfterFiltering(RuntimeError):
    """Validation rejected every row of the lineage CSV."""


# ---------------------------------------------------------------------------
# Error metric
# ---------------------------------------------------------------------------

def relative_error(estimate: CurveOnGrid, truth: DivisionRate,
                   raw_denominator: np.ndarray, threshold_value: float) -> float:
    """Conditioned relative L2 error of the estimated curve.

    Grid points enter only where the raw (unclipped) denominator exceeds the
    threshold; the error is |est - B| / |B| in the discrete L2 norm over
    those points.
    """
    raw = np.asarray(raw_denominator, dtype=np.float64)
    if raw.shape != estimate.values.shape:
        raise ValueError("denominator and curve grids are not aligned")
    mask = raw > threshold_value
    if not np.any(mask):
        raise EmptyConditioningSet(
            f"no grid point has denominator above {threshold_value}")
    y = estimate.x[mask]
    diff = estimate.values[mask] - np.asarray(truth(y))
    return float(np.sqrt(np.sum(diff ** 2) / np.sum(np.asarray(truth(y)) ** 2)))


# ---------------------------------------------------------------------------
# Convergence study
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ErrorSummary:
    """Errors of the replicates at one size with a conditioning set."""

    n: int
    per_replicate: np.ndarray
    empty_conditioning: int = 0  # replicates without one

    def __post_init__(self):
        object.__setattr__(self, "per_replicate",
                           np.asarray(self.per_replicate, dtype=np.float64))
        if self.per_replicate.size < 1:
            raise ValueError("need at least one replicate")

    @property
    def replicates(self) -> int:
        return self.per_replicate.size

    @property
    def mean_error(self) -> float:
        return float(np.mean(self.per_replicate))

    @property
    def std_dev(self) -> float:
        # population form: sqrt(M^-1 sum (e_i - mean)^2)
        return float(np.sqrt(np.mean(
            (self.per_replicate - self.mean_error) ** 2)))

    @property
    def median_error(self) -> float:
        return float(np.median(self.per_replicate))


@dataclass(frozen=True)
class ConvergenceStudy:
    """Error summaries over a ladder of sizes plus the log-log slope."""

    scheme: str
    rows: tuple[ErrorSummary, ...]
    slope: float
    slope_stderr: float

    def sizes(self) -> list[int]:
        return [row.n for row in self.rows]

    def mean_errors(self) -> list[float]:
        return [row.mean_error for row in self.rows]


def _batches(sizes_log2: Sequence[int], replicates: int, scheme: str):
    """(log2 sizes, replicate range) per batch, each of at least one
    replicate: one size per full-tree batch, in the given order, of at most
    ``_FOREST_CELLS`` cells; every size, longest first, per sparse batch,
    whose lineages hold at most ``_SPARSE_CELLS`` cells."""
    if replicates < 1:
        raise ValueError(f"need at least one replicate, got {replicates}")
    if scheme == "sparse":
        sizes = tuple(sorted(sizes_log2, reverse=True))
        step = max(1, _SPARSE_CELLS // sum(2 ** k for k in sizes))
        return [(sizes, range(a, min(a + step, replicates)))
                for a in range(0, replicates, step)]
    return [((k,), range(a, min(a + step, replicates)))
            for k in sizes_log2 for step in [max(1, _FOREST_CELLS >> k)]
            for a in range(0, replicates, step)]


def _map_batches(job, batches, workers: int) -> dict:
    """The results of ``job(log2_sizes, reps)`` over the batches, merged
    per log2 size in replicate order; in a process pool when workers > 1."""
    if workers > 1:
        # imported here so that the other commands do not load
        # multiprocessing at start-up
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(job, *zip(*batches)))
    else:
        parts = [job(*batch) for batch in batches]
    out = {}
    for part in parts:
        for k, results in part.items():
            out.setdefault(k, []).extend(results)
    return out


def _run_keys(seed: int, log2_size: int, reps: range) -> np.ndarray:
    """``run_key(int(run_key(seed, log2_size, i)[0]))`` for each i in reps."""
    i = np.arange(reps.start, reps.stop, dtype=np.uint64)
    return streams.combine(streams.run_key(seed, log2_size, i), 0)


def _replicate_results(sizes_log2: Sequence[int], reps: range,
                       spec: ModelSpec, scheme: str, config: EstimatorConfig,
                       seed: int, kind: str) -> dict:
    """{k: one result per replicate in ``reps`` at target size 2^k} for the
    sizes in ``sizes_log2`` (longest first), each replicate a lane of one
    forest (full: k-1 generations, 2^k - 1 records; sparse: a lineage of
    2^k cells), scored by :func:`_scores` as soon as its size is grown."""
    levels = [max(k, 1) if scheme == "full" else 2 ** k for k in sizes_log2]
    keys = np.concatenate([_run_keys(seed, k, reps) for k in sizes_log2])
    out = {}
    for lanes, cols in grow_replicates(spec, scheme,
                                       np.repeat(levels, len(reps)), keys):
        out[sizes_log2[lanes.start // len(reps)]] = _scores(
            cols, spec, config, kind)
        del cols
    return out


def _scores(cols: np.ndarray, spec: ModelSpec, config: EstimatorConfig,
            kind: str) -> list:
    """Per row of the (column, row, cell) array ``cols``, estimated in
    passes of at most ``_FOREST_CELLS`` cells that bound the memory: its
    curve (``kind="curve"``), its :func:`relative_error` on its own floor
    or nan when no grid point passes it (``"error"``), or its aware and
    pooled errors for :func:`variability_ablation` (``"ablation"``)."""
    step = max(1, _FOREST_CELLS // cols.shape[2])  # rows per pass

    def estimate(pooled=False):
        return [est for a in range(0, cols.shape[1], step) for est in
                estimate_rows(*np.ascontiguousarray(cols[:, a:a + step]),
                              config, pooled)]

    aware = estimate()
    if kind == "curve":
        return [est.values for est in aware]
    if kind == "ablation":  # both errors on the aware floor's upper third
        pooled = estimate(pooled=True)
        m = aware[0].y.size
        raws = np.where(np.arange(m) >= (2 * m) // 3,
                        [a.raw_denominator for a in aware], 0.0)
        return [tuple(relative_error(e.curve, spec.division_rate, raw,
                                     a.threshold_value) for e in (a, p))
                for a, p, raw in zip(aware, pooled, raws)]
    out = []
    for est in aware:
        try:
            out.append(relative_error(est.curve, spec.division_rate,
                                      est.raw_denominator,
                                      est.threshold_value))
        except EmptyConditioningSet:
            out.append(math.nan)
    return out


def run_convergence_study(spec: ModelSpec, sizes_log2: Sequence[int],
                          replicates: int, scheme: str = "full",
                          config: EstimatorConfig = EstimatorConfig(),
                          seed: int = 0, workers: int = 1
                          ) -> ConvergenceStudy:
    """M replicate simulate+estimate runs per size; least-squares slope of
    log mean-error against log size.

    The full scheme simulates k-1 generations for target size 2^k (2^k - 1
    records); the sparse scheme follows a lineage of exactly 2^k cells.
    All estimator rules evaluate at the actual record count.  Replicates
    with an empty conditioning set are counted, not scored; a size where
    every replicate has one raises :class:`EmptyConditioningSet`.
    """
    if scheme not in ("full", "sparse"):
        raise ValueError("scheme must be 'full' or 'sparse'")
    sizes_log2 = sorted(sizes_log2)
    if not sizes_log2:
        raise ValueError("need at least one size")
    if len(set(sizes_log2)) < len(sizes_log2):
        raise ValueError(f"repeated size in {sizes_log2}")
    job = partial(_replicate_results, spec=spec, scheme=scheme, config=config,
                  seed=seed, kind="error")
    errors = _map_batches(job, _batches(sizes_log2, replicates, scheme),
                          workers)
    rows = []
    for k in sizes_log2:
        errs = np.array(errors[k])
        empty = np.isnan(errs)
        if empty.all():
            raise EmptyConditioningSet(
                f"at n = {2 ** k} no replicate has a grid point whose "
                "denominator passes the conditioning threshold")
        rows.append(ErrorSummary(n=2 ** k, per_replicate=errs[~empty],
                                 empty_conditioning=int(empty.sum())))
    slope, stderr = _loglog_slope(np.array([r.n for r in rows], dtype=float),
                                  np.array([r.mean_error for r in rows]))
    return ConvergenceStudy(scheme, tuple(rows), slope, stderr)


def _loglog_slope(n: np.ndarray, err: np.ndarray) -> tuple[float, float]:
    if n.size < 2:
        return math.nan, math.nan
    lx, ly = np.log(n), np.log(err)
    A = np.vstack([lx, np.ones_like(lx)]).T
    coef, res, *_ = np.linalg.lstsq(A, ly, rcond=None)
    dof = n.size - 2
    if dof > 0 and res.size:
        s2 = float(res[0]) / dof
        sx = float(np.sum((lx - lx.mean()) ** 2))
        return float(coef[0]), math.sqrt(s2 / sx)
    return float(coef[0]), math.nan


# ---------------------------------------------------------------------------
# Confidence band
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConfidenceBand:
    """Pointwise empirical quantile envelope of replicate estimates."""

    y: np.ndarray
    lower: np.ndarray
    median: np.ndarray
    upper: np.ndarray
    level: float
    replicates: int


def confidence_band(spec: ModelSpec, log2_size: int, replicates: int,
                    config: EstimatorConfig = EstimatorConfig(),
                    level: float = 95.0, seed: int = 0,
                    workers: int = 1) -> ConfidenceBand:
    """Pointwise empirical (100-level)/2 and (100+level)/2 percent quantiles
    of the estimate across replicates (level 100 gives the min/max envelope)."""
    if replicates < 20:
        raise ValueError("need at least 20 replicates for a band")
    if not (0 < level <= 100):
        raise ValueError("level must lie in (0, 100]")
    job = partial(_replicate_results, spec=spec, scheme="full",
                  config=config, seed=seed, kind="curve")
    curves = np.array(_map_batches(
        job, _batches([log2_size], replicates, "full"), workers)[log2_size])
    y = evaluation_grid(*config.grid.resolve(2 ** log2_size - 1))
    tail = (100.0 - level) / 200.0
    return ConfidenceBand(
        y=y,
        lower=np.quantile(curves, tail, axis=0),
        median=np.quantile(curves, 0.5, axis=0),
        upper=np.quantile(curves, 1.0 - tail, axis=0),
        level=level, replicates=replicates)


# ---------------------------------------------------------------------------
# Variability ablation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AblationResult:
    """Per-replicate upper-grid errors of the variability-aware estimator
    versus the pooled-rate control."""

    aware_errors: np.ndarray
    pooled_errors: np.ndarray

    @property
    def replicates(self) -> int:
        return self.aware_errors.size

    @property
    def pooled_worse_fraction(self) -> float:
        return float(np.mean(self.pooled_errors > self.aware_errors))


def variability_ablation(spec: ModelSpec, log2_size: int, replicates: int,
                         seed: int = 0, workers: int = 1) -> AblationResult:
    """Compare aware and pooled estimates on the upper third of the grid.

    Uses the inverse-sqrt threshold (the configuration that exposes the
    sparse-density region) and conditions both errors on the aware
    estimator's raw denominator exceeding the floor.
    """
    config = EstimatorConfig(threshold_rule=InvSqrtThreshold())
    job = partial(_replicate_results, spec=spec, scheme="full",
                  config=config, seed=seed, kind="ablation")
    pairs = _map_batches(job, _batches([log2_size], replicates, "full"),
                         workers)[log2_size]
    aware, pooled = np.array(pairs).T
    return AblationResult(aware, pooled)


# ---------------------------------------------------------------------------
# Experimental lineage ingestion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IngestReport:
    """What happened to each input row."""

    accepted: int
    rejected: list[tuple[int, str]]
    dropped_boundary: int
    lineages: int

    def to_json_dict(self):
        return {
            "accepted": self.accepted,
            "rejected": [{"line": ln, "reason": why}
                         for ln, why in self.rejected],
            "dropped_boundary": self.dropped_boundary,
            "lineages": self.lineages,
        }


DEFAULT_COLUMN_MAP = {
    "size_birth": "size_birth",
    "growth_rate": "growth_rate",
    "lifetime": "lifetime",
}


def ingest_lineage_csv(path, column_map: Optional[dict] = None,
                       lineage_column: Optional[str] = "lineage_id",
                       drop_first: int = 0, drop_last: int = 0
                       ) -> tuple[ObservationSet, IngestReport]:
    """Read per-cell lineage records from CSV with validation.

    ``column_map`` maps observation fields (the keys of
    ``DEFAULT_COLUMN_MAP``; any other raises ``ValueError``) to CSV column
    names.  Rows with non-finite or non-positive entries are rejected with
    diagnostics naming the first failing column and the file line the row
    ends on, blank lines counted.  When a lineage column is present, the
    first ``drop_first`` and last ``drop_last`` cells of every lineage are
    discarded (defence against non-stationary boundary generations in
    experimental data); lineages keep the order of their first row, and
    cells their row order.

    The mapped columns (and the lineage column) are parsed column-wise by
    :func:`~gftree.curves.csv_blocks` (bit-identical to ``float()``)
    and checked, ``_INGEST_ROWS`` rows at a time, into columns sized by the
    file's line ends; a file that parser cannot read whole (a non-numeric
    cell, a short row, a whitespace-only line) is parsed row by row through
    ``csv.DictReader`` instead, and the same checks name each unparsable
    cell.  Rejected rows are dropped by moving the accepted ones up in
    those columns, a block at a time, so no column is copied.

    Growth rates are taken as given per cell; no re-fit from size time
    series happens here.  Data sets that instead derive each rate from the
    parent-child division relation cannot supply one for the last observed
    generation of a lineage, which is what ``drop_last`` is for.
    """
    unknown = [f for f in column_map or () if f not in DEFAULT_COLUMN_MAP]
    if unknown:
        raise ValueError(f"unknown fields {unknown}; valid fields are "
                         f"{', '.join(DEFAULT_COLUMN_MAP)}")
    if drop_first < 0 or drop_last < 0:
        raise ValueError("drop_first and drop_last must be >= 0")
    colmap = dict(DEFAULT_COLUMN_MAP)
    if column_map:
        colmap.update(column_map)
    with open_csv(path) as (fh, header):
        if header is None:
            raise SchemaError("empty file")
        missing = [c for c in colmap.values() if c not in header]
        if missing:
            raise SchemaError(f"missing columns: {missing}")
        has_lineage = (lineage_column is not None
                       and lineage_column in header)
        # like csv.DictReader, a repeated column name means its last copy
        where = {name: j for j, name in enumerate(header)}
        usecols = [where[c] for c in colmap.values()]
        dtype = [("values", np.float64, (len(usecols),))]
        if has_lineage:
            usecols.append(where[lineage_column])
            dtype.append(("key", object))
        bound = line_ends(path)[0]
        values, ok = np.empty((len(colmap), bound)), np.empty(bound, dtype=bool)
        keys = np.empty(bound, dtype=object) if has_lineage else None
        rejected = []
        try:
            for rows, table in csv_blocks(fh, dtype, usecols, _INGEST_ROWS):
                values[:, rows] = table["values"].T
                if has_lineage:
                    keys[rows] = table["key"]
                ok[rows], bad = _validate_values(table["values"], colmap,
                                                 rows.start, {})
                rejected += bad
            n = rows.stop
            lines = _row_lines(fh, [row for row, _ in rejected])
        except ValueError:
            fh.seek(0)
            keys, values, texts, lines = _ingest_rows(
                csv.DictReader(fh), colmap,
                lineage_column if has_lineage else None)
            n = values.shape[1]
            ok, rejected = _validate_values(values.T, colmap, 0, texts)
    rejected = [(lines[row], why) for row, why in rejected]
    usable = n
    if rejected:  # accepted rows move up in place; none passes its source
        usable = 0
        for a in range(0, n, _INGEST_ROWS):
            accepted = a + np.flatnonzero(ok[a:min(a + _INGEST_ROWS, n)])
            values[:, usable:usable + accepted.size] = values[:, accepted]
            if keys is not None:
                keys[usable:usable + accepted.size] = keys[accepted]
            usable += accepted.size
    values = values[:, :usable]
    keys = None if keys is None else keys[:usable]
    kept, lineages = _drop_boundary(keys, usable, drop_first, drop_last)
    data = [col[kept] for col in values]  # each a contiguous column
    if not data[0].size:
        raise EmptyAfterFiltering(
            f"no usable rows ({len(rejected)} rejected, "
            f"{usable - data[0].size} dropped)")
    report = IngestReport(accepted=data[0].size, rejected=rejected,
                          dropped_boundary=usable - data[0].size,
                          lineages=lineages)
    return ObservationSet(*data), report


def _validate_values(values: np.ndarray, colmap: dict, first: int,
                     texts: dict):
    """Accepted-row mask and (row, reason) per rejected row of the (row,
    field) ``values``, where the reason is the first field (in ``colmap``
    order) whose cell did not parse (its text in ``texts`` by (row,
    field)), is not finite or is not positive; row 0 is the file's data
    row ``first``."""
    finite = np.isfinite(values)
    ok = finite & (values > 0)
    good = ok.all(axis=1)
    bad = np.flatnonzero(~good)
    col = np.argmin(ok[bad], axis=1)
    names = list(colmap.values())
    rejected = [(row + first, f"{names[j]}: " + (
        f"not a number ({texts[row, j]!r})" if (row, j) in texts
        else "must be positive" if fin else "not finite"))
        for row, j, fin in zip(bad.tolist(), col.tolist(),
                               finite[bad, col].tolist())]
    return good, rejected


def _row_lines(fh, rows: list) -> dict:
    """{row: the file line it ends on} for the ascending data rows ``rows``
    of the open CSV file ``fh``, counted as :func:`csv_blocks` counts them,
    blank lines skipped.  The file is read again up to the last of
    ``rows``: not at all if there is none."""
    fh.seek(0)
    reader = csv.reader(fh)
    data, at, lines = filter(None, itertools.islice(reader, 1, None)), 0, {}
    for row in rows:  # past the header, blank lines and the rows between
        next(itertools.islice(data, row - at, None))
        lines[row], at = reader.line_num, row + 1
    return lines


def _ingest_rows(reader, colmap: dict, lineage_column: Optional[str]):
    """Each row's cells parsed by ``float()``: the lineage keys, a (field,
    row) value array, nan where a cell does not parse, that cell's text by
    (row, field), and the file line each row ends on."""
    keys, rows, texts, lines = [], [], {}, []
    for i, row in enumerate(reader):
        lines.append(reader.line_num)
        if lineage_column is not None:
            keys.append(row[lineage_column])
        cells = []
        for j, col in enumerate(colmap.values()):
            try:
                cells.append(float(row[col]))
            except (TypeError, ValueError):  # a short row's cell is None
                cells.append(math.nan)
                texts[i, j] = row[col]
        rows.append(cells)
    values = np.array(rows, dtype=np.float64).reshape(-1, len(colmap))
    return (None if lineage_column is None else np.array(keys, dtype=object),
            np.ascontiguousarray(values.T), texts, lines)


def _drop_boundary(keys, n: int, drop_first: int, drop_last: int):
    """Rows kept after dropping each lineage's first ``drop_first`` and last
    ``drop_last`` cells, lineages in order of first appearance and cells in
    row order; and the number of lineages.  ``keys=None`` is one lineage,
    whose rows are a slice."""
    if keys is None:
        return slice(drop_first, max(drop_first, n - drop_last)), int(n > 0)
    first_seen = {k: g for g, k in enumerate(dict.fromkeys(keys))}
    group = np.fromiter(map(first_seen.__getitem__, keys),
                        dtype=np.int64, count=n)
    order = np.argsort(group, kind="stable")
    sizes = np.bincount(group)
    pos = np.arange(n) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    keep = pos >= drop_first
    keep &= pos < np.repeat(sizes - drop_last, sizes)
    return order[keep], sizes.size


# ---------------------------------------------------------------------------
# Experimental analysis (division rate + invariant density together)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentalAnalysis:
    rate_estimate: DivisionRateEstimate
    density_curve: CurveOnGrid
    report: dict


def analyze_experimental(obs: ObservationSet,
                         config: EstimatorConfig = EstimatorConfig()
                         ) -> ExperimentalAnalysis:
    """Estimate the division rate and the size-at-birth density on a shared
    grid; the report is the estimate's plus the density's mass.  Warns
    (softly) below 100 cells."""
    if obs.n < 100:
        warnings.warn(f"only {obs.n} cells; estimates will be noisy",
                      stacklevel=2)
    est = estimate_division_rate(obs, config)
    dens = kernel_density(obs, est.y, est.h, config.kernel)
    report = {**est.report_dict(),
              "density_mass": float(np.trapezoid(dens, dx=est.curve.dx))}
    return ExperimentalAnalysis(est, CurveOnGrid(float(est.y[0]),
                                                 est.curve.dx, dens), report)


# ---------------------------------------------------------------------------
# Study output files
# ---------------------------------------------------------------------------

def write_error_table(study: ConvergenceStudy, path) -> None:
    """table1-style TSV: log2 n, mean error, standard deviation."""
    write_curve_tsv(path, {
        "log2_n": np.log2(np.array(study.sizes(), dtype=float)),
        "n": np.array(study.sizes(), dtype=np.int64),
        "mean_error": np.array(study.mean_errors()),
        "std_dev": np.array([r.std_dev for r in study.rows]),
        "median_error": np.array([r.median_error for r in study.rows]),
    })


def write_error_curve(study: ConvergenceStudy, path) -> None:
    """fig2-style TSV: size versus mean error (log-log plot ready)."""
    write_curve_tsv(path, {
        "n": np.array(study.sizes(), dtype=np.int64),
        "mean_error": np.array(study.mean_errors()),
    })


def write_band(band: ConfidenceBand, path) -> None:
    """fig3-style TSV: pointwise quantile envelope."""
    write_curve_tsv(path, {
        "y": band.y, "lower": band.lower, "median": band.median,
        "upper": band.upper,
    })


def study_report_dict(full: ConvergenceStudy,
                      sparse: Optional[ConvergenceStudy],
                      replicates: int) -> dict:
    def rows(study):
        return [{"log2_n": int(round(math.log2(r.n))),
                 "n": r.n, "empty_conditioning": r.empty_conditioning,
                 "mean_error": r.mean_error,
                 "std_dev": r.std_dev, "median_error": r.median_error,
                 "per_replicate": r.per_replicate.tolist()}
                for r in study.rows]

    doc = {
        "replicates": replicates,
        "full": {"rows": rows(full), "slope": full.slope,
                 "slope_stderr": full.slope_stderr},
    }
    if sparse is not None:
        doc["sparse"] = {"rows": rows(sparse), "slope": sparse.slope,
                         "slope_stderr": sparse.slope_stderr}
    return doc
