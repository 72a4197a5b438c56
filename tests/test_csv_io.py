"""Differential tests of the columnar CSV readers and writers against the
row-by-row implementations they replaced, kept here as oracles.

Outputs must match byte for byte and parsed arrays bit for bit; where an
oracle raises, the new code must raise the same exception type.
"""

import csv
import hashlib
import math
import random

import numpy as np
import pytest

from gftree import studies, trees
from gftree.curves import FLOAT_FORMAT, float_text, write_curve_tsv
from gftree.estimator import ObservationSet
from gftree.studies import (DEFAULT_COLUMN_MAP, EmptyAfterFiltering,
                            IngestReport, SchemaError, ingest_lineage_csv)
from gftree.trees import (GenealogyTree, read_genealogy_csv,
                          simulate_full_tree, simulate_sparse_lineage,
                          write_genealogy_csv)


# ---------------------------------------------------------------------------
# Oracles: the row-by-row implementations, as they were
# ---------------------------------------------------------------------------

_CSV_HEADER = ["path", "size_birth", "growth_rate", "lifetime", "birth_time"]


def oracle_read_genealogy_csv(path) -> GenealogyTree:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != _CSV_HEADER:
            raise ValueError(f"unexpected genealogy header {header!r}")
        rows = [r for r in reader if r]
    paths = [r[0] for r in rows]
    data = np.array([[float(r[1]), float(r[2]), float(r[3]), float(r[4])]
                     for r in rows])
    gens = np.array([len(p) for p in paths], dtype=np.int64)
    order = sorted(range(len(paths)),
                   key=lambda i: (gens[i], paths[i]))
    paths = [paths[i] for i in order]
    data = data[order]
    gens = gens[order]
    n = len(paths)
    depth = int(gens.max(initial=0))
    # sorted by (generation, path) the rows are breadth-first, which is
    # where a tree takes its positions from
    if n == 2 ** (depth + 1) - 1 and set(paths) == _complete_paths(depth):
        tree = GenealogyTree("full", data[:, 0], data[:, 1], data[:, 2])
    elif np.array_equal(gens, np.arange(n)) and all(
            paths[i + 1][:len(paths[i])] == paths[i] for i in range(n - 1)):
        bits = np.array([int(paths[i + 1][-1]) for i in range(n - 1)],
                        dtype=np.int64)
        tree = GenealogyTree("sparse", data[:, 0], data[:, 1], data[:, 2],
                             chain_bits=bits)
    else:
        raise ValueError("genealogy is neither a complete tree nor a single "
                         "lineage")
    # the tree derives birth_time: it must be the file's column, bit for bit
    if not np.array_equal(tree.birth_time, data[:, 3]):
        raise AssertionError("derived birth_time differs from the file's")
    return tree


def _complete_paths(depth: int) -> set[str]:
    out = {""}
    level = [""]
    for _ in range(depth):
        level = [p + b for p in level for b in ("0", "1")]
        out.update(level)
    return out


def oracle_ingest_lineage_csv(path, column_map=None,
                              lineage_column="lineage_id",
                              drop_first=0, drop_last=0):
    colmap = dict(DEFAULT_COLUMN_MAP)
    if column_map:
        colmap.update(column_map)
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise SchemaError("empty file")
        missing = [c for c in colmap.values() if c not in reader.fieldnames]
        if missing:
            raise SchemaError(f"missing columns: {missing}")
        has_lineage = (lineage_column is not None
                       and lineage_column in reader.fieldnames)
        rows = []
        rejected = []
        for row in reader:
            line_no = reader.line_num  # the file line the row ends on
            vals = {}
            reason = None
            for fld, col in colmap.items():
                try:
                    v = float(row[col])
                except (TypeError, ValueError):
                    reason = f"{col}: not a number ({row[col]!r})"
                    break
                if not math.isfinite(v):
                    reason = f"{col}: not finite"
                    break
                if v <= 0:
                    reason = f"{col}: must be positive"
                    break
                vals[fld] = v
            if reason is not None:
                rejected.append((line_no, reason))
                continue
            key = row[lineage_column] if has_lineage else ""
            rows.append((key, vals["size_birth"], vals["growth_rate"],
                         vals["lifetime"]))

    by_lineage: dict[str, list] = {}
    for key, *vals in rows:
        by_lineage.setdefault(key, []).append(vals)
    kept = []
    dropped = 0
    for key in by_lineage:
        cells = by_lineage[key]
        take = cells[drop_first:len(cells) - drop_last if drop_last else None]
        dropped += len(cells) - len(take)
        kept.extend(take)
    if not kept:
        raise EmptyAfterFiltering(
            f"no usable rows ({len(rejected)} rejected, {dropped} dropped)")
    data = np.array(kept)
    # one contiguous array per column, as the estimator reads them
    obs = ObservationSet(*(np.ascontiguousarray(c) for c in data.T))
    report = IngestReport(accepted=len(kept), rejected=rejected,
                          dropped_boundary=dropped,
                          lineages=len(by_lineage))
    return obs, report


def oracle_write_curve_tsv(path, columns):
    names = list(columns)
    cols = [np.asarray(columns[k]) for k in names]
    n = cols[0].size
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(names) + "\n")
        for i in range(n):
            cells = []
            for c in cols:
                v = c[i]
                if isinstance(v, (np.bool_, bool)):
                    cells.append("1" if v else "0")
                elif np.issubdtype(type(v), np.integer):
                    cells.append(str(int(v)))
                else:
                    cells.append(format(float(v), ".17g"))
            fh.write("\t".join(cells) + "\n")


def outcome(fn, *args, **kwargs):
    """The result of ``fn``, or the type of the exception it raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - compared by type
        return type(exc)


# ---------------------------------------------------------------------------
# Genealogy CSV writer: digests recorded from the row-by-row writer
# ---------------------------------------------------------------------------

def sha256_of(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("make, digest", [
    (lambda s: simulate_full_tree(s, 6, seed=20),
     "c524dfef9a369b696b1acf064d48e65b441a1110c2db51f9e3a4d7c2379fb84d"),
    (lambda s: simulate_sparse_lineage(s, 64, seed=21),
     "7e102e774c6fd1b8480b6fcb2914ca2b6353bd788728cc3ac8637575add45b0a"),
], ids=["full-g6", "sparse-n64"])
def test_writer_matches_recorded_digest(tmp_path, variability_spec, make,
                                        digest):
    # The digest pins the simulation as well as the writer.
    path = tmp_path / "tree.csv"
    write_genealogy_csv(make(variability_spec), path)
    assert sha256_of(path) == digest


def oracle_path(tree, row) -> str:
    """The {0,1} path of ``row``: the chain's first ``row`` bits, or the
    ``generation`` bits of the row's index, most significant first."""
    (gen,), (index,) = tree.positions(slice(row, row + 1))
    if tree.scheme == "sparse":
        return "".join(str(b) for b in tree.chain_bits[:gen])
    return format(int(index), f"0{gen}b") if gen else ""


def oracle_write_genealogy_csv(tree, path):
    """``csv.writer`` rows, every value through ``FLOAT_FORMAT %``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_HEADER)
        for i in range(len(tree)):
            writer.writerow([oracle_path(tree, i)] + [
                FLOAT_FORMAT % float(c[i]) for c in (
                    tree.size_birth, tree.growth_rate, tree.lifetime,
                    tree.birth_time)])


def test_writer_uses_csv_dialect_and_17_digits(tmp_path, variability_spec):
    tree = simulate_full_tree(variability_spec, 3, seed=22)
    path, expected = tmp_path / "tree.csv", tmp_path / "expected.csv"
    write_genealogy_csv(tree, path)
    oracle_write_genealogy_csv(tree, expected)
    assert path.read_bytes() == expected.read_bytes()


@pytest.mark.parametrize("scheme", ["full", "sparse"])
def test_writer_fallback_values_match_oracle(tmp_path, scheme):
    # Columns long enough for the vectorised digits, holding values outside
    # [1e-4, 1e16) that take the per-value % fallback.
    rng = np.random.default_rng(31)
    n = 255
    size, rate, lifetime = rng.lognormal(0.0, 1.0, (3, n))
    lifetime[[3, 50, 200]] = [1e-7, 9.999999999999999e-05, 5e-324]
    # the root is born at 0, and these lifetimes move the derived birth
    # times of the cells after them to 1e16 and beyond
    lifetime[[7, 30, 100]] = [1e16, 1e300, 1.2345678901234567e17]
    size[[1, 2]] = [1e-4, 9999999999999998.0]
    rate[[5, 6]] = [1e20, 0.0001]
    if scheme == "full":
        tree = GenealogyTree("full", size, rate, lifetime)
    else:
        tree = GenealogyTree("sparse", size, rate, lifetime,
                             chain_bits=rng.integers(0, 2, n - 1))
    path, expected = tmp_path / "tree.csv", tmp_path / "expected.csv"
    write_genealogy_csv(tree, path)
    oracle_write_genealogy_csv(tree, expected)
    assert path.read_bytes() == expected.read_bytes()


def test_writer_memory_is_bounded_by_block(tmp_path, variability_spec,
                                          peak_bytes):
    # 2^16 - 1 rows fill eight blocks and 2^17 - 1 rows sixteen, so the
    # peak holds if no block builds the whole file
    def peak(generations):
        tree = simulate_full_tree(variability_spec, generations, seed=28)
        return peak_bytes(lambda: write_genealogy_csv(tree,
                                                      tmp_path / "tree.csv"))[0]

    assert peak(16) < 1.5 * peak(15)


def test_writer_spans_blocks(tmp_path, variability_spec, monkeypatch):
    import gftree.trees as trees

    tree = simulate_full_tree(variability_spec, 5, seed=23)
    one = tmp_path / "one.csv"
    write_genealogy_csv(tree, one)
    monkeypatch.setattr(trees, "_CSV_BLOCK", 5)
    many = tmp_path / "many.csv"
    write_genealogy_csv(tree, many)
    assert one.read_bytes() == many.read_bytes()


def _exact_ties(rng, per_decade):
    """Doubles whose 18th significant digit is an exact, final 5, so that
    17 digits tie, in every decade of [1e-4, 1e16): x = a / 2**(s + 1) with
    a odd makes x * 10**s an odd multiple of 1/2."""
    out = []
    for s in range(1, 21):  # x * 10**s has 17 integer digits
        num = 2 ** (s + 1) * 10 ** max(16 - s, 0)
        den = 10 ** max(s - 16, 0)
        lo, hi = -(-num // den), min(-(-10 * num // den), 2 ** 53)
        odd = rng.integers(lo, hi, per_decade) | 1
        out.append(np.ldexp(odd.astype(np.float64), -(s + 1)))
    return np.concatenate(out)


def test_float_text_matches_percent_17g():
    rng = np.random.default_rng(30)
    decades = np.array([float(f"1e{k}") for k in range(-10, 21)])
    near = [decades]
    up = down = decades
    for _ in range(3):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, 0.0)
        near += [up, down]
    values = np.concatenate([
        rng.lognormal(0.0, 1.0, 400_000),
        10.0 ** rng.uniform(-8.0, 18.0, 500_000),
        _exact_ties(rng, 5_000),
        [(2 ** 53 - 1) / 4, 2251799813685246.25, 0.5 + 2 ** -52],
        2.0 ** 53 + np.arange(-2_000.0, 2_000.0),
        *near,
        [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 2.2250738585072014e-308,
         np.nextafter(2.2250738585072014e-308, 0.0), 1.7976931348623157e308],
        np.ldexp(rng.integers(1, 2 ** 52, 1_000).astype(np.float64), -1074),
        -rng.lognormal(0.0, 3.0, 10_000),
    ])
    assert values.size > 10 ** 6
    bad = []
    for start in range(0, values.size, 1 << 16):
        chunk = values[start:start + (1 << 16)].tolist()
        got = float_text(chunk).tolist()
        bad += [(v, g) for v, g in zip(chunk, got)
                if g != (FLOAT_FORMAT % v).encode()]
    assert bad == []


# ---------------------------------------------------------------------------
# Genealogy CSV reader against the oracle
# ---------------------------------------------------------------------------

def assert_same_tree(a: GenealogyTree, b: GenealogyTree):
    # a record's position is its row, so the scheme and the length fix them
    assert a.scheme == b.scheme
    for col in ("size_birth", "growth_rate", "birth_time", "lifetime"):
        x, y = getattr(a, col), getattr(b, col)
        assert x.dtype == y.dtype and np.array_equal(x, y), col
    if a.chain_bits is None:
        assert b.chain_bits is None
    else:
        assert np.array_equal(a.chain_bits, b.chain_bits)


def assert_readers_agree(path):
    want = outcome(oracle_read_genealogy_csv, path)
    got = outcome(read_genealogy_csv, path)
    if isinstance(want, type):
        assert got is want
    else:
        assert_same_tree(got, want)
    return got


def _lines(tree, tmp_path):
    path = tmp_path / "src.csv"
    write_genealogy_csv(tree, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0], lines[1:]


def _write(path, header, rows, end="\r\n", trailer=""):
    path.write_bytes(("".join(line + end for line in [header, *rows])
                      + trailer).encode())
    return path


@pytest.fixture(params=["full", "sparse"])
def tree(request, variability_spec):
    if request.param == "full":
        return simulate_full_tree(variability_spec, 4, seed=24)
    return simulate_sparse_lineage(variability_spec, 12, seed=25)


def test_reader_shuffled_rows(tmp_path, tree):
    header, rows = _lines(tree, tmp_path)
    random.Random(1).shuffle(rows)
    got = assert_readers_agree(_write(tmp_path / "t.csv", header, rows))
    assert_same_tree(got, tree)


@pytest.mark.parametrize("end", ["\n", "\r\n"])
def test_reader_line_ends_and_trailing_blank_line(tmp_path, tree, end):
    header, rows = _lines(tree, tmp_path)
    got = assert_readers_agree(
        _write(tmp_path / "t.csv", header, rows, end=end, trailer=end))
    assert_same_tree(got, tree)


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
def test_row_bound_counts_line_ends_across_scan_blocks(tmp_path, tree,
                                                       monkeypatch, end):
    # 3-byte scan blocks split many a \r\n; the columns are sized by the
    # bound, so a short one would fail the read
    monkeypatch.setattr(trees, "_NUL_SCAN_BYTES", 3)
    header, rows = _lines(tree, tmp_path)
    path = _write(tmp_path / "t.csv", header, rows, end=end, trailer=end)
    assert trees._row_bound(path) == len(rows) + 2
    assert_same_tree(assert_readers_agree(path), tree)


def test_reader_accepts_a_byte_order_mark(tmp_path, tree):
    # spreadsheet exports often begin with one; it is not part of the header
    header, rows = _lines(tree, tmp_path)
    path = _write(tmp_path / "t.csv", "\ufeff" + header, rows)
    assert path.read_bytes().startswith(b"\xef\xbb\xbfpath,")
    assert_same_tree(read_genealogy_csv(path), tree)


def test_reader_quoted_fields(tmp_path, tree):
    header, rows = _lines(tree, tmp_path)
    quoted = [",".join(f'"{cell}"' for cell in row.split(","))
              for row in rows]
    got = assert_readers_agree(_write(tmp_path / "t.csv", header, quoted))
    assert_same_tree(got, tree)


BAD_FILES = {
    "bad-header": ("path,size,growth_rate,lifetime,birth_time",
                   [",1,1,0.5,0"]),
    "incomplete-tree": (",".join(_CSV_HEADER), [
        f"{p},1,1,0.5,0" for p in ("", "0", "1", "00", "01", "10")]),
    "duplicated-path": (",".join(_CSV_HEADER),
                        [",1,1,0.5,0", "0,1,1,0.5,0.5", "0,1,1,0.5,0.5"]),
    "non-binary-full": (",".join(_CSV_HEADER),
                        [",1,1,0.5,0", "0,1,1,0.5,0.5", "2,1,1,0.5,0.5"]),
    # in a value column: the reader never converts birth_time
    "non-number": (",".join(_CSV_HEADER),
                   [",1,1,oops,0"]),
    # paths are parsed as bytes, which drop trailing NULs: "1\0" would
    # otherwise complete the tree
    "nul-ending-path": (",".join(_CSV_HEADER),
                        [",1,1,0.5,0", "0,1,1,0.5,0.5", "1\0,1,1,0.5,0.5"]),
    "nul-inside-path": (",".join(_CSV_HEADER), [
        f"{p},1,1,0.5,0" for p in ("", "0", "1", "00", "0\01", "10", "11")]),
}


@pytest.mark.parametrize("case", sorted(BAD_FILES))
def test_reader_rejects_like_oracle(tmp_path, case):
    header, rows = BAD_FILES[case]
    got = assert_readers_agree(_write(tmp_path / "t.csv", header, rows))
    assert got is ValueError


def test_reader_sparse_chain_2e12_without_fixed_width_paths(
        tmp_path, variability_spec, peak_bytes):
    chain = simulate_sparse_lineage(variability_spec, 2 ** 12, seed=26)
    path = tmp_path / "chain.csv"
    write_genealogy_csv(chain, path)
    peak, got = peak_bytes(lambda: read_genealogy_csv(path))
    # a fixed-width unicode path column would take 4096 * 4095 * 4 B = 64 MiB
    # and a bytes one 16 MiB; the longest path as str objects 8 MiB
    assert peak < 12 * 2 ** 20
    assert_same_tree(got, oracle_read_genealogy_csv(path))
    assert_same_tree(got, chain)


@pytest.mark.parametrize("extra", [-1, 0, 1, 2])
def test_reader_chains_around_the_path_width(tmp_path, variability_spec,
                                              extra):
    # a chain of W + 1 cells has a longest path of W bytes, which fills the
    # first parse's width; at W + 2 cells that path is cut and read again
    cells = trees._PATH_WIDTH + extra
    chain = simulate_sparse_lineage(variability_spec, cells, seed=29)
    header, rows = _lines(chain, tmp_path)
    random.Random(2).shuffle(rows)
    got = assert_readers_agree(_write(tmp_path / "t.csv", header, rows))
    assert_same_tree(got, chain)


def test_reader_shuffled_full_tree_across_decode_blocks(
        tmp_path, variability_spec, monkeypatch):
    monkeypatch.setattr(trees, "_DECODE_ROWS", 7)
    full = simulate_full_tree(variability_spec, 6, seed=30)
    header, rows = _lines(full, tmp_path)
    random.Random(3).shuffle(rows)
    got = assert_readers_agree(_write(tmp_path / "t.csv", header, rows))
    assert_same_tree(got, full)


def test_breadth_first_order_checks_a_permutation():
    assert trees._breadth_first_order(np.arange(5)) is None
    slot = np.array([3, 0, 4, 1, 2])
    order = trees._breadth_first_order(slot)
    assert np.array_equal(slot[order], np.arange(5))
    for bad in ([1, 0, 1], [0, 1, 3], [2, 2, 0, 1]):
        with pytest.raises(ValueError, match="neither a complete tree"):
            trees._breadth_first_order(np.array(bad))


def test_reader_memory_per_row(tmp_path, variability_spec, peak_bytes):
    """Each row costs its three float columns (24 B; birth times are
    derived) and its int64 breadth-first slot (8 B), and the permutation
    check 1 B: 33 B/row.
    Files of 2^16 - 1 and 2^17 - 1 rows parse in four and eight blocks of
    ``_DECODE_ROWS`` (16,384 rows), whose scratch is the same whatever the
    number of blocks, so the difference of the peaks is the rows' own cost.  Parsing the whole file as one table of
    a 32-byte path and four floats, then copying the columns out, cost
    91-103 B/row."""
    def peak(generations):
        path = tmp_path / f"tree{generations}.csv"
        write_genealogy_csv(
            simulate_full_tree(variability_spec, generations, seed=31), path)
        return peak_bytes(lambda: read_genealogy_csv(path))

    (small, _), (large, got) = peak(15), peak(16)
    assert len(got) == 2 ** 17 - 1
    assert large - small < 56 * 2 ** 16  # 33 B/row and the parser's buffers


def test_reader_memory_per_row_of_a_small_file(tmp_path, variability_spec,
                                               peak_bytes):
    """A file of 2^16 - 1 rows peaks at its columns, slots and the scratch
    of one ``_DECODE_ROWS`` block: under 100 B/row with blocks of 16,384
    rows.  Blocks of 65,536 rows took the whole file in one and peaked at
    195 B/row, above the 163 B/row of the reader before blocks."""
    path = tmp_path / "tree.csv"
    write_genealogy_csv(simulate_full_tree(variability_spec, 15, seed=31),
                        path)
    peak, got = peak_bytes(lambda: read_genealogy_csv(path))
    assert len(got) == 2 ** 16 - 1
    assert peak < 100 * len(got)


def test_reader_without_birth_time_derives_it(tmp_path, tree):
    """The reader never parses ``birth_time`` and makes the same tree: the
    column is derived from the lifetimes, bit for bit."""
    header, rows = _lines(tree, tmp_path)
    random.Random(4).shuffle(rows)
    path = _write(tmp_path / "t.csv", header, rows)
    got = read_genealogy_csv(path)
    assert_same_tree(got, oracle_read_genealogy_csv(path))
    assert_same_tree(got, tree)


def test_reader_without_birth_time_needs_the_cell_not_its_value(tmp_path):
    rows = [",1,1,0.5,0", "0,1,1,0.5,later", "1,1,1,0.5,0.5"]
    path = _write(tmp_path / "t.csv", ",".join(_CSV_HEADER), rows)
    got = read_genealogy_csv(path)
    assert got.scheme == "full"
    assert got.birth_time.tolist() == [0.0, 0.5, 0.5]
    short = _write(tmp_path / "short.csv", ",".join(_CSV_HEADER),
                   [",1,1,0.5,0", "0,1,1,0.5", "1,1,1,0.5,0.5"])
    with pytest.raises(ValueError):
        read_genealogy_csv(short)


@pytest.mark.parametrize("columns", [
    ("size_birth", "growth_rate"),
    ("growth_rate", "size_birth", "lifetime", "birth_time"),
    ("size_birth", "growth_rate", "lifetime", "birth_time", "path"), ()])
def test_reader_refuses_columns_it_cannot_build_a_tree_from(tmp_path, tree,
                                                            columns):
    # the header is the reader's only column rule: one naming other columns
    # than the writer's is refused, even when every cell would parse (the
    # swapped size and rate columns)
    _, rows = _lines(tree, tmp_path)
    header = ",".join(["path", *columns])
    with pytest.raises(ValueError, match="unexpected genealogy header"):
        read_genealogy_csv(_write(tmp_path / "t.csv", header, rows))


def oracle_row_bound(path, scan_bytes):
    """The line-end count as four ``bytes`` scans per block, as it was."""
    ends, cr = 0, False
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(scan_bytes), b""):
            if b"\0" in block:
                raise ValueError("genealogy CSV holds a NUL byte")
            ends += (block.count(b"\n") + block.count(b"\r")
                     - block.count(b"\r\n") - (cr and block[:1] == b"\n"))
            cr = block.endswith(b"\r")
    return ends


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("scan", [1, 2, 3, 7, 64, 1 << 20])
def test_row_bound_matches_the_bytes_scan(tmp_path, tree, monkeypatch, end,
                                          scan):
    monkeypatch.setattr(trees, "_NUL_SCAN_BYTES", scan)
    header, rows = _lines(tree, tmp_path)
    path = _write(tmp_path / "t.csv", header, rows, end=end, trailer=end)
    assert trees._row_bound(path) == oracle_row_bound(path, scan)


def test_row_bound_joins_a_split_crlf_and_finds_a_late_nul(tmp_path,
                                                           monkeypatch):
    monkeypatch.setattr(trees, "_NUL_SCAN_BYTES", 3)
    path = tmp_path / "t.csv"
    # blocks "ab\r" "\ncd" "\r\r\n" "\n": a \r\n across two blocks, a
    # lone \r, a \r\n within one and a lone \n
    path.write_bytes(b"ab\r\ncd\r\r\n\n")
    assert trees._row_bound(path) == oracle_row_bound(path, 3) == 4
    path.write_bytes(b"a,b\r\n" * 5 + b"\0\r\n")  # in the ninth block
    for count in (trees._row_bound, lambda p: oracle_row_bound(p, 3)):
        with pytest.raises(ValueError, match="NUL"):
            count(path)


def test_reader_rejects_non_binary_sparse_path(tmp_path):
    path = _write(tmp_path / "t.csv", ",".join(_CSV_HEADER),
                  [",1,1,0.5,0", "7,1,1,0.5,0.5"])
    with pytest.raises(ValueError, match="0 and 1"):
        read_genealogy_csv(path)


def test_tree_rejects_non_binary_chain_bits():
    one = np.ones(2)
    with pytest.raises(ValueError, match="0 or 1"):
        GenealogyTree("sparse", one, one, one, chain_bits=np.array([7]))


# ---------------------------------------------------------------------------
# Lineage ingest against the oracle
# ---------------------------------------------------------------------------

HEADER = "size_birth,growth_rate,lifetime"
INGEST_FILES = {
    # name: (text, kwargs, parsed column-wise)
    "well-formed": (HEADER + "\n1.0,1.1,0.4\n2.0,0.9,0.3\n1.5,1.0,0.5\n",
                    {}, True),
    "bad-values": (HEADER + "\n1.0,0.0,0.4\n2.0,0.9,0.3\nnan,1.0,0.5\n"
                   "1.0,1.0,oops\n", {}, False),
    "mapped": ("len_birth,alpha,dt\n1.0,1.1,0.4\n",
               {"column_map": {"size_birth": "len_birth",
                               "growth_rate": "alpha", "lifetime": "dt"}},
               True),
    "missing-column": ("size,rate\n1.0,1.0\n", {}, True),
    "empty-file": ("", {}, True),
    "header-only": (HEADER + "\n", {}, True),
    "all-rejected": (HEADER + "\n-1.0,1.0,0.5\n", {}, True),
    "whitespace-line": (HEADER + "\n1.0,1.0,0.5\n   \n2.0,1.0,0.5\n", {},
                        False),
    "short-row": (HEADER + "\n1.0,1.0,0.5\n2.0,1.0\n3.0,1.0,0.5\n", {},
                  False),
    "underscore": (HEADER + "\n1_5,1.0,0.5\n2.0,1.0,0.5\n", {}, False),
    "inf-and-minus-zero": (HEADER + "\n1.0,inf,0.5\n-0,1.0,0.5\n"
                           "2.0,1.0,-inf\n3.0,1.0,0.5\n", {}, True),
    "hash-cell": (HEADER + "\n#1.0,1.0,0.5\n2.0,1.0,0.5\n", {}, False),
    "blank-lines-crlf": (HEADER + "\r\n1.0,1.0,0.5\r\n\r\n2.0,0.0,0.5\r\n"
                         "\r\n3.0,1.0,0.5\r\n", {}, True),
    "lineages": (HEADER + ",lineage_id\n" + "".join(
        f"{1 + k / 8},1.0,{0.5 if k != 7 else -1},{'#b' if k % 3 else 'a'}\n"
        for k in range(12)), {"drop_first": 1, "drop_last": 1}, True),
    "lineages-short-row": (HEADER + ",lineage_id\n1.0,1.0,0.5,a\n"
                           "2.0,1.0,0.5\n3.0,1.0,0.5,b\n4.0,1.0,0.5,a\n",
                           {"drop_first": 1}, False),
    "no-lineage-column-drop": (HEADER + "\n" + "".join(
        f"{1 + k},1.0,0.5\n" for k in range(6)),
        {"drop_first": 2, "drop_last": 1}, True),
    "quoted-lineage": (HEADER + ',lineage_id\n1.0,1.0,0.5,"a,b"\n'
                       '2.0,1.0,0.5,"a""b"\n3.0,1.0,0.5,"a,b"\n', {}, True),
}


@pytest.mark.parametrize("case", sorted(INGEST_FILES))
def test_ingest_matches_oracle(tmp_path, monkeypatch, case):
    text, kwargs, columnwise = INGEST_FILES[case]
    path = tmp_path / "cells.csv"
    path.write_bytes(text.encode())
    row_loop_calls = []
    row_loop = studies._ingest_rows

    def counted_row_loop(*args):
        row_loop_calls.append(args)
        return row_loop(*args)

    monkeypatch.setattr(studies, "_ingest_rows", counted_row_loop)
    want = outcome(oracle_ingest_lineage_csv, path, **kwargs)
    got = outcome(ingest_lineage_csv, path, **kwargs)
    assert bool(row_loop_calls) is not columnwise
    if isinstance(want, type):
        assert got is want
        return
    (obs, report), (want_obs, want_report) = got, want
    assert report.to_json_dict() == want_report.to_json_dict()
    for col in ("size_birth", "growth_rate", "lifetime"):
        x, y = getattr(obs, col), getattr(want_obs, col)
        # one contiguous array per column; a one-cell column has no stride
        # to compare (the oracle's is a row of its table, 24 bytes)
        assert x.flags.c_contiguous and np.array_equal(x, y), col


@pytest.mark.parametrize("case", ["lineages", "short-row"])
def test_ingest_accepts_a_byte_order_mark(tmp_path, case):
    """A UTF-8 byte-order mark is not part of the first column's name, on
    the column-wise path and in the row loop a short row falls back to."""
    text, kwargs, _ = INGEST_FILES[case]
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(text.encode())
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
    (obs, report), (want_obs, want_report) = (
        ingest_lineage_csv(path, **kwargs) for path in (marked, plain))
    assert report.to_json_dict() == want_report.to_json_dict()
    for col in DEFAULT_COLUMN_MAP:
        assert np.array_equal(getattr(obs, col), getattr(want_obs, col))


@pytest.mark.parametrize("block_rows", [1, 2, 1 << 14])
@pytest.mark.parametrize("tail, lines", [
    ("", [5]), ('\n"3\n",-1,1\n', [5, 8]), ("\n\nx,1,1\n", [5, 8])],
    ids=["column-wise", "quoted-line-end", "row-loop"])
def test_ingest_reports_the_file_line_of_a_rejected_row(
        tmp_path, monkeypatch, block_rows, tail, lines):
    """Blank lines count, and a row whose quoted cell holds a line end is
    on the line it ends on, as ``csv.reader.line_num`` has it; the
    non-number ``x`` sends the last file through the row loop."""
    monkeypatch.setattr(studies, "_INGEST_ROWS", block_rows)
    path = tmp_path / "cells.csv"
    path.write_bytes((HEADER + "\n\n1,1,1\n\n2,-1,1\n" + tail).encode())
    _, report = ingest_lineage_csv(path)
    assert [line for line, _ in report.rejected] == lines


def test_ingest_memory_per_row(tmp_path, variability_spec, peak_bytes):
    """Ingest parses blocks of ``_INGEST_ROWS`` rows into three float
    columns sized by the file's line ends (24 B/row) and an accepted-row
    mask (1 B/row), beside the fixed scratch of the line scan and one
    block: 37.5 B/row at 2^16 - 1 rows.  Parsing the whole file as one
    (row, 3) table and copying the three columns out took 50 B/row, and
    copying the accepted rows and then the kept rows whole as well, when
    every row was both, 90 B/row."""
    path = tmp_path / "tree.csv"
    write_genealogy_csv(simulate_full_tree(variability_spec, 15, seed=32),
                        path)
    peak, (obs, report) = peak_bytes(lambda: ingest_lineage_csv(path))
    assert obs.n == report.accepted == 2 ** 16 - 1
    assert all(getattr(obs, c).flags.c_contiguous for c in DEFAULT_COLUMN_MAP)
    assert peak < 40 * obs.n


def test_ingest_memory_per_cell(tmp_path, variability_spec, peak_bytes):
    """Each cell costs its three float columns and its accepted-row flag,
    25 B; files of 2^16 - 1 and 2^17 - 1 rows share the same fixed scratch,
    so the difference of their peaks is the cells' own cost.  The parent
    layout, a whole-file table copied into columns, cost 50 B/cell."""
    def peak(generations):
        path = tmp_path / f"tree{generations}.csv"
        write_genealogy_csv(
            simulate_full_tree(variability_spec, generations, seed=33), path)
        return peak_bytes(lambda: ingest_lineage_csv(path))

    (small, _), (large, (obs, _)) = peak(15), peak(16)
    assert obs.n == 2 ** 17 - 1
    assert large - small < 26 * 2 ** 16


def test_ingest_lineage_column_memory_per_row(tmp_path, variability_spec,
                                              peak_bytes):
    """With a lineage column, a row also holds its key (a reference and a
    short string) while the lineages are ordered, and the kept rows are
    taken into new columns one at a time: 131 B/row at 2^16 - 1 rows
    with 1,000 lineages.  Parsing the whole file as one table and copying
    the kept rows and then each column took 144 B/row."""
    source = tmp_path / "tree.csv"
    write_genealogy_csv(simulate_full_tree(variability_spec, 15, seed=34),
                        source)
    lines = source.read_text().splitlines()
    path = tmp_path / "lineages.csv"
    path.write_text("lineage_id," + lines[0] + "\n" + "".join(
        f"L{k % 1000},{line}\n" for k, line in enumerate(lines[1:])))
    peak, (obs, report) = peak_bytes(
        lambda: ingest_lineage_csv(path, drop_first=1))
    assert report.lineages == 1000 and obs.n == 2 ** 16 - 1 - 1000
    assert all(getattr(obs, c).flags.c_contiguous for c in DEFAULT_COLUMN_MAP)
    assert peak < 135 * obs.n


def test_ingest_drop_last_beyond_lineage_length_drops_all(tmp_path):
    path = tmp_path / "cells.csv"
    path.write_text(HEADER + ",lineage_id\n"
                    "1.0,1.0,0.5,a\n2.0,1.0,0.5,a\n3.0,1.0,0.5,a\n"
                    + "".join(f"{4 + k},1.0,0.5,b\n" for k in range(6)))
    obs, report = ingest_lineage_csv(path, drop_last=4)
    assert obs.size_birth.tolist() == [4.0, 5.0]
    assert report.dropped_boundary == 7


@pytest.mark.parametrize("kwargs", [
    {"column_map": {"sizebirth": "birth_time"}},
    {"drop_first": -1},
    {"drop_last": -1},
])
def test_ingest_rejects_bad_arguments(tmp_path, kwargs):
    path = tmp_path / "cells.csv"
    path.write_text(HEADER + ",birth_time\n1.0,1.0,0.5,1.0\n")
    with pytest.raises(ValueError):
        ingest_lineage_csv(path, **kwargs)


# ---------------------------------------------------------------------------
# Curve TSV writer against the oracle
# ---------------------------------------------------------------------------

def test_curve_tsv_matches_oracle(tmp_path):
    rng = np.random.default_rng(27)
    columns = {
        "f64": np.concatenate([rng.normal(size=6) * 10.0 ** rng.integers(
            -300, 300, size=6), [0.0, -0.0, 5e-324, 1.0, np.inf, np.nan]]),
        "f32": rng.random(12).astype(np.float32),
        "i64": np.array([0, -1, 2 ** 62, -2 ** 63, *range(8)]),
        "u64": np.array([2 ** 64 - 1, *range(11)], dtype=np.uint64),
        "bool": rng.random(12) < 0.5,
        "ints": list(range(12)),
        "floats": [k / 7 for k in range(12)],
    }
    want, got = tmp_path / "want.tsv", tmp_path / "got.tsv"
    oracle_write_curve_tsv(want, columns)
    write_curve_tsv(got, columns)
    assert got.read_bytes() == want.read_bytes()


def test_curve_tsv_long_columns_match_oracle(tmp_path):
    # long enough for the vectorised digits, with values that fall back
    rng = np.random.default_rng(32)
    f64 = rng.lognormal(0.0, 2.0, 1000)
    f64[::97] = [0.0, -1.5, np.nan, np.inf, 1e-9, 1e17, 5e-324, -0.0, 1e-4,
                 9999999999999998.0, 0.1]
    columns = {"f64": f64, "i64": rng.integers(-10 ** 12, 10 ** 12, 1000),
               "bool": rng.random(1000) < 0.5,
               "f32": rng.random(1000).astype(np.float32)}
    want, got = tmp_path / "want.tsv", tmp_path / "got.tsv"
    oracle_write_curve_tsv(want, columns)
    write_curve_tsv(got, columns)
    assert got.read_bytes() == want.read_bytes()
