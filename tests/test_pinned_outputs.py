"""Pinned command outputs: every file the small runs of ``SMALL_RUNS`` (seed
3) write, against values recorded in ``pinned_outputs.json``.

A refactor may move a float in its last bits, not the science, so floats
are compared at 1e-12 relative with no absolute slack: a zero stays a zero.
Integers, flags, verdicts, strings and counts are compared exactly.  A TSV
of more than ``ROWS`` rows is pinned by its row count, every ``k``-th row
and each column's ``math.fsum``.  After a change that is meant to move an
output, record the pins again with

    PYTHONPATH=src python tests/test_pinned_outputs.py
"""

import json
import math
import sys
import tempfile
from pathlib import Path

import pytest

PINS = Path(__file__).with_name("pinned_outputs.json")
RTOL = 1e-12
ROWS = 100  # rows of a TSV pinned in full

RUNS = {  # the estimate entry of SMALL_RUNS cross-checks: its estimate.tsv
    # and estimate.json are those of a plain run
    "estimate": ("estimate",),
    "estimate-pooled-tau": ("estimate", "--pooled-tau"),
    "ingest": ("ingest",),
    "study": ("study",),
    "verify": ("verify",),
    "pde-check": ("pde-check",),
}


def _number(text: str):
    try:
        return int(text)
    except ValueError:
        return float(text)


def _tsv(path: Path) -> dict:
    names, *lines = path.read_text().splitlines()
    rows = [[_number(v) for v in line.split("\t")] for line in lines]
    if len(rows) <= ROWS:
        return {"columns": names.split("\t"), "rows": rows}
    every = -(-len(rows) // (ROWS // 2))
    return {"columns": names.split("\t"), "count": len(rows), "every": every,
            "rows": rows[::every],
            "fsum": [math.fsum(col) for col in zip(*rows)]}


def outputs(out: Path) -> dict:
    """Each file a run wrote into ``out``, parsed: JSON as written, a TSV
    as its columns and (pinned) rows."""
    return {path.name: (json.loads(path.read_text())
                        if path.suffix == ".json" else _tsv(path))
            for path in sorted(out.iterdir())}


def _match(got, want, where: str) -> None:
    if isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), where
        for key in want:
            _match(got[key], want[key], f"{where}/{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for k, (a, b) in enumerate(zip(got, want)):
            _match(a, b, f"{where}[{k}]")
    elif isinstance(want, float) or isinstance(got, float):
        assert not isinstance(got, (bool, str)) and got is not None, where
        assert math.isclose(got, want, rel_tol=RTOL, abs_tol=0.0), (
            f"{where}: {got!r} != {want!r}")
    else:  # int, bool, str, None
        assert type(got) is type(want) and got == want, (
            f"{where}: {got!r} != {want!r}")


@pytest.mark.parametrize("run", sorted(RUNS))
def test_small_run_outputs_are_pinned(small_run, tmp_path, run):
    command, *flags = RUNS[run]
    assert small_run(command, tmp_path, "--no-timestamp", *flags) == 0
    _match(outputs(tmp_path), json.loads(PINS.read_text())[run], run)


def record() -> None:
    """Write ``PINS`` from small runs of the sources on ``sys.path``."""
    from conftest import SMALL_RUNS

    from gftree.cli import main

    pins = {}
    with tempfile.TemporaryDirectory() as tmp:
        csv = Path(tmp) / "genealogy.csv"

        def run(command, out, *flags):
            argv = [a.format(csv=csv) for a in SMALL_RUNS[command]]
            assert main([command, *argv, "--seed", "3", "--out", str(out),
                         "--no-timestamp", *flags]) == 0

        run("simulate", csv.parent)
        for name, (command, *flags) in RUNS.items():
            run(command, Path(tmp) / name, *flags)
            pins[name] = outputs(Path(tmp) / name)
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(record())
