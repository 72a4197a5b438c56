import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gftree import trees
from gftree.model import reference_model
from gftree.streams import run_key

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(scope="session", autouse=True)
def child_processes_import_checkout():
    """``python -m gftree.cli`` subprocesses import this checkout's sources,
    as the test process does through ``pythonpath`` in pyproject.toml."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(
            filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        yield


@pytest.fixture(scope="session")
def workers() -> int:
    return min(8, os.cpu_count() or 1)


@pytest.fixture(scope="session")
def dirac_spec():
    return reference_model("dirac")


@pytest.fixture(scope="session")
def variability_spec():
    return reference_model("uniform_increment")


@pytest.fixture(scope="session")
def tagged_branch():
    """``tagged_branch(spec, t, seed)``: one uniformly tagged line of
    descent until time t, as the many-to-one check grows it: the keyed
    forest from one root, one child picked per division, sizes rebuilt from
    the cumulated growth.  Columns per cell of the branch, root first."""
    def grow(spec, t, seed):
        forest = trees._Forest(spec, run_key(seed), sizes_from_growth=True)
        steps = [(forest.birth, forest.size, forest.rate, forest.cum)
                 for _ in trees._grow_until(forest, t, pick=True)]
        return dict(zip(("birth_times", "sizes", "rates",
                         "cum_growth_at_birth"),
                        (np.concatenate(c) for c in zip(*steps))))

    return grow


SMALL_RUNS = {  # each command's flags for a run of a few milliseconds
    "simulate": ["--scheme", "full", "--generations", "7"],
    "estimate": ["--input", "{csv}", "--cross-check"],
    "study": ["--sizes", "5..6", "--replicates", "3", "--band-size", "0"],
    "verify": ["--class-check"],
    "pde-check": [],
    "ingest": ["--input", "{csv}"],
}


@pytest.fixture(scope="session")
def small_run(tmp_path_factory):
    """``small_run(command, out, *flags)``: the exit code of a small run of
    ``command`` at seed 3 into ``out``, with ``flags`` added.  estimate and
    ingest read a 255-cell genealogy that simulate wrote."""
    from gftree.cli import main

    def run(command, out, *flags):
        argv = [a.format(csv=csv) for a in SMALL_RUNS[command]]
        return main([command, *argv, "--seed", "3", "--out", str(out),
                     *map(str, flags)])

    csv = tmp_path_factory.mktemp("small") / "genealogy.csv"
    assert run("simulate", csv.parent, "--no-timestamp") == 0
    return run


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def peak_bytes():
    """``peak_bytes(fn)`` calls ``fn()`` and returns the most bytes it held
    at once by tracemalloc's count, not counting what existed before the
    call, and the call's result."""
    def measure(fn):
        tracemalloc.start()
        try:
            result = fn()
            return tracemalloc.get_traced_memory()[1], result
        finally:
            tracemalloc.stop()

    return measure


@pytest.fixture(scope="session")
def bytes_per_added_cell(peak_bytes):
    """``bytes_per_added_cell(setup, small, large)``: by how many bytes per
    added cell the peak of a call rises from size ``small`` to ``large``,
    and the call's result at ``large``.  ``setup(size)`` returns the call,
    made ready outside the count, and the number of cells it handles at
    that size."""
    def per_cell(setup, small, large):
        (low, n_low), (high, n_high) = setup(small), setup(large)
        peak, result = peak_bytes(high)
        return (peak - peak_bytes(low)[0]) / (n_high - n_low), result

    return per_cell
