import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gftree.model import reference_model

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
