"""Names that other files rely on still exist.

``perfbench/tracing.py`` wraps ``(module, function)`` pairs of the package
by name; a renamed or deleted function would silently drop its layer from
a traced run.  This reads the table without changing it.  The README's
library example is run as written, so it cannot name a deleted function.
"""

import importlib.util
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_layers_resolve_after_cli_import():
    import gftree.cli  # noqa: F401  - the tracer loads the package this way

    layers = _tracing_module().LAYERS
    assert layers
    missing = [f"{mod}.{fn}" for mod, fn in layers
               if not callable(getattr(sys.modules.get(f"gftree.{mod}"),
                                       fn, None))]
    assert not missing, f"tracer layers that no longer resolve: {missing}"
    hot = sys.modules["gftree._hot"]
    assert isinstance(hot.BACKEND, str)
    assert callable(hot.compiled_backend)


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library entry points", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    scope = {}
    exec(compile(code, "README.md", "exec"), scope)
    assert len(scope["tree"]) == 2 ** 14 - 1
    assert scope["est"].n == 2 ** 14 - 1


def test_pde_run_counter_reads_a_real_march():
    # the tracer counts steps from result[1] and cells from args[0], so a
    # reordered pde_run signature must fail here, not in a traced run
    import numpy as np

    from gftree import _hot
    from gftree.invariant import _pde_operator
    from gftree.model import PowerLawRate

    m, dx = 200, 2.5e-2
    centers = (np.arange(m) + 0.5) * dx
    args = (np.full(m, 1.0 / (m * dx)), 1e-3,
            _pde_operator(PowerLawRate(1.0, 2.0), 1.0, centers, dx), dx, 7,
            0.0)
    result = _hot.pde_run(*args)
    names, counts = _tracing_module().LAYERS[("_hot", "pde_run")]
    got = counts(_hot.pde_run, args, {}, result)
    assert set(got) == set(names)
    assert got == {"steps": result[1], "cell_steps": result[1] * m}
    assert result[1] == 7
