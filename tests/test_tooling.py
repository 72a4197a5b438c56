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
