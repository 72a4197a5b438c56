"""The benchmark tracer's layer table names functions that exist.

``perfbench/tracing.py`` wraps ``(module, function)`` pairs of the package
by name; a renamed or deleted function would silently drop its layer from
a traced run.  This reads the table without changing it.
"""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
