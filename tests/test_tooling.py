"""Names that other files rely on still exist.

``perfbench/tracing.py`` wraps ``(module, function)`` pairs of the package
by name; a renamed or deleted function would silently drop its layer from
a traced run.  This reads the table without changing it.  The README's
library example is run as written, so it cannot name a deleted function,
and its table of manifest keys is checked against the JSON writer.
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


def test_benchmark_stamp_runs_against_src():
    # perfbench/run.py stamps every run with this child's output and exits 2
    # when it fails, so a moved or renamed _hot name would fail every run
    import ast
    import json
    import os
    import subprocess

    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text("utf-8"))
    code, = (node.value.value for node in tree.body
             if isinstance(node, ast.Assign)
             and [t.id for t in node.targets] == ["_STAMP_CODE"])
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    stamp = json.loads(out.stdout.strip().splitlines()[-1])
    assert stamp["backend"] == "numpy"
    assert stamp["core_imports"] is False


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library entry points", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    scope = {}
    exec(compile(code, "README.md", "exec"), scope)
    assert len(scope["tree"]) == 2 ** 14 - 1
    assert scope["est"].n == 2 ** 14 - 1


def test_readme_manifest_keys_match_the_writer(small_run, tmp_path):
    """The README's table of manifest keys names every key ``_manifest``
    writes, and for each key the JSON files that carry it in a real run of
    every command."""
    import argparse
    import json

    from gftree import cli
    from gftree.estimator import EstimatorConfig
    from gftree.model import reference_model

    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    table = readme.split("| key | in |", 1)[1].split("\n\n", 1)[0]
    rows = dict(re.fullmatch(r"\s*\| `(\w+)` \| (.*) \|", line).groups()
                for line in table.strip().splitlines()[1:])
    args = argparse.Namespace(command="simulate", seed=3, no_timestamp=False)
    cli._manifest(args, tmp_path, "all.json", {}, reference_model("dirac"),
                  EstimatorConfig())
    written = json.loads((tmp_path / "all.json").read_text())
    assert rows.keys() == written.keys()
    docs = {}
    for command in ("simulate", "estimate", "study", "verify", "pde-check",
                    "ingest"):
        assert small_run(command, tmp_path / command) == 0
        docs.update((path.name, json.loads(path.read_text()))
                    for path in (tmp_path / command).glob("*.json"))
    for key, files in rows.items():
        named = (set(docs) if files.startswith("every file")
                 else set(re.findall(r"`([\w.]+\.json)`", files)))
        assert named == {name for name, doc in docs.items() if key in doc}, key


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


def test_growth_kernels_declare_the_uniforms_the_tracer_counts(monkeypatch):
    # the tracer divides the draw_uniform values made inside
    # sample_growth_rates_keyed by uniforms_per_attempt; a kernel without
    # it, or drawing another number, breaks only a traced run
    import typing

    import numpy as np

    from gftree import model, streams

    bounds = model.GrowthBounds(0.2, 3.0)
    kernels = [model.DiracGrowth(1.0, bounds),
               model.UniformIncrementGrowth(2.0, 0.5, bounds),
               model.GaussianIncrementGrowth(0.3, bounds),
               model.IndependentResampleGrowth(np.array([0.2, 1.0, 3.0]),
                                               np.array([0.0, 1.0, 0.5]),
                                               bounds)]
    assert {type(k) for k in kernels} == set(typing.get_args(
        model.GrowthKernel))
    draws, draw_uniform = [], streams.draw_uniform

    def counting(keys, stream, counter):
        u = draw_uniform(keys, stream, counter)
        draws.append(u.size)
        return u

    monkeypatch.setattr(streams, "draw_uniform", counting)
    n = 257
    keys = streams.child_keys(streams.run_key(5),
                              np.arange(n, dtype=np.uint64))
    for kernel in kernels:
        assert "uniforms_per_attempt" in vars(type(kernel)), type(kernel)
        draws.clear()
        rates = model.sample_growth_rates_keyed(
            kernel, np.full(n, 1.0), keys, streams.STREAM_GROWTH)
        assert rates.shape == (n,)
        assert sum(draws) == n * kernel.uniforms_per_attempt, type(kernel)


def test_tabulated_inverse_makes_a_fixed_number_of_passes(monkeypatch):
    # invert_hazard searches the antiderivative's knots once and runs a
    # bounded Newton inside the segment: the passes over its lanes do not
    # depend on the target, as a bracketing or bisection loop's would
    import numpy as np

    from gftree import model

    grid = np.linspace(0.05, 8.0, 800)
    rate = model.TabulatedRate(grid, grid ** 2)
    passes, antiderivative = [], model.TabulatedRate.log_antiderivative

    def counting(self, y):
        passes.append(np.size(y))
        return antiderivative(self, y)

    monkeypatch.setattr(model.TabulatedRate, "log_antiderivative", counting)
    n = 4096
    rng = np.random.default_rng(5)
    x, v = rng.uniform(0.01, 10.0, n), rng.uniform(0.2, 3.0, n)
    counts = set()
    for e in (1e-12, 1.0, 50.0):
        passes.clear()
        rate.invert_hazard(x, v, np.full(n, e))
        counts.add(len(passes))
    assert len(counts) == 1 and counts.pop() <= 3


def test_sparse_study_steps_its_longest_lineage_once(monkeypatch):
    # every size of a sparse ladder shares one forest, which divides once
    # per generation of its longest lineage: 2^8 - 1 times for sizes 5..8,
    # not once per generation of every size
    from gftree import trees
    from gftree.model import reference_model
    from gftree.studies import run_convergence_study

    calls, divide = [], trees._Forest.divide

    def counting(self, *args, **kwargs):
        calls.append(self.key.size)
        return divide(self, *args, **kwargs)

    monkeypatch.setattr(trees._Forest, "divide", counting)
    study = run_convergence_study(reference_model("dirac"), range(5, 9), 10,
                                  "sparse", seed=4)
    assert study.sizes() == [32, 64, 128, 256]
    assert len(calls) == 2 ** 8 - 1
    # generation g holds the lanes longer than g: a size's lanes leave the
    # forest once its lineages end
    assert calls[0] == calls[31] == 40 and calls[32] == 30
    assert calls[64] == 20 and calls[128] == calls[-1] == 10


def test_every_float_flag_refuses_non_finite_values(tmp_path, capsys):
    # each float flag's range is stated where make_parser declares it (the
    # model flags' in the model they build), so nan and inf exit 2 before an
    # output directory is made; a flag added without a range fails here
    import argparse

    from gftree.cli import main, make_parser

    csv = tmp_path / "sim" / "genealogy.csv"
    base = {"simulate": ["--scheme", "full", "--generations", "1"],
            "estimate": ["--input", str(csv)],
            "study": ["--sizes", "5", "--replicates", "2", "--band-size",
                      "0", "--full-only"],
            "verify": ["--class-check"],
            "pde-check": ["--grid-dx", "0.05"],
            "ingest": ["--input", str(csv)]}
    assert main(["simulate", "--scheme", "full", "--generations", "6",
                 "--out", str(csv.parent)]) == 0
    commands, = (a.choices for a in make_parser()._actions
                 if isinstance(a, argparse._SubParsersAction))
    assert set(commands) == set(base)
    checked = 0
    for name, sub in commands.items():
        # the base invocation runs, so a refusal below is the flag's own
        assert main([name, *base[name],
                     "--out", str(tmp_path / name)]) in (0, 4)
        for action in sub._actions:
            if getattr(action.type, "__name__", None) != "float":
                continue
            flag = action.option_strings[-1]
            for value in ("nan", "inf"):
                out = tmp_path / "refused"
                assert main([name, *base[name], flag, value,
                             "--out", str(out)]) == 2, (name, flag, value)
                assert flag in capsys.readouterr().err, (name, flag, value)
                assert not out.exists(), (name, flag, value)
                checked += 1
    assert checked >= 2 * 35  # the float flags of today, all found
