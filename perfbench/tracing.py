"""In-process span tracing of gftree's layers, from outside the package.

The tracer replaces selected public functions with wrappers at every
``gftree`` module attribute that holds them, so each caller's own lookup
(``gftree.cli.estimate_division_rate``, ``gftree.studies.
estimate_division_rate``, ``gftree._hot.kernel_sums``, ...) reaches the
wrapper.  Each call records a span (name, start, end, parent) in compact
arrays, and work counts derived from the call's arguments and result.  The
originals are restored when the tracer closes.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Callable

import numpy as np


def _size(result) -> int:
    return int(np.size(result))


def _bound(fn: Callable, args, kwargs, name: str):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


def _pairs(args) -> int:
    """Point-centre pairs inside the truncation window, from the inputs of
    ``kernel_sums(sizes_sorted, centers, h, radius, scale)``."""
    sizes, centers, h, radius = args[0], args[1], args[2], args[3]
    lo = np.searchsorted(sizes, centers - radius * h, side="left")
    hi = np.searchsorted(sizes, centers + radius * h, side="right")
    return int(np.sum(hi - lo))


def _ingest_counts(result) -> dict[str, int]:
    report = result[1]
    return {"rows": report.accepted + report.dropped_boundary
            + len(report.rejected), "rejected": len(report.rejected)}


def _pde_counts(args, result) -> dict[str, int]:
    steps = int(result[1])
    return {"steps": steps, "cell_steps": steps * int(np.size(args[0]))}


# (module, function) -> (count names, counts of one call from (fn, args,
# kwargs, result)).  ``sample_growth_rates_keyed`` also gets ``proposals``,
# filled in by the tracer from the uniforms it drew (Tracer._count_proposals).
LAYERS: dict[tuple[str, str], tuple[tuple[str, ...], Callable]] = {
    ("cli", "main"): ((), lambda f, a, k, r: {}),
    ("trees", "write_genealogy_csv"): (
        ("rows",), lambda f, a, k, r: {"rows": len(_bound(f, a, k, "tree"))}),
    ("trees", "read_genealogy_csv"): (
        ("rows",), lambda f, a, k, r: {"rows": len(r)}),
    ("trees", "simulate_full_tree"): (
        ("cells",), lambda f, a, k, r: {"cells": len(r)}),
    ("trees", "simulate_sparse_lineage"): (
        ("cells",), lambda f, a, k, r: {"cells": len(r)}),
    ("trees", "many_to_one_battery"): (
        ("replicates",),
        lambda f, a, k, r: {"replicates": int(_bound(f, a, k, "replicates"))}),
    ("streams", "draw_uniform"): (
        ("draws",), lambda f, a, k, r: {"draws": _size(r)}),
    ("streams", "child_keys"): (
        ("keys",), lambda f, a, k, r: {"keys": _size(r)}),
    ("model", "sample_growth_rates_keyed"): (
        ("rates", "proposals"), lambda f, a, k, r: {"rates": _size(r)}),
    ("model", "check_class_membership"): ((), lambda f, a, k, r: {}),
    ("_hot", "powerlaw_lifetimes"): (
        ("cells",), lambda f, a, k, r: {"cells": _size(r)}),
    ("_hot", "kernel_sums"): (
        ("centres", "pairs"),
        lambda f, a, k, r: {"centres": _size(r), "pairs": _pairs(a)}),
    ("_hot", "pde_run"): (
        ("steps", "cell_steps"), lambda f, a, k, r: _pde_counts(a, r)),
    ("estimator", "estimate_division_rate"): (
        ("n",), lambda f, a, k, r: {"n": r.n}),
    ("estimator", "kernel_density"): ((), lambda f, a, k, r: {}),
    ("studies", "ingest_lineage_csv"): (
        ("rows", "rejected"), lambda f, a, k, r: _ingest_counts(r)),
    ("studies", "run_convergence_study"): ((), lambda f, a, k, r: {}),
    ("studies", "confidence_band"): ((), lambda f, a, k, r: {}),
    ("curves", "write_curve_tsv"): (
        ("rows",), lambda f, a, k, r: {"rows": len(next(iter(
            _bound(f, a, k, "columns").values())))}),
    ("invariant", "invariant_fixed_point"): (
        ("iterations",), lambda f, a, k, r: {"iterations": r.iterations}),
    ("invariant", "solve_conservative_pde"): ((), lambda f, a, k, r: {}),
}

# Metric names start with a letter, so the ``_hot`` module reports as ``hot``.
LAYER_NAMES = [f"{m.lstrip('_')}.{f}" for m, f in LAYERS]
_DRAW = LAYER_NAMES.index("streams.draw_uniform")
_GROWTH = LAYER_NAMES.index("model.sample_growth_rates_keyed")


class Tracer:
    """Wraps the layers while open; spans live in memory until ``save``."""

    def __init__(self):
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.counts = defaultdict(int)
        self._stack = [-1]
        self._draws = 0
        self._patched: list[tuple[object, str, Callable]] = []

    # -- wrapping ------------------------------------------------------------

    def __enter__(self):
        import gftree.cli  # noqa: F401  - load every module the CLI uses

        modules = [m for n, m in list(sys.modules.items())
                   if n == "gftree" or n.startswith("gftree.")]
        for layer_id, ((mod_name, fn_name), (_, counter)) in enumerate(
                LAYERS.items()):
            original = getattr(sys.modules[f"gftree.{mod_name}"], fn_name)
            wrapper = self._wrap(layer_id, original, counter)
            for mod in modules:
                if getattr(mod, fn_name, None) is original:
                    self._patched.append((mod, fn_name, original))
                    setattr(mod, fn_name, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, fn_name, original in reversed(self._patched):
            setattr(mod, fn_name, original)
        self._patched.clear()
        return False

    def _wrap(self, layer_id: int, fn: Callable,
              counter: Callable) -> Callable:
        name = LAYER_NAMES[layer_id]
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.name)
            self.name.append(layer_id)
            self.parent.append(stack[-1])
            self.end.append(0)
            stack.append(idx)
            draws_before = self._draws
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            counts = self.counts
            counts[f"{name}.calls"] += 1
            for key, value in counter(fn, args, kwargs, result).items():
                counts[f"{name}.{key}"] += value
            if layer_id == _DRAW:
                self._draws += int(np.size(result))
            elif layer_id == _GROWTH:
                self._count_proposals(args, kwargs, result,
                                      self._draws - draws_before)
            return result

        return traced

    def _count_proposals(self, args, kwargs, result, draws: int) -> None:
        kernel = args[0] if args else kwargs["kernel"]
        per = kernel.uniforms_per_attempt
        # a kernel without uniforms (Dirac) makes one proposal per rate
        proposals = draws // per if per else int(np.size(result))
        self.counts["model.sample_growth_rates_keyed.proposals"] += proposals

    # -- results -------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per layer: total time ``.s``, self time ``.self_s`` and the work
        counts, for every layer (zero when the layer was not called)."""
        name = np.frombuffer(self.name, dtype=np.int32)
        dur = (np.frombuffer(self.end, dtype=np.int64)
               - np.frombuffer(self.start, dtype=np.int64)).astype(np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        total = np.bincount(name, weights=dur, minlength=len(LAYER_NAMES))
        own = np.bincount(name, weights=dur - child,
                          minlength=len(LAYER_NAMES))
        out: dict[str, float] = {}
        for i, (layer, (keys, _)) in enumerate(zip(LAYER_NAMES,
                                                   LAYERS.values())):
            out[f"{layer}.s"] = total[i] * 1e-9
            out[f"{layer}.self_s"] = own[i] * 1e-9
            for key in ("calls", *keys):
                out[f"{layer}.{key}"] = 0
        out.update(self.counts)
        rates = out["model.sample_growth_rates_keyed.rates"]
        proposals = out["model.sample_growth_rates_keyed.proposals"]
        out["model.growth_accept_ratio"] = (rates / proposals if proposals
                                            else 0.0)
        return out

    def save(self, path: Path) -> None:
        """Write every span: layer index, start and end in ns relative to
        the first span, and the parent span's index (-1 for none)."""
        start = np.frombuffer(self.start, dtype=np.int64)
        origin = int(start[0]) if start.size else 0
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, layers=np.array(LAYER_NAMES),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=start - origin,
            end=np.frombuffer(self.end, dtype=np.int64) - origin,
            parent=np.frombuffer(self.parent, dtype=np.int64))
