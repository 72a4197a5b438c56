"""Statistics over runs, and the comparison of two result sets.

A result set is a directory whose ``results.jsonl`` holds one record per
run, as :mod:`run` appends them.  Runs of the parent and of the change are
paired in the order they were made, so alternating the two sides gives
alternating pairs; give both sides the same seeds in the same order, so
that the per-seed results (counts, errors) are compared seed by seed.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

WIN_FRACTION = 0.9
# Deterministic for a seed: compared run by run rather than by a bound.
EXACT = {"error_rate", "rel_l2_error"}


def summarize(values: list[float]) -> dict:
    """Median and quartiles, as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"value": med, "q1": q1, "q3": q3, "n": len(values)}


def _load(directory: Path) -> dict[tuple[str, int], list[dict]]:
    runs: dict[tuple[str, int], list[dict]] = defaultdict(list)
    with open(directory / "results.jsonl", encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                runs[(record["workload"], record["trace"])].append(record)
    return runs


def verdict(parent: list[float], change: list[float], lower: bool,
            bound: float | None, exact: bool) -> tuple[str, int, int]:
    """(verdict, wins, pairs) for one metric of one workload.

    Improved: the change wins at least nine tenths of the pairs (ties count
    for neither) and the medians differ by more than the parent's quartile
    spread.  Otherwise a metric whose parent spread exceeds the bound is
    unresolved, unless every change run beats every parent run.  An exact
    metric (a count) is only reported as the same or changed.
    """
    sign = 1.0 if lower else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    if exact:
        return ("same" if parent == change else "changed"), wins, len(pairs)
    p, c = summarize(parent), summarize(change)
    gain = sign * (p["value"] - c["value"])
    if pairs and wins >= WIN_FRACTION * len(pairs) and gain > p["q3"] - p["q1"]:
        return "improved", wins, len(pairs)
    if bound is None:
        return "no bound", wins, len(pairs)
    scale = abs(p["value"])
    spread = (p["q3"] - p["q1"]) / scale if scale else 0.0
    all_better = all(sign * (pv - cv) > 0 for pv in parent for cv in change)
    if spread > bound and not all_better:
        return "unresolved", wins, len(pairs)
    worse = -gain / scale if scale else 0.0
    if worse <= bound:
        return "no worse within bound", wins, len(pairs)
    return "worse", wins, len(pairs)


def compare(parent_dir: Path, change_dir: Path, spec: dict) -> int:
    parent, change = _load(parent_dir), _load(change_dir)
    listed = {e["name"]: e for e in spec["end_to_end"] + spec["per_layer"]}
    wall_bound = listed["wall_s"]["bound"]
    for key in sorted(set(parent) & set(change)):
        workload, trace = key
        names = sorted(set.intersection(*(
            set(r["metrics"]) for r in parent[key] + change[key])))
        kind = "traced" if trace else "untraced"
        print(f"== {workload} ({kind}): {len(parent[key])} parent runs, "
              f"{len(change[key])} change runs")
        for name in names:
            unit = parent[key][0]["metrics"][name]["unit"]
            entry = listed.get(name, {})
            # per-command times of an untraced run share the wall_s bound
            bound = entry.get("bound", wall_bound if not trace and unit == "s"
                              else None)
            lower = entry.get("better", "lower") == "lower"
            pv = [r["metrics"][name]["value"] for r in parent[key]]
            cv = [r["metrics"][name]["value"] for r in change[key]]
            exact = unit == "count" or name in EXACT
            result, wins, pairs = verdict(pv, cv, lower, bound, exact)
            p, c = summarize(pv), summarize(cv)
            print(f"  {name:44s} {unit:5s} parent {p['value']:.6g} "
                  f"[{p['q1']:.6g}, {p['q3']:.6g}]  change {c['value']:.6g} "
                  f"[{c['q1']:.6g}, {c['q3']:.6g}]  wins {wins}/{pairs}  "
                  f"{result}")
    return 0
