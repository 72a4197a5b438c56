#!/usr/bin/env python3
"""Benchmark harness for the gftree command line.

One run of one workload, as listed in BENCHMARK.json:

    python3 perfbench/run.py --workload pipeline-2e20 --seed 1 --seconds 30 --trace 0

``--trace 0`` runs the workload's commands as ``python -m gftree.cli``
subprocesses (with ``PYTHONPATH=src``) in a closed loop for about
``--seconds``, checks every output, and reports the end-to-end metrics.
``--trace 1`` runs the workload in this process through
``gftree.cli.main(argv)``: once to warm up, untraced for about
``--seconds``, then once with every layer wrapped by :mod:`tracing`.  It
reports the per-layer metrics, the tracing overhead and where the spans
were written.

Every workload, untraced and then traced:

    python3 perfbench/run.py --all [--seed 1] [--seconds 30]

Two result sets (each run appends to ``--results``, by default
``.perfbench/results``), parent first:

    python3 perfbench/run.py --compare PARENT_RESULTS CHANGE_RESULTS

The last line of a workload run is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from compare import compare, summarize
from workloads import WORKLOADS, Outcome

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

SETUP_STARTS = 7
COMMAND_TIMEOUT_S = 150


def isolate_environment() -> None:
    """For the children and this process alike: the sources under ``src``,
    no seed override, the default backend and single-threaded BLAS.  Runs
    before anything here imports numpy or gftree."""
    for var in ("GFTREE_SEED", "GFTREE_BACKEND"):
        os.environ.pop(var, None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    sys.path.insert(0, str(SRC))


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def unit_of(name: str) -> str:
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith(("_error", "_ratio", "_rate")):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# Stamp
# ---------------------------------------------------------------------------

_STAMP_CODE = """\
import json, platform, numpy, scipy
from gftree import _hot
print(json.dumps({"python": platform.python_version(),
                  "numpy": numpy.__version__, "scipy": scipy.__version__,
                  "backend": _hot.BACKEND,
                  "core_imports": _hot.compiled_backend() is not None}))
"""


def _read_first(path: str, key: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _l3_size() -> str | None:
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            if (index / "level").read_text().strip() == "3":
                return (index / "size").read_text().strip()
        except OSError:
            continue
    return None


def _git_revision() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest() -> str:
    """sha256 over the package sources, which names the code under test
    also where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.suffix in (".py", ".pyx") and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def stamp(seed: int) -> dict:
    """Revision, versions, backend and machine.  The child that reports the
    versions is also the warm-up start that compiles the bytecode."""
    out = subprocess.run([sys.executable, "-c", _STAMP_CODE], cwd=ROOT,
                         capture_output=True, text=True,
                         timeout=COMMAND_TIMEOUT_S)
    if out.returncode != 0:
        fail(f"cannot import gftree from {SRC}: {out.stderr.strip()}")
    return {
        "git_revision": _git_revision(),
        "source_sha256": _source_digest(),
        **json.loads(out.stdout.strip().splitlines()[-1]),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _read_first("/proc/cpuinfo", "model name"),
        "l3": _l3_size(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Untraced runs: CLI subprocesses
# ---------------------------------------------------------------------------

_SETUP_CODE = "import time, gftree.cli; print(repr(time.monotonic()))"


def cold_start_s() -> float:
    """Interpreter start to ``gftree.cli`` imported, for one fresh process
    (CLOCK_MONOTONIC is shared by every process on the machine)."""
    t0 = time.monotonic()
    out = subprocess.run([sys.executable, "-c", _SETUP_CODE], cwd=ROOT,
                         capture_output=True, text=True, check=True,
                         timeout=COMMAND_TIMEOUT_S)
    return float(out.stdout.strip().splitlines()[-1]) - t0


def run_cli(argv: list[str], log: Path) -> tuple[int, float, float, float]:
    """Run one command; returns (exit code, wall s, cpu s, peak RSS MB).

    ``os.wait4`` gives the child's own peak RSS.  ``RUSAGE_CHILDREN`` would
    give the largest over every child reaped so far.
    """
    log.parent.mkdir(parents=True, exist_ok=True)
    with open(log, "ab") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "gftree.cli", *argv],
                                cwd=ROOT, stdout=out, stderr=subprocess.STDOUT)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0)


def state_file(kind: str, workload: str, seed: int, source: str) -> Path:
    """Where runs of one workload, seed and source tree keep what later
    runs of the same must reproduce."""
    return STATE / "state" / f"{kind}-{workload}-{seed}-{source[:16]}.json"


class Ledger:
    """Commands attempted and failed, and the output digests of one seed.

    Digests are compared within the run and with earlier runs of the same
    workload, seed and source tree.
    """

    def __init__(self, workload: str, seed: int, source: str):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._digest_file = state_file("digests", workload, seed, source)
        self.digests = (json.loads(self._digest_file.read_text())
                        if self._digest_file.exists() else {})

    def record(self, command_metric: str, returncode: int,
               check) -> Outcome | None:
        """Count one command; run its output check when it exited 0."""
        self.attempted += 1
        problems = []
        outcome = None
        if returncode != 0:
            problems.append(f"{command_metric}: exit code {returncode}")
        else:
            try:
                outcome = check()
            except (OSError, KeyError, ValueError, IndexError) as exc:
                problems.append(f"{command_metric}: unreadable output: {exc}")
            else:
                problems.extend(outcome.problems)
                for name, digest in outcome.digests.items():
                    if self.digests.setdefault(name, digest) != digest:
                        problems.append(f"{name} differs from an earlier "
                                        "run of this seed")
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return outcome

    def save(self) -> None:
        self._digest_file.parent.mkdir(parents=True, exist_ok=True)
        self._digest_file.write_text(json.dumps(self.digests, indent=1))


def repeat(seconds: float, once) -> list:
    """Call ``once(i)`` round(seconds / its first duration) times, at least
    once, so that a run measures about ``seconds`` whatever one call costs."""
    began = time.monotonic()
    results = [once(0)]
    count = max(1, round(seconds / (time.monotonic() - began)))
    return results + [once(i) for i in range(1, count)]


def run_untraced(workload: str, seed: int, seconds: float, work: Path,
                 ledger: Ledger) -> dict:
    setup = [cold_start_s() for _ in range(SETUP_STARTS)]
    rel_errors: list[float] = []

    def iteration(i: int) -> dict[str, float]:
        it_dir = work / f"iter{i}"
        it = {"wall_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0}
        for cmd in WORKLOADS[workload]:
            code, wall, cpu, rss = run_cli(cmd.argv(it_dir, seed),
                                           it_dir / "log.txt")
            it[cmd.metric] = wall
            it["wall_s"] += wall
            it["cpu_s"] += cpu
            it["peak_rss_mb"] = max(it["peak_rss_mb"], rss)
            outcome = ledger.record(cmd.metric, code,
                                    lambda: cmd.check(it_dir))
            if outcome is not None and outcome.rel_l2_error is not None:
                rel_errors.append(outcome.rel_l2_error)
        shutil.rmtree(it_dir, ignore_errors=True)
        return it

    iterations = repeat(seconds, iteration)
    metrics = {name: summarize([it[name] for it in iterations])
               for name in iterations[0]}
    metrics["setup_s"] = summarize(setup)
    if rel_errors:
        metrics["rel_l2_error"] = summarize(rel_errors)
    metrics["error_rate"] = summarize([ledger.failed / ledger.attempted])
    for name, m in metrics.items():
        m["unit"] = unit_of(name)
    return metrics


# ---------------------------------------------------------------------------
# Traced runs: in process
# ---------------------------------------------------------------------------

def in_process_pass(workload: str, seed: int, work: Path,
                    ledger: Ledger) -> float:
    """Every command of the workload through ``gftree.cli.main``; returns
    the summed time of the calls."""
    import gftree.cli

    total = 0.0
    for cmd in WORKLOADS[workload]:
        argv = cmd.argv(work, seed)
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            t0 = time.perf_counter()
            code = gftree.cli.main(argv)
            total += time.perf_counter() - t0
        ledger.record(cmd.metric, code, lambda: cmd.check(work))
    return total


def run_traced(workload: str, seed: int, seconds: float, work: Path,
               ledger: Ledger, counts_file: Path) -> tuple[dict, Path]:
    from tracing import Tracer

    def plain_pass(i: int) -> float:
        wall = in_process_pass(workload, seed, work / f"plain{i}", ledger)
        shutil.rmtree(work / f"plain{i}", ignore_errors=True)
        return wall

    plain_pass(-1)  # warm-up: the first pass in a process runs slower
    untraced = repeat(seconds, plain_pass)
    with Tracer() as tracer:
        traced = in_process_pass(workload, seed, work / "traced", ledger)
    shutil.rmtree(work / "traced", ignore_errors=True)
    spans = STATE / "spans" / f"{workload}-seed{seed}.npz"
    tracer.save(spans)

    layers = tracer.layer_metrics()
    plain = statistics.median(untraced)
    layers["trace.wall_s"] = traced
    layers["trace.untraced_wall_s"] = plain
    layers["trace.overhead_s"] = traced - plain
    layers["trace.spans"] = len(tracer.name)
    check_counts(layers, ledger, counts_file)
    metrics = {name: {"value": value, "unit": unit_of(name)}
               for name, value in layers.items()}
    return metrics, spans


def check_counts(layers: dict, ledger: Ledger, path: Path) -> None:
    """Count metrics must repeat exactly between traced runs of one seed."""
    counts = {k: v for k, v in layers.items() if unit_of(k) == "count"}
    if path.exists():
        earlier = json.loads(path.read_text())
        differ = sorted(k for k in counts if earlier.get(k) != counts[k])
        ledger.attempted += 1
        if differ:
            ledger.failed += 1
            ledger.problems.append(f"counts differ from an earlier traced "
                                   f"run of this seed: {differ}")
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(counts, indent=1, sort_keys=True))


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def print_metrics(workload: str, trace: int, metrics: dict,
                  ledger: Ledger, info: dict) -> None:
    kind = "traced, per layer" if trace else "untraced, end to end"
    print(f"== {workload} ({kind}): {ledger.attempted} commands attempted, "
          f"{ledger.failed} failed")
    print("  " + ", ".join(f"{k} {v}" for k, v in info.items()))
    for name in sorted(metrics):
        m = metrics[name]
        layer = name.rsplit(".", 1)[0]
        if trace and metrics.get(f"{layer}.calls", {}).get("value") == 0:
            continue  # the layer does not run in this workload
        value = m["value"]
        shown = f"{value:d}" if isinstance(value, int) else f"{value:.6g}"
        line = f"  {name:48s} {shown} {m['unit']}"
        if "q1" in m:
            line += f"  (median; q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n={m['n']})"
        print(line)
    for problem in ledger.problems:
        print(f"  FAILED: {problem}")


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 results: Path) -> dict:
    work = STATE / "work" / f"{workload}-{seed}-{os.getpid()}"
    info = stamp(seed)
    source = info["source_sha256"]
    ledger = Ledger(workload, seed, source)
    try:
        if trace:
            metrics, spans = run_traced(
                workload, seed, seconds, work, ledger,
                state_file("counts", workload, seed, source))
        else:
            metrics = run_untraced(workload, seed, seconds, work, ledger)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ledger.save()
    print_metrics(workload, trace, metrics, ledger, info)
    if trace:
        print(f"  spans written to {spans.relative_to(ROOT)}")
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "stamp": info, "attempted": ledger.attempted,
              "failed": ledger.failed, "problems": ledger.problems,
              "metrics": metrics}
    results.mkdir(parents=True, exist_ok=True)
    with open(results / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    return record


def result_line(record: dict, spec: dict) -> str:
    """The result line: the metrics BENCHMARK.json lists for this mode."""
    listed = spec["per_layer"] if record["trace"] else spec["end_to_end"]
    metrics = {}
    for entry in listed:
        m = record["metrics"][entry["name"]]
        metrics[entry["name"]] = {"value": m["value"], "unit": entry["unit"]}
    return json.dumps({"correct": record["failed"] == 0,
                       "attempted": record["attempted"],
                       "failed": record["failed"], "metrics": metrics})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run "
                             "(default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--all", action="store_true",
                        help="every workload, untraced and then traced")
    parser.add_argument("--compare", nargs=2,
                        metavar=("PARENT", "CHANGE"),
                        help="compare two result directories")
    parser.add_argument("--results", type=Path,
                        default=STATE / "results",
                        help="directory whose results.jsonl each run "
                             "appends to (default: %(default)s)")
    args = parser.parse_args(argv)

    spec = load_spec()
    if args.compare:
        return compare(Path(args.compare[0]), Path(args.compare[1]), spec)
    if not (SRC / "gftree" / "cli.py").is_file():
        fail(f"no gftree sources under {SRC}; run from a gftree checkout")
    isolate_environment()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.all:
        for workload in WORKLOADS:
            for trace in (0, 1):
                run_workload(workload, args.seed, seconds, trace,
                             args.results)
        return 0
    if args.workload is None:
        parser.error("give --workload, --all or --compare")
    record = run_workload(args.workload, args.seed, seconds, args.trace,
                          args.results)
    print(result_line(record, spec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
