"""Benchmark entry point: one workload, one seed, one run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload stream-scale --seed 1 \\
        --seconds 40 --trace 0

The run generates the workload's seeded netlists, then runs each
measured operation in a fresh interpreter (``op.py``): :data:`PASSES`
passes over the netlists.  The amount of work is fixed, so every
commit is measured on the same operations; it is sized so that a run
takes about ``run_seconds`` of ``BENCHMARK.json`` on a 2-core host, and
``--seconds`` is accepted for the caller's interface only.  It prints,
as its last line, one JSON object::

    {"correct": true, "attempted": 12, "failed": 0,
     "metrics": {"wall_s": {"value": 2.31, "unit": "s"}, ...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the first :data:`TRACE_NETLISTS` netlists once
untraced and once traced and reports the per-layer metrics instead.
Metric names and units are read from ``BENCHMARK.json``, so the file and
the output cannot drift apart.  Without ``src/repro`` the run exits with
code 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from hostspeed import calibrate, rescale

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

#: setup-only interpreters started per run on top of one per operation,
#: so ``setup_s`` is a median of several samples even when a run has few
#: operations.
SETUP_PROBES = 3

#: passes over the netlists of an untraced run.
PASSES = 2

#: netlists measured by a traced run, each once untraced and once traced.
TRACE_NETLISTS = 2

#: a run must exit within this many seconds; a child still running then
#: is killed and its operation counted as failed.
RUN_LIMIT_S = 170.0


@dataclass
class RunResult:
    """Everything one run measured, before metrics are selected."""

    setup_s: list[float] = field(default_factory=list)
    #: untraced / traced operation outputs of ``op.py``, in run order
    plain: list[dict[str, Any]] = field(default_factory=list)
    traced: list[dict[str, Any]] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.plain) + len(self.traced) + len(self.failures)

    @property
    def failed(self) -> int:
        return len(self.failures)


class Child:
    """One ``op.py`` interpreter, killed if it outlives its deadline."""

    def __init__(self, job_path: Path, timeout: float) -> None:
        env = {k: v for k, v in os.environ.items() if k != "REPRO_CACHE_DIR"}
        self.calibration = calibrate()
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "op.py"), str(job_path)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env,
        )
        self._timer = threading.Timer(max(timeout, 1.0), self.proc.kill)
        self._timer.start()

    def ready(self) -> float:
        """Seconds from spawn to the child's ``READY`` line, rescaled to
        reference host speed by the probe taken just before the spawn."""
        line = self.proc.stdout.readline()
        if line.strip() != "READY":
            self.finish()
            raise RuntimeError(f"op.py failed before READY (exit "
                               f"{self.proc.returncode})")
        return rescale(time.perf_counter() - self.started, [self.calibration])

    def finish(self) -> str:
        """The child's remaining stdout, after it has exited."""
        try:
            rest = self.proc.stdout.read()
            self.proc.wait()
        finally:
            self._timer.cancel()
            self.proc.stdout.close()
        return rest


def run_workload(workload: Any, seed: int, trace: bool) -> RunResult:
    """Measure ``workload`` on the netlists of ``seed``."""
    from workloads import netlist_text

    run_started = time.perf_counter()
    result = RunResult()
    work = WORK / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    jobs = itertools.count()
    try:
        netlists = []
        for index in range(workload.circuits):
            path = work / f"{workload.spec}_s{seed}_{index}.bench"
            path.write_text(netlist_text(workload, seed, index))
            netlists.append(path)

        def spawn(index: int, traced: bool, setup_only: bool,
                  checks: list[str]) -> Child:
            number = next(jobs)
            job = {
                "src": str(SRC), "netlist": str(netlists[index]),
                "seed": seed, "index": index,
                "operation": "eco" if workload.edits else "detect",
                "options": workload.options, "edits": workload.edits,
                "checks": checks, "trace": traced, "setup_only": setup_only,
                "store_dir": str(work / f"store-{number}"),
            }
            job_path = work / f"job-{number}.json"
            job_path.write_text(json.dumps(job))
            remaining = RUN_LIMIT_S - (time.perf_counter() - run_started)
            return Child(job_path, remaining)

        def operation(index: int, traced: bool, checks: list[str]) -> None:
            child = spawn(index, traced, False, checks)
            try:
                setup = child.ready()
                out = json.loads(child.finish().strip().splitlines()[-1])
            except (RuntimeError, ValueError, IndexError) as exc:
                result.failures.append(f"netlist {index}: {exc}")
                return
            if not out["ok"]:
                result.failures.append(f"netlist {index}: {out['error']}")
                return
            if not traced:
                result.setup_s.append(setup)
            (result.traced if traced else result.plain).append(
                dict(out, index=index)
            )

        # Warm-up interpreter: byte-compiles the sources on the first run
        # in a checkout, so no setup sample pays for compilation.
        spawn(0, False, True, []).finish()
        for _ in range(SETUP_PROBES):
            child = spawn(0, False, True, [])
            result.setup_s.append(child.ready())
            child.finish()

        if trace:
            for index in range(min(TRACE_NETLISTS, workload.circuits)):
                operation(index, False, [workload.check])
                operation(index, True, [])
            return result
        for number in range(PASSES):
            for index in range(workload.circuits):
                operation(index, False, [] if number else [workload.check])
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no concurrent run still uses it
    return result


# ----------------------------------------------------------------------
# Metrics.
# ----------------------------------------------------------------------
def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _per_netlist_wall(outputs: list[dict[str, Any]]) -> float:
    """Mean over netlists of each netlist's best operation wall time.

    Each time is first rescaled to reference host speed by the probes
    taken around it.  Other tenants of a shared machine only ever slow an
    operation down; the best of a netlist's repetitions drops the stalls
    the probes missed, and the mean over netlists averages out how much
    the seeded netlists differ.
    """
    by_index: dict[int, list[float]] = {}
    for out in outputs:
        by_index.setdefault(out["index"], []).append(
            rescale(out["wall_s"], out["calibration_s"])
        )
    return _mean([min(v) for v in by_index.values()])


def end_to_end(run: RunResult) -> dict[str, tuple[float, int]]:
    """Every end-to-end metric as (value, sample count)."""
    plain = run.plain
    pairs = sum(o["counts"]["pairs"] for o in plain)
    unsettled = sum(o["counts"]["undecided"] + o["counts"]["glitch_possible"]
                    for o in plain)
    return {
        "setup_s": (statistics.median(run.setup_s), len(run.setup_s)),
        "wall_s": (_per_netlist_wall(plain), len(plain)),
        "peak_rss_mb": (statistics.median(o["peak_rss_mb"] for o in plain),
                        len(plain)),
        "settled_frac": (_ratio(pairs - unsettled, pairs), len(plain)),
    }


#: per-layer count metrics: name -> key of ``op.py``'s ``counts``.
COUNT_METRICS = {
    "circuit.topology.pairs": "pairs",
    "circuit.topology.groups": "groups",
    "core.random_filter.dropped": "sim_dropped",
    "atpg.packed_implication.closures": "packed_closures",
    "atpg.packed_implication.lanes": "packed_lanes",
    "core.session.pairs": "session_pairs",
    "atpg.justify.backtracks": "backtracks",
    "atpg.justify.aborts": "aborts",
    "analysis.hazard_exact.disagreement": "disagreement",
    "store.artifact_store.hits": "store_hits",
    "store.artifact_store.misses": "store_misses",
    "store.artifact_store.bytes": "store_bytes",
    "core.workqueue.spawn_s": "spawn_s",
    "core.workqueue.units": "units",
    "core.workqueue.idle_frac": "idle_frac",
    "store.backplane.bytes": "backplane_bytes",
    "store.backplane.worker_store_misses": "worker_store_misses",
}

#: per-layer call-count metrics: name -> ledger layer whose calls it counts.
CALL_METRICS = {
    "core.hazard.path_searches": "core.hazard.path_search",
    "sat.solver.solves": "sat.solver.solve",
}

#: per-layer ratios: name -> (numerator count, denominator count).
RATIO_METRICS = {
    "atpg.packed_implication.resolved_frac": ("packed_resolved", "packed_lanes"),
    "core.session.undecided_frac": ("undecided", "pairs"),
    "analysis.hazard_exact.resolution_frac": ("resolved", "disagreement"),
    "analysis.hazard_exact.glitch_possible_frac": ("glitch_possible",
                                                   "hazard_checked"),
    "core.incremental.re_decide_frac": ("re_decided", "survivors"),
}


def ledger_table(run: RunResult) -> dict[str, dict[str, float]]:
    """Mean self seconds, share of traced wall and calls per layer."""
    from spans import LAYERS, ROOT

    traced = run.traced
    wall = _mean([o["wall_s"] for o in traced])
    table = {}
    for layer in (*LAYERS, ROOT):
        rows = [o["ledger"].get(layer, {"self_s": 0.0, "calls": 0})
                for o in traced]
        self_s = _mean([r["self_s"] for r in rows])
        table[layer] = {"self_s": self_s, "share": _ratio(self_s, wall),
                        "calls": _mean([r["calls"] for r in rows])}
    return table


def per_layer(run: RunResult) -> dict[str, tuple[float, int]]:
    """Every per-layer metric as (value, sample count)."""
    traced = run.traced
    n = len(traced)
    metrics: dict[str, tuple[float, int]] = {}
    for layer, row in ledger_table(run).items():
        metrics[f"{layer}_s"] = (row["self_s"], n)
    # bench.loads of the workload netlist happens in setup, outside the
    # ledger; the layer metric counts it together with in-operation loads.
    metrics["circuit.bench.load_s"] = (
        metrics["circuit.bench.load_s"][0]
        + _mean([o["setup_load_s"] for o in traced]), n
    )
    for name, key in COUNT_METRICS.items():
        metrics[name] = (_mean([o["counts"].get(key, 0) for o in traced]), n)
    for name, layer in CALL_METRICS.items():
        metrics[name] = (_mean([o["ledger"].get(layer, {}).get("calls", 0)
                                for o in traced]), n)
    for name, (num, den) in RATIO_METRICS.items():
        metrics[name] = (_ratio(sum(o["counts"][num] for o in traced),
                                sum(o["counts"][den] for o in traced)), n)
    edits = [s for o in run.plain for s in o["edit_s"]]
    metrics["core.incremental.edit_p50_s"] = (
        statistics.median(edits) if edits else 0.0, len(edits)
    )
    # Raw seconds, like the ledger: both runs happen back to back.
    metrics["trace.overhead_s"] = (
        _mean([o["wall_s"] for o in traced])
        - _mean([o["wall_s"] for o in run.plain]), n
    )
    return metrics


def select(declared: list[dict[str, Any]],
           measured: dict[str, tuple[float, int]]) -> dict[str, dict]:
    """``measured`` restricted to the ``declared`` metrics, with units."""
    missing = [m["name"] for m in declared if m["name"] not in measured]
    if missing:
        raise KeyError(f"metrics declared but not measured: {missing}")
    return {m["name"]: {"value": measured[m["name"]][0], "unit": m["unit"]}
            for m in declared}


def load_benchmark() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="accepted and not used: a run does a fixed "
                             "amount of work")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    benchmark = load_benchmark()
    run = run_workload(WORKLOADS[args.workload], args.seed, bool(args.trace))
    for failure in run.failures:
        print(f"failed: {failure}", file=sys.stderr)
    if not run.plain or (args.trace and not run.traced):
        print("error: no operation succeeded", file=sys.stderr)
        return 1
    if args.trace:
        metrics = select(benchmark["per_layer"], per_layer(run))
    else:
        metrics = select(benchmark["end_to_end"], end_to_end(run))
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
