"""One measured operation of a workload, in a fresh interpreter.

Usage: ``python3 perfbench/op.py JOB.json``.  The parent (``run.py``)
writes the job: workload name, netlist file, ``src`` directory, trace
flag and which checks to run.  This process imports ``repro``, loads the
netlist and prints ``READY`` -- the parent times interpreter start up to
that line as one ``setup_s`` sample -- then runs the operation, checks its
outputs outside the timed region, and prints one JSON line::

    {"ok": true, "error": null, "wall_s": ..., "calibration_s": [...],
     "peak_rss_mb": ...,
     "netlist": {"ffs": ..., "pairs": ...}, "counts": {...},
     "edit_s": [...], "setup_load_s": ..., "ledger": {...}}

``wall_s`` is raw; ``calibration_s`` are host-speed probes taken just
before and after the operation (see ``hostspeed.py``).
``ledger`` (traced jobs only) maps each layer to its self seconds and
call count inside the timed region.

A job with ``"setup_only": true`` exits right after ``READY``.
"""

from __future__ import annotations

import json
import random
import resource
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path
from typing import Any

from hostspeed import calibrate
from spans import ROOT, SpanRecorder, install

#: decided pairs of a netlist that the ``sat-sample`` check re-decides.
SAT_SAMPLE = 12


class TimedRegion:
    """Wall time of the measured segments of one operation.

    Under ``--trace 1`` each segment is also a root span, so the layer
    ledger covers exactly the time that ``wall_s`` reports.
    """

    def __init__(self, recorder: Any) -> None:
        self.recorder = recorder
        self.seconds = 0.0
        self.roots: list[int] = []

    @contextmanager
    def __call__(self):
        root = self.recorder.enter(ROOT) if self.recorder else None
        started = time.perf_counter()
        try:
            yield
        finally:
            self.seconds += time.perf_counter() - started
            if root is not None:
                self.recorder.exit(root)
                self.roots.append(root)


def peak_rss_mb(workers: int) -> float:
    """Peak RSS of this process plus ``workers`` times the largest worker.

    ``ru_maxrss`` of reaped children is the largest worker peak, so this
    bounds the fleet from above, as ``benchmarks/scale_runner.py`` does.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workers > 1:
        own += workers * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own / 1024.0


def records_json(result: Any) -> str:
    return json.dumps(result.pair_records(), sort_keys=True)


def result_counts(result: Any) -> dict[str, float]:
    """Work counts of one detection, summed by the caller across results."""
    from repro.core.result import CaseOutcome, Classification, Stage

    packed = result.packed_implication or {}
    session = result.decision_session or {}
    exact = result.hazard_exact or {}
    cache = result.cache or {}
    incremental = result.incremental or {}
    backplane = result.backplane or {}
    cases = [case for r in result.pair_results for case in r.cases]
    return {
        "pairs": result.connected_pairs,
        "groups": len({r.pair.source for r in result.pair_results}),
        "sim_dropped": result.stats[Stage.SIMULATION].single_cycle,
        "packed_closures": packed.get("closures", 0),
        "packed_lanes": packed.get("lanes", 0),
        "packed_resolved": packed.get("resolved", 0),
        "session_pairs": session.get("pairs", 0),
        "backtracks": sum(case.backtracks for case in cases),
        "aborts": sum(case.outcome is CaseOutcome.ABORTED for case in cases),
        "undecided": sum(
            r.classification is Classification.UNDECIDED
            for r in result.pair_results
        ),
        "hazard_checked": exact.get("checked", 0),
        "glitch_possible": exact.get("glitch_possible", 0),
        "disagreement": exact.get("disagreement", 0),
        "resolved": exact.get("resolved", 0),
        "store_hits": cache.get("hits", 0),
        "store_misses": cache.get("misses", 0),
        "survivors": incremental.get("survivors", 0),
        "re_decided": incremental.get("re_decided", 0),
        "spawn_s": backplane.get("spawn_seconds_max", 0.0),
        "backplane_bytes": backplane.get("bytes", 0),
        "worker_store_misses": backplane.get("worker_store_misses", 0),
    }


def netlist_size(result: Any) -> dict[str, int]:
    return {"ffs": len(result.circuit.dffs), "pairs": result.connected_pairs}


def add_counts(total: dict[str, float], delta: dict[str, float]) -> None:
    for key, value in delta.items():
        total[key] = total.get(key, 0) + value


# ----------------------------------------------------------------------
# Correctness checks (never inside the timed region).
# ----------------------------------------------------------------------
def check_sat_sample(circuit: Any, result: Any,
                     rng: random.Random) -> str | None:
    """Re-decide a seeded sample of decided pairs with the SAT engine."""
    from repro.core.deciders import create_decider
    from repro.core.pipeline import AnalysisContext, DetectorOptions
    from repro.core.result import Classification

    decided = [r for r in result.pair_results
               if r.classification is not Classification.UNDECIDED]
    sample = rng.sample(decided, min(SAT_SAMPLE, len(decided)))
    decider = create_decider("sat")
    decider.prepare(AnalysisContext(circuit, DetectorOptions()))
    for pair_result in sample:
        verdict = decider.decide(pair_result.pair).classification
        if verdict is not pair_result.classification:
            names = circuit.names
            return (f"SAT disagrees on {names[pair_result.pair.source]}->"
                    f"{names[pair_result.pair.sink]}: "
                    f"{verdict.value} vs {pair_result.classification.value}")
    return None


def check_hazard_exact(result: Any) -> str | None:
    from repro.core.result import HazardVerdictKind

    exact = result.hazard_exact or {}
    if exact.get("resolution_fraction") != 1.0:
        return f"exact hazard resolution fraction {exact!r} is not 1.0"
    for verdict in result.hazard_verdicts:
        if (verdict.decided_by == "exact"
                and verdict.verdict is HazardVerdictKind.GLITCH_PROVEN
                and not verdict.witness):
            return f"glitch-proven verdict without witness: {verdict.pair}"
    return None


def check_same_records(circuit: Any, result: Any, options: Any) -> str | None:
    """A from-scratch serial detection must give byte-identical records."""
    import dataclasses

    from repro.circuit.netlist import clear_derived_caches
    from repro.core.detector import MultiCycleDetector
    from repro.store.runtime import deactivate_store

    clear_derived_caches()
    deactivate_store()
    serial = dataclasses.replace(options, workers=1, cache_dir=None)
    reference = MultiCycleDetector(circuit, serial).run()
    if records_json(reference) != records_json(result):
        return "pair_records differ from a from-scratch serial run"
    return None


# ----------------------------------------------------------------------
# Operations.
# ----------------------------------------------------------------------
def run_detect(job: dict, circuit: Any, options: Any, tracer: Any,
               timed: TimedRegion) -> dict:
    from repro.core.detector import MultiCycleDetector

    with timed():
        result = MultiCycleDetector(circuit, options, tracer=tracer).run()
    out = {"peak_rss_mb": peak_rss_mb(options.workers),
           "counts": result_counts(result), "edit_s": [],
           "netlist": netlist_size(result)}
    rng = random.Random(f"check:{job['seed']}:{job['index']}")
    checks = job["checks"]
    error = None
    if "sat-sample" in checks:
        error = check_sat_sample(circuit, result, rng)
    if error is None and "hazard-exact" in checks:
        error = check_hazard_exact(result)
    if error is None and "serial-identical" in checks:
        error = check_same_records(circuit, result, options)
    out["error"] = error
    return out


def run_eco(job: dict, circuit: Any, options: Any, tracer: Any,
            timed: TimedRegion) -> dict:
    """Publish to a fresh store, then chain ``edits`` incremental runs.

    Derived caches are cleared and the store deactivated before every
    edit, so each edit pays what a fresh ``repro analyze
    --incremental-from`` process pays: load the edited netlist, read the
    prior bundle from the store, rebuild what the edit invalidated.
    Picking and applying the edit is excluded from the timed region.
    """
    import dataclasses

    from repro.circuit import bench
    from repro.circuit.netlist import clear_derived_caches
    from repro.core.detector import MultiCycleDetector
    from repro.core.incremental import incremental_detect, load_result_bundle
    from repro.store.runtime import deactivate_store, store_enabled
    from workloads import apply_edit, pick_edit

    store_dir = job["store_dir"]
    options = dataclasses.replace(options, cache_dir=store_dir)
    rng = random.Random(f"eco:{job['seed']}:{job['index']}")
    counts: dict[str, float] = {}

    with timed():
        result = MultiCycleDetector(circuit, options, tracer=tracer).run()
    add_counts(counts, result_counts(result))
    size = netlist_size(result)

    text = job["text"]
    prior = circuit
    edit_walls = []
    for _ in range(job["edits"]):
        text = apply_edit(text, pick_edit(prior, result, rng))
        clear_derived_caches()
        deactivate_store()
        before = timed.seconds
        with timed():
            edited = bench.loads(text, name=circuit.name)
            with store_enabled(store_dir) as store:
                bundle = load_result_bundle(store, prior, options)
            if bundle is None:
                raise RuntimeError("the prior run's bundle is not in the store")
            result = incremental_detect(edited, options, bundle, tracer=tracer)
        edit_walls.append(timed.seconds - before)
        add_counts(counts, result_counts(result))
        prior = edited
    rss = peak_rss_mb(1)

    with store_enabled(store_dir) as store:
        counts["store_bytes"] = sum(
            kind["bytes"] for kind in store.usage().values()
        )
    error = None
    if "from-scratch" in job["checks"]:
        error = check_same_records(
            bench.loads(text, name=circuit.name), result, options
        )
    return {"peak_rss_mb": rss, "counts": counts, "netlist": size,
            "edit_s": edit_walls, "error": error}


OPERATIONS = {"detect": run_detect, "eco": run_eco}


def workqueue_numbers(recorder: Any, tracer: Any) -> dict[str, float]:
    """Units and idle share of the parent-side pool, from spans and events.

    Idle share = 1 - worker busy seconds / (workers x pool lifetime),
    where the lifetime runs from the pool's creation to the end of its
    shutdown and busy seconds are the workers' own unit totals.
    """
    queues = tracer.select("decision_queue")
    pools = [s for s in recorder.spans if s[0] == "core.workqueue.pool"]
    if not queues or not pools:
        return {"units": 0, "idle_frac": 0.0}
    per_worker = queues[-1]["per_worker"]
    busy = sum(row["seconds"] for row in per_worker)
    lifetime = max(s[2] for s in pools) - min(s[1] for s in pools)
    capacity = len(per_worker) * lifetime
    return {"units": queues[-1]["units"],
            "idle_frac": 1.0 - busy / capacity if capacity else 0.0}


def main(argv: list[str]) -> int:
    job = json.loads(Path(argv[1]).read_text())
    sys.path.insert(0, job["src"])
    import repro
    from repro.circuit import bench

    if not Path(repro.__file__).resolve().is_relative_to(
        Path(job["src"]).resolve()
    ):
        raise SystemExit(f"repro imported from {repro.__file__}, "
                         f"not from {job['src']}")
    recorder = tracer = None
    if job["trace"]:
        from repro.core.trace import Tracer

        recorder = SpanRecorder()
        install(recorder)
        tracer = Tracer()
    text = Path(job["netlist"]).read_text()
    started = time.perf_counter()
    circuit = bench.loads(text, name=Path(job["netlist"]).stem)
    setup_load_s = time.perf_counter() - started
    print("READY", flush=True)
    if job["setup_only"]:
        return 0

    from repro.core.detector import DetectorOptions

    options = DetectorOptions(**job["options"])
    job["text"] = text
    operation = OPERATIONS[job["operation"]]
    timed = TimedRegion(recorder)
    before = calibrate()
    try:
        out = operation(job, circuit, options, tracer, timed)
    except Exception:  # reported to the parent as a failed operation
        out = {"error": traceback.format_exc()}
    out["calibration_s"] = [before, calibrate()]
    out["wall_s"] = timed.seconds
    out["setup_load_s"] = setup_load_s
    if recorder is not None and "counts" in out:
        out["ledger"] = recorder.ledger(timed.roots)
        out["counts"].update(workqueue_numbers(recorder, tracer))
    out["ok"] = out["error"] is None
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
