"""Golden digests of detection results over a fixed option matrix.

Each matrix point runs one detection on a circuit of the ``small`` suite
ladder and reduces the result to sha256 digests of ``pair_records()``,
the exact hazard verdicts and the flagged pairs (plus the incremental
counters, which are small enough to keep verbatim).  The matrix is:

* every ``small`` circuit x hazard mode ``off``/``ternary``/``sensitize``/
  ``cosensitize``/``exact`` x serial / two workers (``parallel_threshold=2``)
  x three runs: ``fresh``; ``incremental`` against the fresh run's bundle
  of the same netlist; ``eco``, incremental against that bundle after
  one gate of the netlist flipped AND<->OR or NAND<->NOR;
* ``KCycleDetector`` with ``k=3``, serial and two workers.

``tests/data/golden_records.json`` holds the digests written by::

    PYTHONPATH=src python -m tests.oracles.golden tests/data/golden_records.json

and ``tests/core/test_golden_records.py`` recomputes them.
"""

from __future__ import annotations

import hashlib
import json
import sys
from typing import Any, Iterator

from repro.bench_gen.suite import suite
from repro.circuit import bench
from repro.core.detector import DetectorOptions, MultiCycleDetector
from repro.core.incremental import incremental_detect, result_bundle
from repro.core.kcycle import KCycleDetector

HAZARD_MODES = ("off", "ternary", "sensitize", "cosensitize", "exact")
WORKER_MODES: dict[str, dict[str, int]] = {
    "serial": {},
    "parallel": {"workers": 2, "parallel_threshold": 2},
}
RUNS = ("fresh", "incremental", "eco")
_FLIPS = {"AND": "OR", "OR": "AND", "NAND": "NOR", "NOR": "NAND"}


def digest(obj: Any) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode()
    ).hexdigest()


def result_digests(result: Any) -> dict[str, Any]:
    """The digests (and incremental counters) of one detection result."""
    names = result.circuit.names
    verdicts = [
        {
            "source": names[v.pair.source],
            "sink": names[v.pair.sink],
            "verdict": v.verdict.value,
            "decided_by": v.decided_by,
            "witness_case": v.witness_case,
            "witness": v.witness,
            "delay_safe": v.delay_safe,
        }
        for v in result.hazard_verdicts
    ]
    flagged = [
        [names[p.source], names[p.sink]] for p in result.hazard_flagged_pairs
    ]
    out: dict[str, Any] = {
        "records": digest(result.pair_records()),
        "hazard_verdicts": digest(verdicts),
        "hazard_flagged_pairs": digest(flagged),
    }
    if result.incremental is not None:
        out["incremental"] = {
            key: result.incremental[key]
            for key in ("survivors", "inherited", "re_decided")
        }
    return out


def eco_edit(circuit: Any) -> Any:
    """``circuit`` with its middle flippable gate (by name) flipped."""
    text = bench.dumps(circuit)
    lines = text.split("\n")
    flippable = [
        index for index, line in enumerate(lines)
        if " = " in line and line.split(" = ")[1].split("(")[0] in _FLIPS
    ]
    if not flippable:
        return None
    index = sorted(flippable, key=lambda i: lines[i])[len(flippable) // 2]
    head, _, rest = lines[index].partition(" = ")
    func, _, args = rest.partition("(")
    lines[index] = f"{head} = {_FLIPS[func]}({args}"
    return bench.loads("\n".join(lines), name=circuit.name)


def matrix_keys() -> Iterator[tuple[str, str, str, str]]:
    """(circuit, hazard mode or ``kcycle3``, worker mode, run) points."""
    for circuit in suite("small"):
        for hazard in HAZARD_MODES:
            for workers in WORKER_MODES:
                for run in RUNS:
                    yield circuit.name, hazard, workers, run
        for workers in WORKER_MODES:
            yield circuit.name, "kcycle3", workers, "fresh"


def compute(circuit: Any, hazard: str, workers: str) -> dict[str, Any]:
    """Digests of every run of one (circuit, hazard, workers) cell."""
    extra = WORKER_MODES[workers]
    if hazard == "kcycle3":
        result = KCycleDetector(circuit, 3, **extra).run()
        pairs = [
            [circuit.names[r.pair.source], circuit.names[r.pair.sink],
             r.classification.value]
            for r in result.pair_results
        ]
        return {"fresh": {
            "kcycle": digest(pairs),
            "connected_pairs": result.connected_pairs,
            "sim_dropped": result.sim_dropped,
        }}
    options = DetectorOptions(hazard_check=hazard, **extra)
    fresh = MultiCycleDetector(circuit, options).run()
    bundle = result_bundle(fresh, options)
    out = {
        "fresh": result_digests(fresh),
        "incremental": result_digests(
            incremental_detect(circuit, options, bundle)
        ),
    }
    edited = eco_edit(circuit)
    if edited is not None:
        out["eco"] = result_digests(incremental_detect(edited, options, bundle))
    return out


def generate() -> dict[str, Any]:
    golden: dict[str, Any] = {}
    for circuit in suite("small"):
        for hazard in (*HAZARD_MODES, "kcycle3"):
            for workers in WORKER_MODES:
                for run, digests in compute(circuit, hazard, workers).items():
                    golden[f"{circuit.name}/{hazard}/{workers}/{run}"] = digests
    return golden


if __name__ == "__main__":
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        json.dump(generate(), fh, indent=1, sort_keys=True)
        fh.write("\n")
