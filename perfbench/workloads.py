"""The benchmark's workloads and the seeded inputs each one runs on.

Every netlist comes from a ``repro.bench_gen`` spec whose ``seed`` is
replaced by a number derived from the workload seed, and reaches the
program only as ``.bench`` text.  One run measures several netlists
(``circuits``), because run time varies with the netlist far more than
with machine noise: averaging a few seeded netlists per run is what keeps
the run-to-run spread inside the bounds of ``BENCHMARK.json``.

The ECO edit rule of ``eco-chain`` lives here too, so the inputs of every
workload are defined in one file.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field
from typing import Any

#: gate-type flips of the ECO edit rule (``.bench`` function names).
FLIPS = {"AND": "OR", "OR": "AND", "NAND": "NOR", "NOR": "NAND"}

#: backward steps of the ECO walk from a sink's D input.
EDIT_WALK_STEPS = 6


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a netlist family, options and a check."""

    name: str
    #: ``repro.bench_gen`` spec the netlists are generated from.
    spec: str
    #: ``DetectorOptions`` fields that differ from the defaults.
    options: dict[str, Any] = field(default_factory=dict)
    #: seeded netlists measured per run.
    circuits: int = 3
    #: single-gate ECO edits per chain; non-zero makes the operation an
    #: ECO chain (publish, then incremental edits) instead of one detection.
    edits: int = 0
    #: correctness check run on each netlist's first operation
    #: (``op.py``): "sat-sample", "hazard-exact", "serial-identical" or,
    #: for ECO chains, "from-scratch".
    check: str = ""


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="stream-scale",
            spec="syn6000",
            options={"streaming": "on"},
            circuits=5,
            check="sat-sample",
        ),
        Workload(
            name="hazard-exact",
            spec="syn1500",
            options={"hazard_check": "exact"},
            circuits=2,
            check="hazard-exact",
        ),
        Workload(
            name="eco-chain",
            spec="syn6000",
            circuits=3,
            edits=3,
            check="from-scratch",
        ),
        Workload(
            name="stream-parallel",
            spec="syn6000",
            options={"streaming": "on", "workers": 2},
            circuits=3,
            check="serial-identical",
        ),
    )
}


def spec_seed(seed: int, index: int) -> int:
    """Generator seed of netlist ``index`` of a run with workload ``seed``.

    Shared by every workload, so ``stream-parallel`` and ``stream-scale``
    runs with one seed measure the same netlists.
    """
    return 1000 * seed + index


def netlist_text(workload: Workload, seed: int, index: int) -> str:
    """The ``.bench`` text of one seeded netlist of ``workload``."""
    from repro.bench_gen.suite import spec_by_name
    from repro.bench_gen.synth import generate
    from repro.circuit import bench

    spec = dataclasses.replace(
        spec_by_name(workload.spec), seed=spec_seed(seed, index)
    )
    return bench.dumps(generate(spec))


def pick_edit(circuit: Any, result: Any, rng: random.Random) -> str:
    """Name of the gate the ECO edit rule flips next.

    The seed picks a multi-cycle pair settled by the decide stage, then
    walks back from its sink's D input for :data:`EDIT_WALK_STEPS` steps,
    taking a random fanin each step, and picks one of the AND/OR/NAND/NOR
    gates on the walk.  Starting at a decided multi-cycle sink keeps the
    edit inside a cone the incremental path must re-examine; the first
    flippable DFF driver would often feed an always-loading register whose
    pairs simulation drops, leaving nothing to re-decide.
    """
    from repro.circuit.gates import GateType
    from repro.core.result import Classification, Stage

    decided = sorted(
        (r for r in result.pair_results
         if r.classification is Classification.MULTI_CYCLE
         and r.stage in (Stage.IMPLICATION, Stage.ATPG)),
        key=lambda r: (r.pair.source, r.pair.sink),
    )
    rng.shuffle(decided)
    names, types, fanins = circuit.names, circuit.types, circuit.fanins
    for pair_result in decided:
        node = fanins[pair_result.pair.sink][0]
        walk = []
        for _ in range(EDIT_WALK_STEPS):
            kind = GateType(types[node])
            if kind.name in FLIPS:
                walk.append(node)
            if not fanins[node] or kind is GateType.DFF:
                break
            node = rng.choice(fanins[node])
        if walk:
            return names[rng.choice(walk)]
    raise ValueError("no flippable gate behind any decided multi-cycle sink")


def apply_edit(text: str, gate: str) -> str:
    """``text`` with gate ``gate`` flipped AND<->OR or NAND<->NOR."""
    prefix = f"{gate} = "
    lines = text.split("\n")
    for index, line in enumerate(lines):
        if line.startswith(prefix):
            func, _, args = line[len(prefix):].partition("(")
            lines[index] = f"{prefix}{FLIPS[func]}({args}"
            return "\n".join(lines)
    raise ValueError(f"gate {gate!r} not found in the netlist")
