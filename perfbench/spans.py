"""Span recorder and the layer wrappers of the traced benchmark run.

The traced run wraps public callables of ``repro`` from the outside: each
call opens a span (name, start, end, parent) kept in memory.  A layer's
self time is its spans' durations minus the part their child spans
cover, so the layer self times plus the op root's own self time
(``trace.other``) add up to the traced wall time exactly.

Wrappers are installed on the defining module or class *and* on every
already-imported ``repro`` module that bound the callable by name
(``from x import f``), so both call styles reach the wrapper.  Worker
processes of a parallel run do not report spans back; their numbers come
from what the program itself returns.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Any, Callable

#: (layer, module, attribute path) of every wrapped public callable.
#: Several callables may feed one layer.
LAYER_TARGETS: tuple[tuple[str, str, str], ...] = (
    ("circuit.bench.load", "repro.circuit.bench", "loads"),
    ("circuit.csr.build", "repro.circuit.csr", "csr_arrays"),
    ("circuit.timeframe.expand", "repro.circuit.timeframe", "expand_cached"),
    ("logic.simplan.build", "repro.logic.simplan", "compiled_plan"),
    ("atpg.packed_implication.plan", "repro.atpg.packed_implication",
     "packed_plan"),
    ("circuit.topology.reach", "repro.circuit.topology", "ff_reach"),
    ("circuit.topology.reach", "repro.circuit.topology", "sink_reach"),
    ("circuit.topology.pairs", "repro.circuit.topology", "connected_ff_pairs"),
    ("circuit.topology.pairs", "repro.circuit.topology", "launch_group_stats"),
    ("core.random_filter.sim", "repro.core.random_filter", "random_filter"),
    ("core.random_filter.sim", "repro.core.random_filter",
     "random_filter_packed"),
    ("atpg.packed_implication.close", "repro.atpg.packed_implication",
     "PackedImplicationEngine.close_matrix"),
    ("core.session.search", "repro.core.session",
     "DecisionSession.decide_group"),
    ("core.hazard.path_search", "repro.core.hazard", "HazardChecker.check_pair"),
    ("analysis.hazard_exact.classify", "repro.analysis.hazard_exact",
     "ExactHazardChecker.check_pair"),
    ("sat.solver.solve", "repro.sat.solver", "CdclSolver.solve"),
    ("store.artifact_store.load", "repro.store.artifact_store",
     "ArtifactStore.load"),
    ("store.artifact_store.save", "repro.store.artifact_store",
     "ArtifactStore.save"),
    ("circuit.structhash.cone", "repro.circuit.structhash",
     "launch_cone_hashes"),
    ("circuit.structhash.cone", "repro.circuit.structhash",
     "capture_cone_hashes"),
    ("core.incremental.edit", "repro.core.incremental", "incremental_detect"),
    ("core.workqueue.pool", "repro.core.workqueue", "WorkStealingPool.__init__"),
    ("core.workqueue.pool", "repro.core.workqueue", "WorkStealingPool.shutdown"),
    ("core.workqueue.wait", "repro.core.workqueue",
     "WorkStealingPool.next_result"),
    ("core.workqueue.wait", "repro.core.workqueue",
     "WorkStealingPool.wait_ready"),
    ("store.backplane.publish", "repro.store.backplane", "publish"),
)

#: every layer name, in ledger order; the op root's self time is ``trace.other``.
LAYERS: tuple[str, ...] = tuple(dict.fromkeys(t[0] for t in LAYER_TARGETS))
ROOT = "trace.other"


class SpanRecorder:
    """Nested spans of one thread, kept in memory until the op ends."""

    def __init__(self) -> None:
        #: [name, start, end, parent index or -1]
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []

    def enter(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def exit(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def ledger(self, roots: list[int]) -> dict[str, dict[str, float]]:
        """Self seconds and call count per layer, under the ``roots`` spans.

        Spans are appended in start order and children close before
        their parent, so one pass in reverse accumulates every child's
        duration into its parent before the parent is visited.
        """
        count = len(self.spans)
        inside = [False] * count
        for root in roots:
            inside[root] = True
        for index in range(count):
            parent = self.spans[index][3]
            if parent >= 0 and inside[parent]:
                inside[index] = True
        covered = [0.0] * count
        table: dict[str, dict[str, float]] = {}
        for index in range(count - 1, -1, -1):
            if not inside[index]:
                continue
            name, start, end, parent = self.spans[index]
            duration = end - start
            if parent >= 0 and inside[parent]:
                covered[parent] += duration
            row = table.setdefault(name, {"self_s": 0.0, "calls": 0})
            row["self_s"] += duration - covered[index]
            row["calls"] += 1
        return table


def _wrap(recorder: SpanRecorder, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        index = recorder.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.exit(index)

    return wrapper


def install(recorder: SpanRecorder) -> None:
    """Wrap every :data:`LAYER_TARGETS` callable for this process."""
    for layer, module_name, path in LAYER_TARGETS:
        owner: Any = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = owner.__dict__[attr]
        wrapper = _wrap(recorder, layer, original)
        setattr(owner, attr, wrapper)
        if outer:
            continue
        # Rebind ``from module import fn`` copies held by other modules.
        for name, module in list(sys.modules.items()):
            if not name.startswith("repro") or module is None:
                continue
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if value is original:
                    namespace[key] = wrapper
