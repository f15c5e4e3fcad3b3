"""Transition-delay fault test generation and multi-cycle relaxation.

The paper's introduction lists "ATPG for delay faults" among the users of
multi-cycle information, citing Lai/Krstic/Cheng's functionally testable
path delay faults [10].  This module realises that connection:

* **Test generation** — a *slow-to-rise* (or *slow-to-fall*) fault at node
  ``n`` is tested launch-on-capture style over the 2-frame expansion: the
  first frame sets ``n`` to the initial value, the second frame sets it to
  the final value *and* propagates the (late) transition to an observation
  point — encoded as a frame-2 stuck-at miter (:func:`build_fault_miter`)
  at the initial value, so the whole machinery reuses the implication
  engine and justification search.

* **Relaxation classification** — a transition fault is *multi-cycle
  relaxed* when every FF pair whose combinational cone contains the fault
  site is a detected multi-cycle pair (and the site feeds no primary
  output or single-cycle cone): its extra delay only matters against the
  relaxed k-period budget, so the at-speed test need not run at the base
  clock.  This is exactly what multi-cycle knowledge buys a delay-fault
  flow.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum

from repro.circuit.gates import COMBINATIONAL_TYPES, GateType
from repro.circuit.netlist import Circuit
from repro.circuit.timeframe import TimeFrameExpansion, expand
from repro.logic.values import ONE, X, ZERO
from repro.atpg.implication import ImplicationEngine
from repro.atpg.justify import SearchStatus, justify
from repro.core.result import DetectionResult


@dataclass(frozen=True)
class TransitionFault:
    """Slow-to-rise (``rising=True``) or slow-to-fall fault at a node."""

    node: int
    rising: bool

    def name(self, circuit: Circuit) -> str:
        kind = "STR" if self.rising else "STF"
        return f"{circuit.names[self.node]}/{kind}"

    @property
    def initial_value(self) -> int:
        return ZERO if self.rising else ONE

    @property
    def final_value(self) -> int:
        return ONE if self.rising else ZERO


class TransitionStatus(Enum):
    """Outcome of transition-fault test generation."""

    DETECTED = "detected"
    UNTESTABLE = "untestable"
    ABORTED = "aborted"


@dataclass
class TransitionResult:
    fault: TransitionFault
    status: TransitionStatus
    #: launch-on-capture pattern over the 2-frame expansion's free inputs
    pattern: dict[int, int] | None = None


@dataclass
class TransitionReport:
    circuit: Circuit
    results: list[TransitionResult]
    total_seconds: float

    def by_status(self, status: TransitionStatus) -> list[TransitionResult]:
        return [r for r in self.results if r.status is status]

    @property
    def coverage(self) -> float:
        """Detected / testable."""
        untestable = len(self.by_status(TransitionStatus.UNTESTABLE))
        testable = len(self.results) - untestable
        if testable == 0:
            return 1.0
        return len(self.by_status(TransitionStatus.DETECTED)) / testable


def enumerate_transition_faults(circuit: Circuit) -> list[TransitionFault]:
    """Both transition faults on every PI, FF output and gate output."""
    sites = [
        n
        for n in range(circuit.num_nodes)
        if circuit.types[n] not in (GateType.OUTPUT, GateType.CONST0,
                                    GateType.CONST1)
    ]
    return [
        TransitionFault(node, rising)
        for node in sites
        for rising in (True, False)
    ]


def build_fault_miter(
    comb: Circuit,
    site: int,
    stuck_value: int,
    observe: list[int],
) -> tuple[Circuit, int]:
    """Good circuit + faulty fanout cone of ``site`` + OR of observation XORs.

    The faulty cone is a copy of ``site``'s transitive fanout with the
    site tied to ``stuck_value``.  Returns the miter circuit and its
    output node, which is 1 exactly when some observation point of the
    good and faulty cones differs; the output is constant 0 when the site
    reaches no observation point.
    """
    miter = comb.copy(f"{comb.name}_miter")
    cone = comb.transitive_fanout([site])
    dup: dict[int, int] = {}
    const_type = GateType.CONST1 if stuck_value == ONE else GateType.CONST0
    dup[site] = miter.add_node(const_type, (), f"{comb.names[site]}__flt")
    for node in comb.topo_order():
        if node not in cone or node == site:
            continue
        if comb.types[node] not in COMBINATIONAL_TYPES:
            continue
        fanins = tuple(dup.get(f, f) for f in comb.fanins[node])
        dup[node] = miter.add_node(
            comb.types[node], fanins, f"{comb.names[node]}__flt"
        )
    xors = []
    for observation in observe:
        faulty = dup.get(observation)
        if faulty is None:
            continue  # fault cannot reach this observation point
        xors.append(
            miter.add_node(
                GateType.XOR, (observation, faulty),
                f"{comb.names[observation]}__xor",
            )
        )
    if not xors:
        out = miter.add_node(GateType.CONST0, (), "__miter_const")
        return miter, out
    out = miter.add_node(GateType.OR, tuple(xors), "__miter")
    return miter, out


class TransitionAtpg:
    """Launch-on-capture transition ATPG over a shared 2-frame expansion."""

    def __init__(self, circuit: Circuit, backtrack_limit: int = 200) -> None:
        self.circuit = circuit
        self.backtrack_limit = backtrack_limit
        self.expansion: TimeFrameExpansion = expand(circuit, frames=2)
        comb = self.expansion.comb
        # Observation in the *capture* frame: frame-2 POs and state at t+2.
        observe = list(self.expansion.po_at[1])
        observe = [comb.fanins[po][0] for po in observe]
        observe.extend(self.expansion.ff_at[2])
        self._observe = list(dict.fromkeys(observe))

    def generate_test(self, fault: TransitionFault) -> TransitionResult:
        """Find a launch-on-capture pattern pair or prove none exists."""
        comb = self.expansion.comb
        site_launch = self.expansion.node_at[0][fault.node]
        site_capture = self.expansion.node_at[1][fault.node]
        # A late transition behaves like the site stuck at its initial
        # value during the capture cycle.
        miter, out_node = build_fault_miter(
            comb, site_capture, fault.initial_value, self._observe
        )
        engine = ImplicationEngine(miter)
        ok = engine.assume_all([
            (miter_node(miter, comb, site_launch), fault.initial_value),
            (miter_node(miter, comb, site_capture), fault.final_value),
            (out_node, ONE),
        ])
        if not ok:
            return TransitionResult(fault, TransitionStatus.UNTESTABLE)
        result = justify(engine, self.backtrack_limit)
        if result.status is SearchStatus.UNSAT:
            return TransitionResult(fault, TransitionStatus.UNTESTABLE)
        if result.status is SearchStatus.ABORTED:
            return TransitionResult(fault, TransitionStatus.ABORTED)
        pattern = {}
        for node in comb.inputs:
            value = result.witness.get(miter.id_of(comb.names[node]), X)
            pattern[node] = ZERO if value == X else value
        return TransitionResult(fault, TransitionStatus.DETECTED, pattern)

    def run(self, faults: list[TransitionFault] | None = None
            ) -> TransitionReport:
        started = time.perf_counter()
        if faults is None:
            faults = enumerate_transition_faults(self.circuit)
        results = [self.generate_test(fault) for fault in faults]
        return TransitionReport(
            self.circuit, results, time.perf_counter() - started
        )


def miter_node(miter: Circuit, comb: Circuit, node: int) -> int:
    """The miter's copy of an expansion node (good side, same name)."""
    return miter.id_of(comb.names[node])


def relaxable_fault_sites(
    circuit: Circuit, detection: DetectionResult
) -> set[int]:
    """Nodes whose transition faults only matter against relaxed budgets.

    A site ``n`` qualifies when every register-to-register path through it
    has a multi-cycle budget and no unrelaxed path exists, i.e.

    * for every pair (source FF, sink FF) with ``n`` on a path between
      them — source in ``n``'s fanin cone, ``n`` in the sink's D cone —
      the pair is a detected multi-cycle pair,
    * ``n`` lies on at least one such register-to-register path,
    * ``n`` does not reach a primary output combinationally, and
    * ``n`` is not combinationally reachable from a primary input
      (PI-to-FF and FF-to-PO paths keep their single-cycle budget —
      FF-pair analysis says nothing about them).
    """
    multi_cycle = {
        (p.pair.source, p.pair.sink) for p in detection.multi_cycle_pairs
    }

    # Per-node DFF support and PI reachability by one topological DP.
    sources: list[frozenset[int]] = [frozenset()] * circuit.num_nodes
    pi_reachable = [False] * circuit.num_nodes
    for node in circuit.topo_order():
        gate_type = circuit.types[node]
        if gate_type == GateType.DFF:
            sources[node] = frozenset({node})
        elif gate_type == GateType.INPUT:
            pi_reachable[node] = True
        elif gate_type in (GateType.CONST0, GateType.CONST1):
            pass
        else:
            merged: set[int] = set()
            for fanin in circuit.fanins[node]:
                merged |= sources[fanin]
                pi_reachable[node] = pi_reachable[node] or pi_reachable[fanin]
            sources[node] = frozenset(merged)

    po_cone: set[int] = set()
    for po in circuit.outputs:
        po_cone |= circuit.transitive_fanin([circuit.fanins[po][0]])

    relaxable: set[int] = set()
    blocked: set[int] = set()
    on_some_path: set[int] = set()
    for sink in circuit.dffs:
        cone = circuit.transitive_fanin([circuit.next_state_node(sink)])
        for node in cone:
            relevant = sources[node]
            if not relevant:
                continue
            on_some_path.add(node)
            if any((source, sink) not in multi_cycle for source in relevant):
                blocked.add(node)
    for node in on_some_path:
        if node in blocked or node in po_cone or pi_reachable[node]:
            continue
        relaxable.add(node)
    return relaxable


@dataclass
class RelaxationSummary:
    total_faults: int
    detected: int
    untestable: int
    aborted: int
    #: detected faults whose site timing is covered by multi-cycle budgets
    relaxed: int


def transition_relaxation_summary(
    circuit: Circuit,
    detection: DetectionResult,
    backtrack_limit: int = 200,
) -> RelaxationSummary:
    """The [10]-flavoured experiment: how many transition faults need
    at-speed testing only against a relaxed (multi-cycle) clock?"""
    atpg = TransitionAtpg(circuit, backtrack_limit)
    report = atpg.run()
    relaxable = relaxable_fault_sites(circuit, detection)
    relaxed = sum(
        1
        for result in report.by_status(TransitionStatus.DETECTED)
        if result.fault.node in relaxable
    )
    return RelaxationSummary(
        total_faults=len(report.results),
        detected=len(report.by_status(TransitionStatus.DETECTED)),
        untestable=len(report.by_status(TransitionStatus.UNTESTABLE)),
        aborted=len(report.by_status(TransitionStatus.ABORTED)),
        relaxed=relaxed,
    )
