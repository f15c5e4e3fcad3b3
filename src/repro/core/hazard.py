"""Static-hazard validation of detected multi-cycle FF pairs (Section 5).

The MC condition only constrains *settled* values, so the non-path-based
detectors (ours, the SAT-based and the BDD-based ones) can be optimistic:
relaxing the timing of a pair whose sink can glitch may break the circuit
once a gate on the glitch path becomes slow.  This module re-validates each
detected multi-cycle pair:

for every assignment case whose premise is satisfiable (the source really
can toggle that way), it asks whether a path from the source's new value
(``FF_i(t+1)``, feeding the second time frame) to the sink's data input
(``FF_j(t+2)``) is statically sensitizable / co-sensitizable under that
case; if so, the transition may reach the sink as a static hazard and the
pair is *flagged* (dropped from the verified set).

The result reproduces the paper's Table 3 ordering:

    pairs(before) >= pairs(after sensitize) >= pairs(after co-sensitize)

because co-sensitization over-approximates the exact sensitization
condition (safe) while sensitization under-approximates it (optimistic,
and survivors may depend on one another — Section 5.2).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.circuit.gates import COMBINATIONAL_TYPES
from repro.circuit.netlist import Circuit
from repro.circuit.timeframe import TimeFrameExpansion, expand_cached
from repro.logic.values import BINARY
from repro.atpg.implication import ImplicationEngine
from repro.core.result import CaseOutcome, DetectionResult, PairResult
from repro.core.sensitization import (
    PathSearchOutcome,
    SensitizationMode,
    find_sensitizable_path,
)


@dataclass
class PairHazardReport:
    """Hazard verdict for one multi-cycle pair."""

    pair_result: PairResult
    has_potential_hazard: bool
    #: a witnessing (case, path-node-ids) when a hazard path was found
    witness_case: tuple[int, int] | None = None
    witness_path: list[int] | None = None
    #: True when a resource limit forced the conservative verdict
    limited: bool = False


@dataclass
class HazardCheckResult:
    """Aggregate over all multi-cycle pairs of a detection run."""

    mode: SensitizationMode
    reports: list[PairHazardReport]
    total_seconds: float

    @property
    def verified_pairs(self) -> list[PairResult]:
        """Multi-cycle pairs with no potential hazard under this mode."""
        return [r.pair_result for r in self.reports if not r.has_potential_hazard]

    @property
    def flagged_pairs(self) -> list[PairResult]:
        return [r.pair_result for r in self.reports if r.has_potential_hazard]


class SourcePremises:
    """The source half of the case premise, held per toggle direction.

    ``FF_i(t) = a, FF_i(t+1) = 1-a`` depends only on the launch FF and
    ``a``, and its implications dominate a whole premise.  One engine per
    ``a`` keeps it assumed until the launch FF changes, so a pair only
    adds its sink half ``FF_j(t+1) = FF_j(t+2) = b``; pairs fed grouped by
    launch FF assume each source premise at most once per direction.  The frame-2
    fanin cone of every target is cached too, and checkers built on one
    holder (the exact checker's two bounds) share all of it.
    """

    def __init__(self, expansion: TimeFrameExpansion) -> None:
        self.expansion = expansion
        self.engines = (
            ImplicationEngine(expansion.comb),
            ImplicationEngine(expansion.comb),
        )
        #: launch FF index held per direction, and whether it is consistent
        self._held: list[int | None] = [None, None]
        self._consistent = [False, False]
        self._cones: dict[int, frozenset[int]] = {}
        #: how often a launch FF's source premise was assumed
        self.assumed = 0
        # The hazard path must lie inside the second frame's combinational
        # logic (the cycle t+1 -> t+2 in which the relaxed propagation runs).
        circuit = expansion.sequential
        self.frame2_nodes = frozenset(
            expansion.node_at[1][n]
            for n in range(circuit.num_nodes)
            if circuit.types[n] in COMBINATIONAL_TYPES
        )

    def engine(self, source: int, a: int) -> ImplicationEngine | None:
        """The engine holding launch FF ``source``'s premise for ``a``.

        ``None`` when that premise contradicts: the source cannot toggle
        away from ``a``, so every case with this ``a`` is skipped.
        """
        engine = self.engines[a]
        if self._held[a] != source:
            engine.reset()
            self._held[a] = source
            self.assumed += 1
            expansion = self.expansion
            self._consistent[a] = engine.assume_all([
                (expansion.ff_at[0][source], a),
                (expansion.ff_at[1][source], 1 - a),
            ])
        return engine if self._consistent[a] else None

    def cone(self, target: int) -> frozenset[int]:
        """Frame-2 fanin cone of ``target`` plus the frame entries it reads."""
        cone = self._cones.get(target)
        if cone is None:
            fanins = self.engines[0].fanins
            seen: set[int] = set()
            stack = [target]
            while stack:
                node = stack.pop()
                if node not in seen:
                    seen.add(node)
                    if node in self.frame2_nodes:
                        stack.extend(fanins[node])
            cone = self._cones[target] = frozenset(seen)
        return cone


class HazardChecker:
    """Checks detected MC pairs for static hazards on a shared expansion."""

    def __init__(
        self,
        circuit: Circuit,
        mode: SensitizationMode = SensitizationMode.STATIC_CO_SENSITIZATION,
        backtrack_limit: int = 50,
        max_attempts: int = 5000,
        expansion: TimeFrameExpansion | None = None,
        premises: SourcePremises | None = None,
    ) -> None:
        self.circuit = circuit
        self.mode = mode
        self.backtrack_limit = backtrack_limit
        self.max_attempts = max_attempts
        if expansion is None:
            expansion = expand_cached(circuit, frames=2)
        elif expansion.frames < 2:
            raise ValueError("the hazard check needs a 2-frame expansion")
        self.expansion = expansion
        self.premises = premises if premises is not None else SourcePremises(expansion)
        #: path searches run, and how many ended on an empty open corridor
        self.searches = 0
        self.corridor_empty = 0

    def check_pair(self, pair_result: PairResult) -> PairHazardReport:
        """Decide whether one multi-cycle pair may see a static hazard."""
        expansion = self.expansion
        pair = pair_result.pair
        source = expansion.ff_index(pair.source)
        sink = expansion.ff_index(pair.sink)
        ffi_t1 = expansion.ff_at[1][source]
        ffj_t1 = expansion.ff_at[1][sink]
        ffj_t2 = expansion.ff_at[2][sink]
        premises = self.premises

        limited = False
        for case in self._satisfiable_cases(pair_result):
            a, b = case
            engine = premises.engine(source, a)
            if engine is None:
                continue
            mark = engine.checkpoint()
            if not engine.assume_all([(ffj_t1, b), (ffj_t2, b)]):
                engine.backtrack(mark)
                continue
            result = find_sensitizable_path(
                engine,
                source=ffi_t1,
                target=ffj_t2,
                allowed=premises.frame2_nodes,
                mode=self.mode,
                backtrack_limit=self.backtrack_limit,
                max_attempts=self.max_attempts,
                reach=premises.cone(ffj_t2),
            )
            engine.backtrack(mark)
            self.searches += 1
            self.corridor_empty += result.corridor_empty
            if result.outcome is PathSearchOutcome.FOUND:
                return PairHazardReport(
                    pair_result,
                    has_potential_hazard=True,
                    witness_case=case,
                    witness_path=result.path,
                )
            if result.outcome is PathSearchOutcome.UNKNOWN:
                limited = True
        if limited:
            # Resource limit: conservatively flag the pair.
            return PairHazardReport(pair_result, has_potential_hazard=True, limited=True)
        return PairHazardReport(pair_result, has_potential_hazard=False)

    def check_pairs(self, pair_results: Iterable[PairResult]) -> list[PairHazardReport]:
        """Reports for many pairs; grouping them by launch FF lets each
        source premise be assumed once per toggle direction."""
        return [self.check_pair(p) for p in pair_results]

    @staticmethod
    def _satisfiable_cases(pair_result: PairResult) -> list[tuple[int, int]]:
        """Assignment cases whose premise is satisfiable.

        Contradiction cases cannot produce the transition at all; if the
        detector recorded no case data (e.g. the pair came from an external
        tool), every case is checked.
        """
        if not pair_result.cases:
            return [(a, b) for a in BINARY for b in BINARY]
        return [
            (c.a, c.b)
            for c in pair_result.cases
            if c.outcome in (CaseOutcome.IMPLIED_STABLE, CaseOutcome.PROVED_STABLE)
        ]


def check_hazards(
    circuit: Circuit,
    detection: DetectionResult,
    mode: SensitizationMode = SensitizationMode.STATIC_CO_SENSITIZATION,
    backtrack_limit: int = 50,
    max_attempts: int = 5000,
) -> HazardCheckResult:
    """Validate every multi-cycle pair of ``detection`` against hazards."""
    started = time.perf_counter()
    checker = HazardChecker(
        circuit, mode, backtrack_limit=backtrack_limit, max_attempts=max_attempts
    )
    reports = checker.check_pairs(detection.multi_cycle_pairs)
    return HazardCheckResult(
        mode=mode, reports=reports, total_seconds=time.perf_counter() - started
    )


class HazardClass:
    """Three-way classification keys (see :func:`classify_hazards`)."""

    SAFE = "safe"
    HAZARDOUS = "hazardous"
    DEPENDENT = "dependent"


def classify_hazards(
    circuit: Circuit,
    detection: DetectionResult,
    backtrack_limit: int = 50,
    max_attempts: int = 5000,
    results: Mapping[SensitizationMode, HazardCheckResult] | None = None,
) -> dict[str, list[PairResult]]:
    """Partition multi-cycle pairs per the paper's summary sentence.

    "One-tenth of the multi-cycle FF pairs ... may have static hazards at
    the input of FFs and three-tenth of them may depend on one another":

    * ``hazardous`` — flagged by the static *sensitization* check: a
      hazard path exists outright; the pair must not be relaxed.
    * ``dependent`` — clean under sensitization but flagged by
      *co-sensitization*: every would-be hazard path is blocked by a side
      input, so the pair is only safe as long as the blocking paths keep
      their own timing (§5.2's inter-pair dependency).
    * ``safe`` — clean under both conditions; relaxable unconditionally.

    ``results`` supplies both modes' :func:`check_hazards` results when
    the caller already has them; otherwise both are computed here.
    """
    if results is None:
        results = {
            mode: check_hazards(
                circuit, detection, mode,
                backtrack_limit=backtrack_limit, max_attempts=max_attempts,
            )
            for mode in SensitizationMode
        }
    flagged_sens = {
        (r.pair_result.pair.source, r.pair_result.pair.sink)
        for r in results[SensitizationMode.STATIC_SENSITIZATION].reports
        if r.has_potential_hazard
    }
    flagged_cosens = {
        (r.pair_result.pair.source, r.pair_result.pair.sink)
        for r in results[SensitizationMode.STATIC_CO_SENSITIZATION].reports
        if r.has_potential_hazard
    }
    classes: dict[str, list[PairResult]] = {
        HazardClass.SAFE: [],
        HazardClass.HAZARDOUS: [],
        HazardClass.DEPENDENT: [],
    }
    for pair_result in detection.multi_cycle_pairs:
        key = (pair_result.pair.source, pair_result.pair.sink)
        if key in flagged_sens:
            classes[HazardClass.HAZARDOUS].append(pair_result)
        elif key in flagged_cosens:
            classes[HazardClass.DEPENDENT].append(pair_result)
        else:
            classes[HazardClass.SAFE].append(pair_result)
    return classes
