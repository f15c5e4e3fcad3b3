"""Reference hazard bounds: the differential oracles of the exact checker.

* :func:`reference_find_sensitizable_path` is the unpruned path search:
  the same depth-first walk as
  :func:`repro.core.sensitization.find_sensitizable_path`, over the whole
  fanin cone of the target instead of its open corridor.
* :class:`ReferenceExactHazardChecker` classifies sensitize-first: the
  sensitization lower bound runs on every pair, and co-sensitization only
  on pairs it did not prove; both bounds search with the unpruned walk.

The production checker must reach the same verdicts with the same SAT
calls, and the production search must return the same outcome and path
with no more attempts whenever this one stays inside its budget.
"""

from __future__ import annotations

from unittest import mock

from repro.analysis.hazard_exact import ExactHazardChecker
from repro.atpg.justify import SearchStatus, justify
from repro.core import hazard
from repro.core.hazard import HazardChecker
from repro.core.result import HazardVerdictKind, PairHazardVerdict
from repro.core.sensitization import (
    PathSearchOutcome,
    PathSearchResult,
    SensitizationMode,
    _extension_options,
    source_cone,
)


def reference_find_sensitizable_path(
    engine,
    source,
    target,
    allowed,
    mode,
    backtrack_limit=50,
    max_attempts=5000,
    reach=None,
    x_cone=None,
):
    """The path search walking the whole fanin cone of ``target``."""
    if reach is None:
        reach = engine.circuit.transitive_fanin([target])
    if source not in reach:
        return PathSearchResult(PathSearchOutcome.NONE)
    if x_cone is None:
        x_cone = source_cone(engine, source, allowed)

    outer_mark = engine.checkpoint()
    attempts = 0
    saw_unknown = False

    def walk(node, path):
        nonlocal attempts, saw_unknown
        if node == target:
            result = justify(engine, backtrack_limit)
            if result.status is SearchStatus.SAT:
                return PathSearchOutcome.FOUND
            if result.status is SearchStatus.ABORTED:
                saw_unknown = True
            return PathSearchOutcome.NONE
        for gate in engine.fanouts[node]:
            if gate not in reach or gate not in allowed or gate in path:
                continue
            attempts += 1
            if attempts > max_attempts:
                saw_unknown = True
                return PathSearchOutcome.NONE
            options = _extension_options(engine, gate, node, mode, x_cone)
            if options is None:
                options = [[]]
            for option in options:
                mark = engine.checkpoint()
                if engine.assume_all(option):
                    path.append(gate)
                    outcome = walk(gate, path)
                    if outcome is PathSearchOutcome.FOUND:
                        return outcome
                    path.pop()
                engine.backtrack(mark)
        return PathSearchOutcome.NONE

    path = [source]
    outcome = walk(source, path)
    if outcome is PathSearchOutcome.FOUND:
        found = list(path)
        engine.backtrack(outer_mark)
        return PathSearchResult(PathSearchOutcome.FOUND, found, attempts)
    engine.backtrack(outer_mark)
    if saw_unknown:
        return PathSearchResult(PathSearchOutcome.UNKNOWN, None, attempts)
    return PathSearchResult(PathSearchOutcome.NONE, None, attempts)


class ReferenceHazardChecker(HazardChecker):
    """:class:`HazardChecker` searching with the unpruned walk."""

    def check_pair(self, pair_result):
        with mock.patch.object(
            hazard, "find_sensitizable_path", reference_find_sensitizable_path
        ):
            return super().check_pair(pair_result)


class ReferenceExactHazardChecker(ExactHazardChecker):
    """Sensitize-first classification over the unpruned bounds."""

    def __init__(self, circuit, expansion=None, **kwargs):
        super().__init__(circuit, expansion, **kwargs)
        budgets = dict(
            backtrack_limit=self._sens.backtrack_limit,
            max_attempts=self._sens.max_attempts,
            expansion=self.expansion,
            premises=self._premises,
        )
        self._sens = ReferenceHazardChecker(
            circuit, SensitizationMode.STATIC_SENSITIZATION, **budgets
        )
        self._cosens = ReferenceHazardChecker(
            circuit, SensitizationMode.STATIC_CO_SENSITIZATION, **budgets
        )

    def _classify(self, pair_result, cases):
        pair = pair_result.pair
        if not cases:
            return PairHazardVerdict(pair, HazardVerdictKind.SAFE, "cases")
        sens = self._sens.check_pair(pair_result)
        proven = sens.has_potential_hazard and not sens.limited
        if not proven:
            cosens = self._cosens.check_pair(pair_result)
            if not cosens.has_potential_hazard:
                return PairHazardVerdict(
                    pair, HazardVerdictKind.SAFE, "cosensitize"
                )
        elif self.delays is None:
            return PairHazardVerdict(
                pair,
                HazardVerdictKind.GLITCH_PROVEN,
                "sensitize",
                witness_case=sens.witness_case,
            )
        disagreeing = not proven
        if disagreeing:
            self.counters["disagreement"] += 1
        case, witness, unknown = self._solve_pair(pair, cases)
        if witness is not None:
            if disagreeing:
                self.counters["resolved"] += 1
            delay_safe = None
            if self.delays is not None:
                delay_safe = not self._survives_delays(pair, witness)
            return PairHazardVerdict(
                pair,
                HazardVerdictKind.GLITCH_PROVEN,
                "exact",
                witness_case=case,
                witness=witness,
                delay_safe=delay_safe,
            )
        if unknown:
            if proven:
                return PairHazardVerdict(
                    pair,
                    HazardVerdictKind.GLITCH_PROVEN,
                    "sensitize",
                    witness_case=sens.witness_case,
                )
            return PairHazardVerdict(
                pair, HazardVerdictKind.GLITCH_POSSIBLE, "exact"
            )
        if disagreeing:
            self.counters["resolved"] += 1
        return PairHazardVerdict(pair, HazardVerdictKind.SAFE, "exact")
