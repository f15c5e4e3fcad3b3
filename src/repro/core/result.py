"""Result types for the multi-cycle FF-pair detection pipeline.

Every FF pair ends in exactly one classification, tagged with the pipeline
stage that settled it — the data behind the paper's Tables 1 and 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.circuit.netlist import Circuit
from repro.circuit.topology import FFPair


class Classification(Enum):
    """Final verdict for an FF pair."""

    MULTI_CYCLE = "multi-cycle"
    SINGLE_CYCLE = "single-cycle"
    #: the SAT tier ran out of its conflict budget (or a non-session
    #: engine gave up); treated as single-cycle downstream (no timing
    #: relaxation is claimed for it).
    UNDECIDED = "undecided"


class Stage(Enum):
    """Pipeline stage that settled a pair (Table 2 attribution)."""

    SIMULATION = "sim"
    IMPLICATION = "implication"
    ATPG = "atpg"
    #: a case implication left open (or the ATPG search gave up on) was
    #: decided by the session's cone-restricted SAT solve.
    SAT = "sat"
    #: settled by a non-implication decision engine (SAT / BDD deciders);
    #: the paper's three-stage attribution does not apply to those.
    DECISION = "decision"


class CaseOutcome(Enum):
    """Outcome of one ``(FF_i(t), FF_j(t+1)) = (a, b)`` assignment case."""

    #: the premise assignments contradict during implication
    CONTRADICTION = "contradiction"
    #: implication derives FF_j(t+2) = FF_j(t+1) directly
    IMPLIED_STABLE = "implied-stable"
    #: the backtrack search proved no violating pattern exists
    PROVED_STABLE = "proved-stable"
    #: a violating pattern was found — the pair is single-cycle
    VIOLATED = "violated"
    #: the SAT tier's conflict budget was exhausted
    ABORTED = "aborted"


@dataclass
class CaseResult:
    """Per-case record; ``a``/``b`` are the assumed FF values.

    ``decisions``/``backtracks`` count the ATPG search's effort (0 when
    the case skipped it); a SAT-tier answer adds no solver counters.
    """

    a: int
    b: int
    outcome: CaseOutcome
    decisions: int = 0
    backtracks: int = 0
    #: violating free-input pattern, by expanded-circuit node id (VIOLATED
    #: only): every expanded input, X = don't care (a SAT-tier witness
    #: sets exactly the inputs of the case's cones).
    witness: dict[int, int] | None = None


@dataclass
class PairResult:
    """Full record for one topologically connected FF pair."""

    pair: FFPair
    classification: Classification
    stage: Stage
    cases: list[CaseResult] = field(default_factory=list)
    #: per-pair decision-session counters (implications, prefix hits/
    #: misses); observability only — excluded from equality and from
    #: :meth:`DetectionResult.pair_records`.
    metrics: dict[str, int] | None = field(default=None, compare=False)

    @property
    def is_multi_cycle(self) -> bool:
        return self.classification is Classification.MULTI_CYCLE


@dataclass
class StageStats:
    """Counts and CPU time per pipeline stage (the paper's Table 2)."""

    single_cycle: int = 0
    multi_cycle: int = 0
    undecided: int = 0
    cpu_seconds: float = 0.0


@dataclass
class Disagreement:
    """Two decision engines classified the same pair differently."""

    pair: FFPair
    primary_engine: str
    primary: Classification
    secondary_engine: str
    secondary: Classification


class HazardVerdictKind(Enum):
    """Three-way exact hazard classification of one multi-cycle pair."""

    #: no input assignment lets the source transition glitch the sink
    SAFE = "safe"
    #: a resource limit left the pair undecided; treated as flagged
    GLITCH_POSSIBLE = "glitch-possible"
    #: a concrete assignment (or a sensitizable path) proves the glitch
    GLITCH_PROVEN = "glitch-proven"


@dataclass
class PairHazardVerdict:
    """Exact hazard verdict for one pair (``--hazard-check exact``)."""

    pair: FFPair
    verdict: HazardVerdictKind
    #: what settled the pair: ``cases`` (no satisfiable premise),
    #: ``sensitize`` / ``cosensitize`` (a bound decided it), ``exact``
    #: (the SAT decision) or ``inherited`` (incremental reuse).
    decided_by: str
    #: the ``(a, b)`` case exhibiting the proven glitch, if any
    witness_case: tuple[int, int] | None = None
    #: glitching input pattern by expanded-circuit node id (SAT-decided)
    witness: dict[int, int] | None = None
    #: delay-annotated runs only: True when the proven glitch cannot
    #: survive the annotated min/max gate delays (zero-width pulse).
    delay_safe: bool | None = None


@dataclass
class DetectionResult:
    """Everything the detector learned about one circuit."""

    circuit: Circuit
    connected_pairs: int
    pair_results: list[PairResult]
    stats: dict[Stage, StageStats]
    total_seconds: float
    learned_implications: int = 0
    #: decision engine that settled the post-simulation pairs.
    engine: str = "dalg"
    #: cross-check decider only: pairs where the two engines disagreed.
    disagreements: list[Disagreement] = field(default_factory=list)
    #: decision-session counter totals (prefix cache hits/misses, trail
    #: high-water mark, ...); ``None`` for non-session engines (sat/bdd).
    decision_session: dict[str, int] | None = None
    #: compiled implication-DB stats (nodes/keys/edges/impossible/build
    #: seconds); ``None`` unless ``DetectorOptions.implication_db`` was
    #: set.  Observability only — excluded from :meth:`pair_records`.
    implication_db: dict[str, float | int] | None = None
    #: packed-implication pre-pass totals (lanes packed, lanes resolved,
    #: lanes left open, closures/visits/microseconds); ``None`` when
    #: lane packing was disabled.  Observability only — the packed path
    #: never changes classifications or :meth:`pair_records`.
    packed_implication: dict[str, int] | None = None
    #: hazard-validation mode the pipeline ran ("off" when disabled;
    #: "ternary", "sensitize" or "cosensitize" otherwise).
    hazard_mode: str = "off"
    #: multi-cycle pairs the hazard stage examined / flagged.
    hazard_checked: int = 0
    hazard_flagged: int = 0
    #: flagged (source, sink) pairs, sorted — observability only, the
    #: per-pair classifications and :meth:`pair_records` are unchanged.
    hazard_flagged_pairs: list[FFPair] = field(default_factory=list)
    #: ``exact`` mode only: per-pair three-way verdicts, sorted by pair.
    #: Observability only — excluded from :meth:`pair_records`.
    hazard_verdicts: list[PairHazardVerdict] = field(default_factory=list)
    #: ``exact`` mode only: counters of the exact pass (bounds
    #: disagreement, resolution fraction, SAT solve outcomes, delay
    #: filtering); ``None`` for every other hazard mode.
    hazard_exact: dict[str, float | int] | None = None
    #: artifact-store counter deltas for this run (hits/misses/stores/
    #: evictions/corrupt); ``None`` when no on-disk store was active.
    #: Observability only — excluded from :meth:`pair_records`.
    cache: dict[str, int] | None = None
    #: incremental re-analysis stats (survivors/inherited/re-decided);
    #: ``None`` for a full run.  The merged per-pair records are
    #: byte-identical to a fresh full run — the invariant the hypothesis
    #: differentials in ``tests/core/test_incremental.py`` enforce.
    incremental: dict[str, int] | None = None
    #: shared-memory backplane summary for parallel decide runs (kinds
    #: published, bytes, workers attached, per-worker store misses and
    #: peak RSS); ``None`` when no backplane was published.
    #: Observability only — excluded from :meth:`pair_records`.
    backplane: dict | None = None

    @property
    def multi_cycle_pairs(self) -> list[PairResult]:
        return [p for p in self.pair_results if p.is_multi_cycle]

    @property
    def hazard_verified_pairs(self) -> list[PairResult]:
        """Multi-cycle pairs the hazard stage did not flag.

        Equal to :attr:`multi_cycle_pairs` when the stage was off.
        """
        flagged = {(p.source, p.sink) for p in self.hazard_flagged_pairs}
        return [
            p
            for p in self.multi_cycle_pairs
            if (p.pair.source, p.pair.sink) not in flagged
        ]

    @property
    def single_cycle_pairs(self) -> list[PairResult]:
        return [
            p
            for p in self.pair_results
            if p.classification is Classification.SINGLE_CYCLE
        ]

    @property
    def undecided_pairs(self) -> list[PairResult]:
        return [
            p for p in self.pair_results if p.classification is Classification.UNDECIDED
        ]

    def pair_names(self, result: PairResult) -> tuple[str, str]:
        names = self.circuit.names
        return names[result.pair.source], names[result.pair.sink]

    def multi_cycle_pair_names(self) -> list[tuple[str, str]]:
        """Readable ``(source, sink)`` names of all multi-cycle pairs."""
        return sorted(self.pair_names(p) for p in self.multi_cycle_pairs)

    def pair_records(self) -> list[dict[str, object]]:
        """Deterministic per-pair records, timing excluded.

        Two runs of the same circuit with the same options must produce
        byte-identical JSON for this list regardless of worker count —
        the invariant the parallel executor is tested against.
        """
        names = self.circuit.names
        records: list[dict[str, object]] = []
        for result in self.pair_results:
            records.append({
                "source": names[result.pair.source],
                "sink": names[result.pair.sink],
                "classification": result.classification.value,
                "stage": result.stage.value,
                "cases": [
                    {
                        "a": case.a,
                        "b": case.b,
                        "outcome": case.outcome.value,
                        "decisions": case.decisions,
                        "backtracks": case.backtracks,
                        "witness": case.witness,
                    }
                    for case in result.cases
                ],
            })
        return records

    def summary(self) -> dict[str, float | int]:
        return {
            "ff_pairs": self.connected_pairs,
            "mc_pairs": len(self.multi_cycle_pairs),
            "single_cycle": len(self.single_cycle_pairs),
            "undecided": len(self.undecided_pairs),
            "cpu_seconds": self.total_seconds,
        }
