"""Incremental ECO re-analysis: re-decide only what an edit touched.

A full detection run prices every surviving FF pair through the decide
stage even when the netlist changed by one gate.  An incremental run is
the ordinary detection fold (:func:`repro.core.pipeline.detect`) with an
:class:`Inheritance` filter against a prior run's cached pair records:

1. **Topology and random simulation always run fresh.**  The random
   filter's outcome depends on the global RNG stream and round
   structure, so any netlist edit can shift which pairs it drops; both
   phases are cheap relative to decide and rerunning them keeps the
   merged result byte-identical to a full fresh run.
2. **Decide records are inherited by cone hash.**  A pair's decide
   record is a pure function of its ``(launch-cone-hash,
   capture-cone-hash, options-fingerprint)`` key (see
   :mod:`repro.circuit.structhash`): backward implications stay inside
   the capture FF's expanded fanin cones and forward propagation from a
   consistent launch assignment cannot conflict outside them.  The
   filter runs on each launch group's simulation survivors: those whose
   key matches a prior record inherit its verdict and case list
   verbatim; only the changed subset is queued for decide.
3. **Globally-sensitive options force a full re-decide.**  Static
   learning, the compiled implication DB, SCOAP guidance and the
   SAT/BDD/cross-check engines read (or index) the whole circuit, so
   the options fingerprint mixes in the full structural hash whenever
   they are on — any edit then invalidates every prior record, which is
   sound (never wrong, merely slower).
4. **Witnesses inherit only onto the same input layout.**  A case
   witness maps expanded INPUT node ids to values, so a record that
   carries one is inherited only when the expanded inputs still have
   the same ids and names.  An inserted DFF adds a pseudo-input and
   shifts every later id; its witness-carrying records are re-decided.
5. **Hazard verdicts inherit with the decide records** when the prior
   run used the same hazard options; otherwise inherited multi-cycle
   pairs are checked alongside the fresh ones, in the same per-batch
   hazard pass.

The prior state travels as a *pair-record bundle* — a pickleable dict
the detector publishes to the artifact store after every run (kind
``"pair-records"``, addressed by the circuit's name-inclusive content
key plus the options fingerprint).  ``repro analyze --incremental-from
OLD.bench`` loads the bundle of the old netlist from the active store
and merges; the hypothesis tests in ``tests/core/test_incremental.py``
pin the merged ``pair_records`` byte for byte against full fresh runs.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Any, Sequence

from repro.circuit.csr import csr_arrays
from repro.circuit.netlist import Circuit
from repro.circuit.structhash import (
    capture_cone_hashes,
    launch_cone_hashes,
)
from repro.circuit.timeframe import expand_cached
from repro.circuit.topology import FFPair
from repro.core.pipeline import AnalysisContext, DetectorOptions
from repro.core.result import (
    CaseOutcome,
    CaseResult,
    Classification,
    DetectionResult,
    HazardVerdictKind,
    PairHazardVerdict,
    PairResult,
    Stage,
)
from repro.core.trace import ProgressFn, Tracer
from repro.store.artifact_store import ArtifactStore

#: prior records settled by these stages may be inherited; simulation
#: verdicts are always re-derived fresh.
_DECIDE_STAGES = frozenset({
    Stage.IMPLICATION.value, Stage.ATPG.value, Stage.DECISION.value,
})

#: engines whose records depend on global structure (expanded node ids
#: in witnesses, whole-circuit indices) — any edit forces a full
#: re-decide under them.
_GLOBAL_ENGINES = frozenset({"sat", "bdd", "cross-check"})

#: artifact kind of the persisted bundle.
BUNDLE_KIND = "pair-records"


def options_fingerprint(
    options: DetectorOptions, circuit: Circuit, frames: int = 2
) -> str:
    """Digest of every option that can influence a pair's decide record.

    Execution-shape options (workers, unit sizing, lane packing, the
    launch-prefix cache) are excluded — prior PRs pin their record
    byte-identity.  Simulation options are excluded too: the random
    filter reruns fresh on every incremental pass.  When a
    globally-sensitive feature is on (learned tables, the SAT/BDD
    engines) the circuit's structural hash is mixed in, so any edit
    invalidates every prior record.  The ``scoap`` engine is not one:
    its decision order reads only fanin-cone controllability, which
    the cone hashes already cover.
    """
    parts = [
        f"frames={frames}",
        f"engine={options.search_engine}",
        f"backtrack={options.backtrack_limit}",
        f"static_learning={options.static_learning}",
        f"implication_db={options.implication_db}",
    ]
    globally_sensitive = (
        options.static_learning
        or options.implication_db
        or options.search_engine in _GLOBAL_ENGINES
    )
    if globally_sensitive:
        parts.append(f"struct={circuit.structural_hash()}")
    return hashlib.sha256("\x1f".join(parts).encode()).hexdigest()


def hazard_fingerprint(options: DetectorOptions) -> str:
    """Digest of every option that can influence a pair's hazard verdict.

    Separate from :func:`options_fingerprint` on purpose: hazard
    options never touch decide records (the byte-identity invariant),
    so changing them must not invalidate decide inheritance — only the
    per-pair hazard verdicts.  For ``exact`` mode the SAT conflict
    budget and the delay sidecar's *content* are mixed in; a missing
    sidecar file hashes as absent and fails later at load time.
    """
    parts = [
        f"mode={options.hazard_check}",
        f"backtrack={options.hazard_backtrack_limit}",
    ]
    if options.hazard_check == "exact":
        parts.append(f"conflict={options.hazard_conflict_limit}")
        if options.hazard_delays is not None:
            sidecar = Path(options.hazard_delays)
            digest = (
                hashlib.sha256(sidecar.read_bytes()).hexdigest()
                if sidecar.is_file()
                else "absent"
            )
            parts.append(f"delays={digest}")
    return hashlib.sha256("\x1f".join(parts).encode()).hexdigest()


def input_layout_digest(circuit: Circuit, frames: int = 2) -> str:
    """Digest of the expanded inputs' ``(id, name)`` list, in id order.

    Case witnesses are keyed by these ids, so a witness is only valid
    on a circuit whose expansion has the same digest.
    """
    comb = expand_cached(circuit, frames).comb
    names = comb.names
    layout = "\x1f".join(
        f"{node}={names[node]}" for node in csr_arrays(comb).inputs
    )
    return hashlib.sha256(layout.encode()).hexdigest()


def _has_witness(cases: Sequence[Any]) -> bool:
    return any(case["witness"] is not None for case in cases)


# ----------------------------------------------------------------------
# Pair-record bundles.
# ----------------------------------------------------------------------
def result_bundle(
    result: DetectionResult,
    options: DetectorOptions,
    frames: int = 2,
) -> dict[str, object]:
    """The persistable prior-state bundle of one detection run.

    Per pair: names, the launch/capture cone hashes, and the full
    decide record (classification, stage, cases) in exactly the shape
    :meth:`DetectionResult.pair_records` exposes — plus the hazard flag
    when the hazard stage ran.  When any case carries a witness, the
    bundle also records the :func:`input_layout_digest` its keys refer
    to.
    """
    circuit = result.circuit
    names = circuit.names
    launch = launch_cone_hashes(circuit, frames)
    capture = capture_cone_hashes(circuit, frames)
    flagged = {
        (p.source, p.sink) for p in result.hazard_flagged_pairs
    }
    verdicts = {
        (v.pair.source, v.pair.sink): v for v in result.hazard_verdicts
    }
    records: list[dict[str, object]] = []
    for pair_result in result.pair_results:
        pair = pair_result.pair
        verdict = verdicts.get((pair.source, pair.sink))
        records.append({
            "source": names[pair.source],
            "sink": names[pair.sink],
            "launch": launch[pair.source],
            "capture": capture[pair.sink],
            "classification": pair_result.classification.value,
            "stage": pair_result.stage.value,
            "cases": [
                {
                    "a": case.a,
                    "b": case.b,
                    "outcome": case.outcome.value,
                    "decisions": case.decisions,
                    "backtracks": case.backtracks,
                    "witness": case.witness,
                }
                for case in pair_result.cases
            ],
            "hazard_flagged": (pair.source, pair.sink) in flagged,
            "hazard_verdict": (
                verdict.verdict.value if verdict is not None else None
            ),
            "hazard_delay_safe": (
                verdict.delay_safe if verdict is not None else None
            ),
        })
    witnessed = any(
        case.witness is not None
        for pair_result in result.pair_results
        for case in pair_result.cases
    )
    return {
        "circuit": circuit.name,
        "engine": result.engine,
        "frames": frames,
        "input_layout": (
            input_layout_digest(circuit, frames) if witnessed else None
        ),
        "fingerprint": options_fingerprint(options, circuit, frames),
        "hazard_mode": result.hazard_mode,
        "hazard_fingerprint": hazard_fingerprint(options),
        "records": records,
    }


def bundle_address(
    store: ArtifactStore, circuit: Circuit, options: DetectorOptions,
    frames: int = 2,
) -> str:
    """Store address of a circuit's bundle under the given options."""
    return store.address(
        BUNDLE_KIND,
        circuit.content_key(include_names=True),
        extra=options_fingerprint(options, circuit, frames),
    )


def save_result_bundle(
    store: ArtifactStore,
    result: DetectionResult,
    options: DetectorOptions,
    frames: int = 2,
) -> None:
    """Publish a run's bundle so later ECO runs can inherit from it."""
    store.save(
        BUNDLE_KIND,
        bundle_address(store, result.circuit, options, frames),
        result_bundle(result, options, frames),
    )


def load_result_bundle(
    store: ArtifactStore,
    circuit: Circuit,
    options: DetectorOptions,
    frames: int = 2,
) -> dict[str, object] | None:
    """The prior bundle of ``circuit`` under ``options``, if published."""
    bundle = store.load(
        BUNDLE_KIND, bundle_address(store, circuit, options, frames)
    )
    if not isinstance(bundle, dict):
        return None
    return bundle


# ----------------------------------------------------------------------
# The inherit-by-cone-hash filter.
# ----------------------------------------------------------------------
def _result_from_record(pair: FFPair, record: dict[str, Any]) -> PairResult:
    """A prior bundle record as the verbatim pair result it inherits."""
    return PairResult(
        pair,
        Classification(record["classification"]),
        Stage(record["stage"]),
        cases=[
            CaseResult(
                a=case["a"],
                b=case["b"],
                outcome=CaseOutcome(case["outcome"]),
                decisions=case["decisions"],
                backtracks=case["backtracks"],
                witness=case["witness"],
            )
            for case in record["cases"]
        ],
    )


class Inheritance:
    """Inherit prior decide records (and hazard verdicts) by cone hash.

    The filter :func:`repro.core.pipeline.detect` applies to each launch
    group's simulation survivors before they are queued for decide: a
    survivor whose ``(launch-cone-hash, capture-cone-hash)`` matches a
    decide-settled record of the prior bundle — under the same options
    fingerprint — inherits that record verbatim; the rest are re-decided.
    A record whose cases carry a witness also needs the prior bundle's
    input layout to match the circuit's (:func:`input_layout_digest`).
    """

    def __init__(self, bundle: dict[str, Any]) -> None:
        self.bundle = bundle
        self.fingerprint = ""
        self.inherited: dict[FFPair, dict[str, Any]] = {}
        self.survivors = 0
        self.re_decided = 0

    def prepare(self, ctx: AnalysisContext, frames: int) -> None:
        """Index the prior records and hash the circuit's cones."""
        circuit = ctx.circuit
        self.fingerprint = options_fingerprint(ctx.options, circuit, frames)
        self.prior: dict[tuple[str, str], dict[str, Any]] = {}
        bundle = self.bundle
        if (bundle.get("fingerprint") == self.fingerprint
                and bundle.get("frames") == frames):
            self.prior = {
                (record["source"], record["sink"]): record
                for record in bundle.get("records", [])
                if record["stage"] in _DECIDE_STAGES
            }
        self.names = circuit.names
        self.circuit = circuit
        self.frames = frames
        self._same_layout: bool | None = None
        self.launch = launch_cone_hashes(circuit, frames)
        self.capture = capture_cone_hashes(circuit, frames)
        self.hazard_reuse = (
            bundle.get("hazard_fingerprint") == hazard_fingerprint(ctx.options)
        )

    def split(
        self, pairs: Sequence[FFPair]
    ) -> tuple[list[PairResult], list[FFPair]]:
        """``(inherited results, pairs to re-decide)`` of one group."""
        names = self.names
        inherited: list[PairResult] = []
        fresh: list[FFPair] = []
        for pair in pairs:
            record = self.prior.get((names[pair.source], names[pair.sink]))
            if (
                record is not None
                and record["launch"] == self.launch[pair.source]
                and record["capture"] == self.capture[pair.sink]
                and (not _has_witness(record["cases"]) or self.same_layout())
            ):
                self.inherited[pair] = record
                inherited.append(_result_from_record(pair, record))
            else:
                fresh.append(pair)
        self.survivors += len(pairs)
        self.re_decided += len(fresh)
        return inherited, fresh

    def same_layout(self) -> bool:
        """Whether prior witnesses key the same expanded inputs (cached)."""
        if self._same_layout is None:
            digest = input_layout_digest(self.circuit, self.frames)
            self._same_layout = digest == self.bundle.get("input_layout")
        return self._same_layout

    def prior_hazard(
        self, pair: FFPair, mode: str
    ) -> tuple[bool, PairHazardVerdict | None] | None:
        """An inherited pair's prior ``(flagged, verdict)`` hazard outcome.

        ``None`` — check the pair — unless the pair was inherited and the
        prior run used the same hazard options (and, for ``exact``,
        recorded a verdict: older bundles carry only the flag).
        """
        record = self.inherited.get(pair)
        if record is None or not self.hazard_reuse:
            return None
        if mode != "exact":
            return bool(record.get("hazard_flagged")), None
        kind = record.get("hazard_verdict")
        if kind is None:
            return None
        from repro.analysis.hazard_exact import verdict_flags_pair

        verdict = PairHazardVerdict(
            pair,
            HazardVerdictKind(kind),
            "inherited",
            delay_safe=record.get("hazard_delay_safe"),
        )
        return verdict_flags_pair(verdict), verdict

    def summary(self) -> dict[str, int]:
        return {
            "survivors": self.survivors,
            "inherited": len(self.inherited),
            "re_decided": self.re_decided,
        }


def incremental_detect(
    circuit: Circuit,
    options: DetectorOptions | None = None,
    bundle: dict[str, Any] | None = None,
    tracer: Tracer | None = None,
    progress: ProgressFn | None = None,
) -> DetectionResult:
    """Detect multi-cycle pairs, inheriting from a prior run's bundle.

    With ``bundle=None`` (or a fingerprint mismatch) every surviving
    pair is re-decided — the result is then identical to a full run.
    The merged result's per-pair records are byte-identical to a fresh
    full run either way; ``result.incremental`` reports how much work
    was inherited.  When an artifact store is active the merged bundle
    is republished, so chains of ECOs keep inheriting.
    """
    from repro.core.detector import MultiCycleDetector

    detector = MultiCycleDetector(circuit, options, tracer, progress)
    return detector.run(bundle=bundle or {})
