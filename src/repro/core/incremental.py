"""Incremental ECO re-analysis: re-decide only what an edit touched.

A full detection run prices every surviving FF pair through the decide
stage even when the netlist changed by one gate.  This module runs the
pipeline *incrementally* against a prior run's cached pair records:

1. **Topology and random simulation always run fresh.**  The random
   filter's outcome depends on the global RNG stream and round
   structure, so any netlist edit can shift which pairs it drops; both
   stages are cheap relative to decide and rerunning them keeps the
   merged result byte-identical to a full fresh run.
2. **Decide records are inherited by cone hash.**  A pair's decide
   record is a pure function of its ``(launch-cone-hash,
   capture-cone-hash, options-fingerprint)`` key (see
   :mod:`repro.circuit.structhash`): backward implications stay inside
   the capture FF's expanded fanin cones and forward propagation from a
   consistent launch assignment cannot conflict outside them.  Survivors
   whose key matches a prior record inherit its verdict and case list
   verbatim; only the changed subset re-enters the decision stage.
3. **Globally-sensitive options force a full re-decide.**  Static
   learning, the compiled implication DB, SCOAP guidance and the
   SAT/BDD/cross-check engines read (or index) the whole circuit, so
   the options fingerprint mixes in the full structural hash whenever
   they are on — any edit then invalidates every prior record, which is
   sound (never wrong, merely slower).
4. **Hazard flags inherit with the verdicts** when the prior run used
   the same hazard mode; otherwise inherited multi-cycle pairs are
   re-checked alongside the fresh ones.

The prior state travels as a *pair-record bundle* — a pickleable dict
the detector publishes to the artifact store after every run (kind
``"pair-records"``, addressed by the circuit's name-inclusive content
key plus the options fingerprint).  ``repro analyze --incremental-from
OLD.bench`` loads the bundle of the old netlist from the active store
and merges; the hypothesis differentials in
``tests/core/test_incremental.py`` pin the merged ``pair_records`` byte
for byte against full fresh runs (staged and streaming alike).

The incremental path always executes on the staged machinery — the
streaming pipeline produces byte-identical records (PR 6), so a
streaming prior run and a staged incremental run compose freely; peak
memory follows the staged path for the re-decided subset only.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from repro.circuit.netlist import Circuit
from repro.circuit.structhash import (
    capture_cone_hashes,
    launch_cone_hashes,
)
from repro.circuit.topology import FFPair
from repro.core.pipeline import (
    AnalysisContext,
    DecisionStage,
    DetectorOptions,
    Pipeline,
    PipelineState,
    RandomFilterStage,
    TopologyStage,
    _emit_pair,
    hazard_flagged,
    make_hazard_checker,
)
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

    Execution-shape options (workers, streaming, chunking, lane packing,
    the launch-prefix cache) are excluded — prior PRs pin their record
    byte-identity.  Simulation options are excluded too: the random
    filter reruns fresh on every incremental pass.  When a
    globally-sensitive feature is on (learned tables, SCOAP, the
    SAT/BDD engines) the circuit's structural hash is mixed in, so any
    edit invalidates every prior record.
    """
    parts = [
        f"frames={frames}",
        f"engine={options.search_engine}",
        f"backtrack={options.backtrack_limit}",
        f"static_learning={options.static_learning}",
        f"implication_db={options.implication_db}",
        f"scoap={options.scoap_guidance}",
    ]
    globally_sensitive = (
        options.static_learning
        or options.implication_db
        or options.scoap_guidance
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
    when the hazard stage ran.
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
    return {
        "circuit": circuit.name,
        "engine": result.engine,
        "frames": frames,
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
# The incremental stage.
# ----------------------------------------------------------------------
class IncrementalStage:
    """Topology → random-sim → inherit-by-cone-hash → decide the rest.

    A composite :class:`~repro.core.pipeline.PipelineStage` that reuses
    the staged topology/random-filter/decision machinery and inherits
    matching prior decide records between the filter and the decision
    stage.  Result assembly, sorting and the trace envelope come from
    :class:`~repro.core.pipeline.Pipeline` as usual.
    """

    name = "incremental"

    def __init__(self, bundle: dict[str, object], frames: int = 2) -> None:
        self.bundle = bundle
        self.frames = frames

    def run(self, ctx: AnalysisContext, state: PipelineState) -> None:
        TopologyStage().run(ctx, state)
        RandomFilterStage(self.frames).run(ctx, state)
        survivors = list(state.pairs)

        fingerprint = options_fingerprint(
            ctx.options, ctx.circuit, self.frames
        )
        prior_records: dict[tuple[str, str], dict[str, object]] = {}
        if self.bundle.get("fingerprint") == fingerprint and (
            self.bundle.get("frames") == self.frames
        ):
            for record in self.bundle.get("records", []):  # type: ignore[union-attr]
                prior_records[(record["source"], record["sink"])] = record

        launch = launch_cone_hashes(ctx.circuit, self.frames)
        capture = capture_cone_hashes(ctx.circuit, self.frames)
        names = ctx.circuit.names
        inherited: list[tuple[FFPair, dict[str, object]]] = []
        fresh: list[FFPair] = []
        for pair in survivors:
            record = prior_records.get(
                (names[pair.source], names[pair.sink])
            )
            if (
                record is not None
                and record["stage"] in _DECIDE_STAGES
                and record["launch"] == launch[pair.source]
                and record["capture"] == capture[pair.sink]
            ):
                inherited.append((pair, record))
            else:
                fresh.append(pair)

        # Decide only the changed subset; DecisionStage handles serial/
        # parallel dispatch, counters and trace events unchanged.
        state.pairs = fresh
        before = len(state.results)
        DecisionStage().run(ctx, state)
        fresh_results = state.results[before:]

        # Materialize inherited records; zero CPU charged to their stage.
        for pair, record in inherited:
            result = PairResult(
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
                    for case in record["cases"]  # type: ignore[union-attr]
                ],
            )
            state.results.append(result)
            stats = state.stats[result.stage]
            if result.classification is Classification.MULTI_CYCLE:
                stats.multi_cycle += 1
            elif result.classification is Classification.SINGLE_CYCLE:
                stats.single_cycle += 1
            else:
                stats.undecided += 1
            _emit_pair(ctx, state, result, 0.0, engine=state.engine)

        self._hazard(ctx, state, fresh_results, inherited)

        state.incremental = {
            "survivors": len(survivors),
            "inherited": len(inherited),
            "re_decided": len(fresh),
        }
        ctx.emit("incremental", fingerprint=fingerprint[:16],
                 **state.incremental)
        state.pairs = []

    # ------------------------------------------------------------------
    def _hazard(
        self,
        ctx: AnalysisContext,
        state: PipelineState,
        fresh_results: list[PairResult],
        inherited: list[tuple[FFPair, dict[str, object]]],
    ) -> None:
        """Hazard-check fresh MC pairs; inherit verdicts where options match."""
        mode = ctx.options.hazard_check
        state.hazard_mode = mode
        if mode == "off":
            return
        candidates = [
            r for r in fresh_results
            if r.classification is Classification.MULTI_CYCLE
        ]
        flagged: list[FFPair] = []
        verdicts: list[PairHazardVerdict] = []
        checked = len(candidates)
        by_pair = {
            (r.pair.source, r.pair.sink): r for r in state.results
        }
        if self.bundle.get("hazard_fingerprint") == hazard_fingerprint(
            ctx.options
        ):
            for pair, record in inherited:
                if Classification(record["classification"]) is not (
                    Classification.MULTI_CYCLE
                ):
                    continue
                if mode == "exact":
                    kind = record.get("hazard_verdict")
                    if kind is None:
                        # Pre-verdict bundle format: re-check the pair.
                        candidates.append(by_pair[(pair.source, pair.sink)])
                        checked += 1
                        continue
                    from repro.analysis.hazard_exact import (
                        verdict_flags_pair,
                    )

                    verdict = PairHazardVerdict(
                        pair,
                        HazardVerdictKind(kind),
                        "inherited",
                        delay_safe=record.get("hazard_delay_safe"),  # type: ignore[arg-type]
                    )
                    verdicts.append(verdict)
                    checked += 1
                    if verdict_flags_pair(verdict):
                        flagged.append(pair)
                    continue
                checked += 1
                if record.get("hazard_flagged"):
                    flagged.append(pair)
        else:
            # Prior run used different hazard options (or none): its
            # verdicts do not apply, so inherited MC pairs re-check.
            for pair, record in inherited:
                if Classification(record["classification"]) is (
                    Classification.MULTI_CYCLE
                ):
                    candidates.append(by_pair[(pair.source, pair.sink)])
                    checked += 1
        started = ctx.clock()
        checker = None
        if candidates:
            checker = make_hazard_checker(ctx, mode)
            results = checker.check_pairs(candidates)
            if mode == "exact":
                verdicts.extend(results)
            flagged.extend(hazard_flagged(mode, results))
        flagged.sort(key=lambda p: (p.source, p.sink))
        state.hazard_flagged_pairs = flagged
        state.hazard_flagged = len(flagged)
        state.hazard_checked = checked
        event: dict = dict(
            mode=mode,
            checked=checked,
            flagged=len(flagged),
            lanes=getattr(checker, "lanes_evaluated", 0),
            batches=getattr(checker, "batches_evaluated", 0),
            seconds=round(ctx.clock() - started, 6),
        )
        if mode == "exact":
            state.hazard_verdicts = sorted(
                verdicts, key=lambda v: (v.pair.source, v.pair.sink)
            )
            if checker is not None:
                state.hazard_exact = checker.summary()
            else:
                from repro.analysis.hazard_exact import empty_exact_summary

                state.hazard_exact = empty_exact_summary()
            event["exact"] = state.hazard_exact
        ctx.emit("hazard_stage", **event)


def incremental_pipeline(
    bundle: dict[str, object], frames: int = 2
) -> Pipeline:
    """A pipeline running the incremental stage over a prior bundle."""
    return Pipeline([IncrementalStage(bundle, frames=frames)])


def incremental_detect(
    circuit: Circuit,
    options: DetectorOptions | None = None,
    bundle: dict[str, object] | None = None,
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
    from repro.analysis.lint import enforce
    from repro.store.runtime import resolve_cache_dir, store_enabled

    options = options or DetectorOptions()
    enforce(circuit, options.lint)
    ctx = AnalysisContext(circuit, options, tracer=tracer, progress=progress)
    cache_dir = resolve_cache_dir(options.cache_dir)
    with store_enabled(cache_dir, options.cache_max_bytes) as store:
        result = incremental_pipeline(bundle or {}).run(ctx)
        if store is not None:
            save_result_bundle(store, result, options)
    return result
