"""Staged pair-analysis pipeline: the paper's flow as composable parts.

The paper's Section 4.1 flow — topology → random simulation → per-pair
decision — used to be hard-coded inside ``MultiCycleDetector.run()``.
Here it is a :class:`Pipeline` of :class:`PipelineStage` objects running
over an :class:`AnalysisContext`, so that

* the decision procedure is pluggable (:mod:`repro.core.deciders` —
  implication/ATPG, SAT, BDD, or a cross-checking pair of engines),
* surviving pairs can be sharded across a persistent pool of ``workers``
  processes whose initializer prepares each worker's engines exactly
  once from the shared time-frame expansion; small deterministic chunks
  keep workers busy, results merge byte-identical to serial, and tiny
  pair lists fall back to in-process serial automatically,
* every stage boundary and every analyzed pair emits a structured
  trace event (:mod:`repro.core.trace`) instead of ad-hoc timing code.

The detector, k-cycle detector and reporting layers all build their
pipelines from these stages; ``MultiCycleDetector`` is now a thin shell
around :func:`default_pipeline`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Protocol, Sequence

from repro.circuit.netlist import Circuit
from repro.circuit.timeframe import TimeFrameExpansion, expand_cached
from repro.circuit.topology import FFPair, connected_ff_pairs
from repro.core.deciders import PairDecider, create_decider
from repro.core.hazard import HazardChecker
from repro.core.random_filter import random_filter, random_filter_k
from repro.core.sensitization import mode_from_flag
from repro.core.ternary_hazard import TernaryHazardChecker
from repro.core.workqueue import (
    WorkStealingPool,
    launch_units,
    split_threshold,
)
from repro.logic.bitsim import BitSimulator
from repro.core.result import (
    Classification,
    DetectionResult,
    Disagreement,
    PairHazardVerdict,
    PairResult,
    Stage,
    StageStats,
)
from repro.core.trace import ProgressFn, Tracer


@dataclass
class DetectorOptions:
    """Tuning knobs for the pipeline (paper defaults)."""

    #: 64-bit words per random-simulation round (64*words patterns).
    sim_words: int = 4
    #: hard cap on simulation rounds.
    sim_max_rounds: int = 256
    #: random seed for the simulation stage (results are deterministic).
    sim_seed: int = 2002
    #: skip the random-simulation stage entirely (ablation).
    use_random_sim: bool = True
    #: ATPG backtrack limit; the paper used 50 (more for a few circuits).
    backtrack_limit: int = 50
    #: pre-compute SOCRATES-style global implications before ATPG.
    static_learning: bool = False
    #: use the compiled global implication database
    #: (:mod:`repro.analysis.implication_db`) as the deciders' learned
    #: table; built once per netlist version, transitively closed, and
    #: shipped to decision workers.  Takes precedence over
    #: ``static_learning`` when both are set.
    implication_db: bool = False
    #: structural lint policy applied before the pipeline runs:
    #: "off" (classic first-error validation), "warn" (full lint, reject
    #: errors, surface warnings), "strict" (reject warnings too).  The
    #: lint pass only validates — verdicts of an accepted circuit are
    #: identical across all three modes.
    lint: str = "off"
    #: analyse (FF, FF) self-loop pairs (the SAT baseline of [9] skipped them).
    include_self_loops: bool = True
    #: decision engine, by registry name (``repro.core.deciders``):
    #: "dalg" (paper's choice), "podem", "scoap", "sat", "bdd",
    #: "cross-check".
    search_engine: str = "dalg"
    #: SCOAP-guided decision ordering in the dalg search (ablation).
    scoap_guidance: bool = False
    #: share launch-assumption implications across same-source pairs in
    #: the decision session; disabling re-derives the full premise per
    #: case (ablation — verdicts are identical either way).
    launch_prefix: bool = True
    #: bit-parallel implication pre-pass in the decision session: "auto"
    #: (enabled above :data:`repro.core.session.PACKED_AUTO_MIN_NODES`
    #: expanded nodes), "on", or "off".  Up to 64 ``(pair, a, b)`` cases
    #: share one packed closure per uint64 word; cases needing a
    #: backtrack search fall back to the scalar engine, so verdicts and
    #: ``pair_records`` are byte-identical in every mode.
    packed_implication: str = "auto"
    #: worker processes for the decision stage (1 = in-process serial).
    workers: int = 1
    #: zero-copy shared-memory backplane for parallel decision workers:
    #: "auto"/"on" publish the expansion, CSR views, SimPlan, packed plan
    #: and implication DB once into ``multiprocessing.shared_memory`` so
    #: workers attach instead of rebuilding; "off" ships pickled
    #: arguments as before.  Verdicts and pair records are byte-identical
    #: in every mode; publishing is best-effort (a failure falls back to
    #: the pickled path).
    backplane: str = "auto"
    #: simulation evaluator: "compiled" (levelized batched plan, default)
    #: or "python" (the reference per-node loop).  Both are bit-identical.
    sim_plan: str = "compiled"
    #: max logical rounds packed into one wide simulation pass (the word
    #: axis); results are identical for every value, 1 disables batching.
    sim_round_batch: int = 8
    #: minimum surviving pairs before the decision stage actually shards;
    #: below it a ``workers > 1`` run falls back to in-process serial,
    #: because pool/dispatch overhead would dominate.
    parallel_threshold: int = 128
    #: pairs per chunk dispatched to the worker pool (0 = automatic:
    #: enough chunks to keep every worker busy several times over).
    chunk_pairs: int = 0
    #: hazard validation of detected multi-cycle pairs (Section 5):
    #: "off" (default), "ternary" (bit-parallel Eichelberger simulation),
    #: "sensitize" or "cosensitize" (static path sensitization), or
    #: "exact" (both bounds plus a SAT decision of every disagreeing
    #: pair — see ``docs/hazards.md``).  Pair classifications and records
    #: are identical either way — the stage only annotates the result
    #: with flagged pairs (and, for "exact", per-pair verdicts).
    hazard_check: str = "off"
    #: backtrack limit for the hazard stage's witness/path searches.
    hazard_backtrack_limit: int = 200
    #: conflict limit per SAT solve of the exact hazard decision; hitting
    #: it demotes the pair to the conservative "glitch-possible".
    hazard_conflict_limit: int = 100_000
    #: path of a per-gate min/max delay sidecar JSON (see
    #: :mod:`repro.sta.delays`); with "exact" mode it re-filters
    #: glitch-proven pairs to those whose pulse survives the delays.
    hazard_delays: str | None = None
    #: streaming launch-group execution: "auto" (selected for circuits
    #: above :data:`repro.core.streaming.STREAMING_AUTO_DFFS` flip-flops),
    #: "on", or "off".  The streaming pipeline folds topology →
    #: random-sim → decide → hazard one launch group at a time with
    #: bounded peak memory; pair records are byte-identical either way.
    streaming: str = "auto"
    #: streaming only: cap on pairs submitted to the decision queue but
    #: not yet folded (bounds parent-side memory on huge circuits).
    max_pairs_in_flight: int = 8192
    #: directory of the content-addressed on-disk artifact store
    #: (:mod:`repro.store`); ``None`` falls back to the
    #: ``REPRO_CACHE_DIR`` environment variable, and an empty result
    #: disables persistence (in-memory caches only).  Derived artifacts
    #: (SimPlan, reach matrices, implication DB, lint/sweep reports,
    #: pair-record bundles) round-trip through the store transparently;
    #: verdicts are identical with or without it.
    cache_dir: str | None = None
    #: size bound of the artifact store in bytes (LRU eviction beyond it).
    cache_max_bytes: int = 1 << 30


@dataclass
class AnalysisContext:
    """Everything a pipeline run needs: circuit, options, caches, clock.

    The context memoises k-frame expansions (via the circuit-level cache
    in :mod:`repro.circuit.timeframe`) and carries the optional tracer
    and progress callback.  ``clock`` is injectable so tests can produce
    fully deterministic traces.
    """

    circuit: Circuit
    options: DetectorOptions = field(default_factory=DetectorOptions)
    clock: Callable[[], float] = time.perf_counter
    tracer: Tracer | None = None
    progress: ProgressFn | None = None
    #: expansions adopted from a parent process (parallel workers).
    _adopted: dict[int, TimeFrameExpansion] = field(
        default_factory=dict, repr=False
    )
    #: cached bit simulators keyed by (words, plan mode, circuit version).
    _simulators: dict[tuple, BitSimulator] = field(
        default_factory=dict, repr=False
    )
    #: persistent decision-worker pool (created lazily, closed with the run).
    _pool: WorkStealingPool | None = field(default=None, repr=False)

    def expansion(self, frames: int = 2) -> TimeFrameExpansion:
        """The shared ``frames``-frame expansion of the circuit (cached)."""
        adopted = self._adopted.get(frames)
        if adopted is not None:
            return adopted
        return expand_cached(self.circuit, frames)

    def adopt_expansion(self, expansion: TimeFrameExpansion) -> None:
        """Install an expansion computed elsewhere (worker processes)."""
        self._adopted[expansion.frames] = expansion

    def bit_simulator(self, words: int | None = None) -> BitSimulator:
        """A reusable :class:`BitSimulator` for this context.

        The simulator (buffers included) is cached, so every random-filter
        round and every stage asking for the same word width shares one
        instance; the compiled plan behind it is additionally cached on
        the circuit itself.
        """
        if words is None:
            words = self.options.sim_words
        key = (words, self.options.sim_plan, self.circuit.version)
        sim = self._simulators.get(key)
        if sim is None:
            sim = BitSimulator(self.circuit, words, plan=self.options.sim_plan)
            self._simulators[key] = sim
        return sim

    def decision_pool(
        self,
        decider: PairDecider,
        expansion: TimeFrameExpansion,
        shared=None,
        publish=None,
    ) -> WorkStealingPool:
        """The run's persistent worker pool, created on first use.

        Workers build their :class:`AnalysisContext` and prepare the
        decider once, from the spawn arguments; ``shared`` (e.g. the
        parent-computed static-learning table) ships with them.
        Subsequent work units only carry pair lists.  Asking for a
        different decider/expansion/worker count replaces the pool.

        ``publish`` is the backplane hook: a zero-arg callable returning
        ``(backplane, worker_expansion, worker_shared)``, invoked only
        when a new pool is actually spawned (reusing a pool must not
        publish — and leak — another shared-memory block).  When it
        returns a backplane, workers receive its handle and attach
        instead of deserializing the pickled expansion/shared payloads.
        """
        workers = max(1, self.options.workers)
        key = (
            id(self.circuit),
            self.circuit.version,
            decider.name,
            expansion.frames,
            workers,
        )
        if self._pool is not None and self._pool.key != key:
            self._pool.shutdown()
            self._pool = None
        if self._pool is None:
            backplane = None
            worker_expansion, worker_shared = expansion, shared
            if publish is not None:
                backplane, worker_expansion, worker_shared = publish()
            self._pool = WorkStealingPool(
                self.circuit, self.options, decider, worker_expansion,
                workers, key, shared=worker_shared, backplane=backplane,
            )
        return self._pool

    def close(self) -> None:
        """Release run-scoped resources (the worker pool, if any)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def emit(self, event: str, **fields) -> None:
        """Forward one trace event to the tracer, if any."""
        if self.tracer is not None:
            self.tracer.emit(event, **fields)


@dataclass
class PipelineState:
    """Mutable run state threaded through the stages."""

    pairs: list[FFPair] = field(default_factory=list)
    results: list[PairResult] = field(default_factory=list)
    stats: dict[Stage, StageStats] = field(
        default_factory=lambda: {stage: StageStats() for stage in Stage}
    )
    connected_pairs: int = 0
    learned_implications: int = 0
    engine: str = "dalg"
    disagreements: list[Disagreement] = field(default_factory=list)
    #: decision-session counter totals (None for non-session engines).
    session: dict[str, int] | None = None
    #: implication-DB stats block (None when the DB was not enabled).
    implication_db: dict[str, float | int] | None = None
    #: packed-implication totals (None when lane packing was disabled).
    packed_implication: dict[str, int] | None = None
    #: hazard-stage outcome (mode "off" when the stage was disabled).
    hazard_mode: str = "off"
    hazard_checked: int = 0
    hazard_flagged: int = 0
    hazard_flagged_pairs: list[FFPair] = field(default_factory=list)
    #: exact mode only: per-pair three-way verdicts and pass counters.
    hazard_verdicts: list[PairHazardVerdict] = field(default_factory=list)
    hazard_exact: dict[str, float | int] | None = None
    #: incremental re-analysis stats (set by the incremental stage only).
    incremental: dict[str, int] | None = None
    #: shared-memory backplane summary (None when none was published).
    backplane: dict | None = None


class PipelineStage(Protocol):
    """One step of the pipeline; reads and mutates the run state."""

    name: str

    def run(self, ctx: AnalysisContext, state: PipelineState) -> None: ...


def _emit_pair(
    ctx: AnalysisContext,
    state: PipelineState,
    result: PairResult,
    seconds: float,
    engine: str | None,
) -> None:
    """Emit the per-pair trace event and progress callback."""
    names = ctx.circuit.names
    record = {
        "stage": result.stage.value,
        "source": names[result.pair.source],
        "sink": names[result.pair.sink],
        "classification": result.classification.value,
        "seconds": round(seconds, 6),
    }
    if engine is not None:
        record["engine"] = engine
    if result.cases:
        record["cases"] = len(result.cases)
        record["decisions"] = sum(c.decisions for c in result.cases)
        record["backtracks"] = sum(c.backtracks for c in result.cases)
    if result.metrics:
        record.update(result.metrics)
    ctx.emit("pair", **record)
    if ctx.progress is not None:
        ctx.progress(len(state.results), state.connected_pairs, record)


class TopologyStage:
    """Step 1: keep only topologically connected FF pairs."""

    name = "topology"

    def run(self, ctx: AnalysisContext, state: PipelineState) -> None:
        state.pairs = connected_ff_pairs(
            ctx.circuit, include_self_loops=ctx.options.include_self_loops
        )
        state.connected_pairs = len(state.pairs)


class RandomFilterStage:
    """Step 2: drop pairs whose MC condition is refuted by simulation.

    ``frames=2`` is the paper's MC condition (:func:`random_filter`);
    larger values select the k-cycle variant (:func:`random_filter_k`).
    The filter's dropped pairs are recorded directly — no key-set
    reconstruction — as guaranteed single-cycle results.
    """

    name = "random-sim"

    def __init__(self, frames: int = 2) -> None:
        if frames < 2:
            raise ValueError("random filtering needs at least 2 frames")
        self.frames = frames

    def run(self, ctx: AnalysisContext, state: PipelineState) -> None:
        options = ctx.options
        if not options.use_random_sim or not state.pairs:
            return
        started = ctx.clock()
        sim = ctx.bit_simulator(options.sim_words)
        if self.frames == 2:
            report = random_filter(
                ctx.circuit,
                state.pairs,
                words=options.sim_words,
                max_rounds=options.sim_max_rounds,
                seed=options.sim_seed,
                sim=sim,
                round_batch=options.sim_round_batch,
            )
        else:
            report = random_filter_k(
                ctx.circuit,
                state.pairs,
                self.frames,
                words=options.sim_words,
                max_rounds=options.sim_max_rounds,
                seed=options.sim_seed,
                sim=sim,
                round_batch=options.sim_round_batch,
            )
        seconds = ctx.clock() - started
        ctx.emit(
            "random_sim",
            plan=options.sim_plan,
            round_batch=options.sim_round_batch,
            frames=self.frames,
            rounds=report.rounds,
            patterns=report.patterns,
            dropped=report.dropped,
            seconds=round(seconds, 6),
            patterns_per_sec=round(report.patterns / seconds) if seconds else 0,
        )
        stats = state.stats[Stage.SIMULATION]
        for pair in report.dropped_pairs:
            result = PairResult(pair, Classification.SINGLE_CYCLE, Stage.SIMULATION)
            state.results.append(result)
            stats.single_cycle += 1
            _emit_pair(ctx, state, result, 0.0, engine=None)
        state.pairs = report.survivors
        stats.cpu_seconds += seconds


def _split_chunks(pairs: Sequence[FFPair], workers: int) -> list[list[FFPair]]:
    """Contiguous, deterministic shards — at most ``workers``, none empty."""
    workers = max(1, min(workers, len(pairs)))
    size, extra = divmod(len(pairs), workers)
    chunks: list[list[FFPair]] = []
    start = 0
    for index in range(workers):
        end = start + size + (1 if index < extra else 0)
        if end > start:
            chunks.append(list(pairs[start:end]))
        start = end
    return chunks


def _chunk_pairs(pairs: Sequence[FFPair], size: int) -> list[list[FFPair]]:
    """Contiguous chunks of at most ``size`` pairs, in input order."""
    size = max(1, size)
    return [list(pairs[start:start + size]) for start in range(0, len(pairs), size)]


def _auto_chunk_size(num_pairs: int, workers: int) -> int:
    """Default chunk size: ~4 chunks per worker, capped for low latency.

    Small enough that a slow chunk cannot idle the other workers for
    long, large enough that dispatch overhead stays negligible.
    """
    return max(1, min(64, -(-num_pairs // (workers * 4))))


def _launch_chunks(pairs: Sequence[FFPair], size: int) -> list[list[FFPair]]:
    """Contiguous chunks of ~``size`` pairs that never split a launch group.

    Consecutive same-source pairs (one launch group) always land in the
    same chunk, so the decision session's prefix cache keeps working
    inside each worker; a group larger than ``size`` becomes its own
    chunk.  Ordering is preserved, which keeps the merged results
    byte-identical to serial.  The splitting variant used by the
    work-stealing queue is :func:`repro.core.workqueue.launch_units`.
    """
    return launch_units(pairs, size, split=None)


def packed_summary(session: dict[str, int] | None) -> dict[str, int] | None:
    """Extract the packed-implication block from session counter totals.

    The decision session reports its lane-packing counters as
    ``packed_*`` keys (present only when packing is enabled, summed
    across workers by :func:`merge_session_stats`); this strips the
    prefix into the block stored on the result and emitted as the
    ``packed_implication`` trace event.  ``None`` when packing was off.
    """
    if not session or "packed_lanes" not in session:
        return None
    prefix = "packed_"
    return {
        key[len(prefix):]: value
        for key, value in session.items()
        if key.startswith(prefix)
    }


def merge_session_stats(
    total: dict[str, int] | None, delta: dict[str, int] | None
) -> dict[str, int] | None:
    """Fold one work unit's session-counter delta into running totals.

    Counters sum across units; ``trail_high_water`` is each worker's
    running maximum (reported absolutely) and merges by max — together
    this makes the merged totals independent of unit→worker placement.
    """
    if delta is None:
        return total
    if total is None:
        return dict(delta)
    for key, value in delta.items():
        if key == "trail_high_water":
            total[key] = max(total.get(key, 0), value)
        else:
            total[key] = total.get(key, 0) + value
    return total


def publish_backplane(ctx: AnalysisContext, expansion: TimeFrameExpansion,
                      shared) -> tuple:
    """Publish the decide-stage artifacts into shared memory (best-effort).

    Returns ``(backplane, worker_expansion, worker_shared)`` for the
    pool spawn: with a successful publish the expansion travels in the
    block (workers get ``None`` and attach), and an
    :class:`~repro.analysis.implication_db.ImplicationDB` shared table
    rides along the same way; anything else — mode "off", a non-DB
    shared payload, or a publish failure — keeps the pickled path.
    """
    options = ctx.options
    mode = getattr(options, "backplane", "auto")
    if mode not in ("auto", "on", "off"):
        raise ValueError(f"unknown backplane mode {mode!r}")
    if mode == "off":
        return None, expansion, shared
    try:
        from repro.analysis.implication_db import ImplicationDB
        from repro.atpg.packed_implication import packed_plan
        from repro.circuit.csr import csr_arrays
        from repro.core.session import PACKED_AUTO_MIN_NODES
        from repro.logic.simplan import compiled_plan
        from repro.store.backplane import publish

        comb = expansion.comb
        artifacts = [
            ("expansion", expansion),
            ("csr-arrays", csr_arrays(comb)),
            ("simplan", compiled_plan(comb)),
        ]
        packed = options.packed_implication
        if packed == "on" or (
            packed == "auto" and comb.num_nodes >= PACKED_AUTO_MIN_NODES
        ):
            artifacts.append(("packed-implication", packed_plan(comb)))
        worker_shared = shared
        if isinstance(shared, ImplicationDB):
            artifacts.append(("implication-db", shared))
            worker_shared = None
        return publish(artifacts), None, worker_shared
    except Exception:
        # Publishing is an optimization only: exhausted /dev/shm or a
        # codec error degrades to pickled shipping, never to a failure.
        return None, expansion, shared


def backplane_summary(pool: WorkStealingPool) -> dict | None:
    """Fold the workers' prepare reports into the backplane trace block.

    ``None`` when no backplane was published (mode "off", publish
    failure, or a serial run).  Must run before the pool shuts down.
    """
    if pool.backplane is None:
        return None
    ready = pool.wait_ready()
    return {
        "kinds": list(pool.backplane.kinds),
        "bytes": pool.backplane.nbytes,
        "workers": pool.workers,
        "ready": len(ready),
        "attached": sum(1 for entry in ready if entry["adopted"]),
        "spawn_seconds_max": round(
            max((entry["seconds"] for entry in ready), default=0.0), 6
        ),
        "worker_store_hits": sum(e["store_hits"] for e in ready),
        "worker_store_misses": sum(e["store_misses"] for e in ready),
        "worker_rss_max_kb": max(
            (entry["rss_kb"] for entry in ready), default=0
        ),
    }


class DecisionStage:
    """Steps 3+4: settle every surviving pair with a decision engine.

    The engine is either given explicitly (a registry name or an
    unprepared decider instance) or taken from
    ``options.search_engine``.  With ``options.workers > 1`` the pairs
    are sharded across processes; each worker rebuilds the decider from
    the shared expansion and the shards are merged in input order, so
    the classification outcome is byte-identical to a serial run.
    """

    name = "decide"

    def __init__(self, decider: str | PairDecider | None = None) -> None:
        self._decider_spec = decider

    def _resolve(self, ctx: AnalysisContext) -> PairDecider:
        spec = self._decider_spec
        if spec is None:
            spec = ctx.options.search_engine
        if isinstance(spec, str):
            return create_decider(spec)
        return spec

    def run(self, ctx: AnalysisContext, state: PipelineState) -> None:
        decider = self._resolve(ctx)
        state.engine = decider.name
        pairs = state.pairs
        workers = max(1, ctx.options.workers)
        if not pairs:
            state.pairs = []
            return

        threshold = max(2, ctx.options.parallel_threshold)
        go_parallel = workers > 1 and len(pairs) >= threshold
        if workers > 1:
            ctx.emit(
                "decision_exec",
                mode="parallel" if go_parallel else "serial-fallback",
                workers=workers,
                pairs=len(pairs),
                threshold=threshold,
            )
        if go_parallel:
            decided, learned, disagreements, session, backplane = (
                self._run_parallel(ctx, decider, pairs, workers)
            )
            state.backplane = backplane
        else:
            decider.prepare(ctx)
            group_fn = getattr(decider, "decide_group", None)
            if group_fn is not None:
                decided = list(group_fn(pairs))
            else:
                decided = []
                for pair in pairs:
                    started = ctx.clock()
                    result = decider.decide(pair)
                    decided.append((result, ctx.clock() - started))
            learned = getattr(decider, "learned_implications", 0)
            disagreements = list(getattr(decider, "disagreements", []))
            stats_fn = getattr(decider, "session_stats", None)
            session = stats_fn() if stats_fn is not None else None

        for result, seconds in decided:
            state.results.append(result)
            stats = state.stats[result.stage]
            if result.classification is Classification.MULTI_CYCLE:
                stats.multi_cycle += 1
            elif result.classification is Classification.SINGLE_CYCLE:
                stats.single_cycle += 1
            else:
                stats.undecided += 1
            stats.cpu_seconds += seconds
            _emit_pair(ctx, state, result, seconds, engine=decider.name)
        state.learned_implications = learned
        state.session = session
        # ``prepare_shared`` (parallel) and ``prepare`` (serial) both run
        # on this instance in the parent, so the stats block is here
        # regardless of execution mode.
        state.implication_db = getattr(decider, "db_info", None)
        if state.implication_db is not None:
            ctx.emit("implication_db", engine=decider.name, **state.implication_db)
        if session is not None:
            ctx.emit("decision_session", engine=decider.name, **session)
        state.packed_implication = packed_summary(session)
        if state.packed_implication is not None:
            ctx.emit(
                "packed_implication",
                engine=decider.name,
                mode=ctx.options.packed_implication,
                **state.packed_implication,
            )
        state.disagreements.extend(disagreements)
        for disagreement in disagreements:
            names = ctx.circuit.names
            ctx.emit(
                "disagreement",
                source=names[disagreement.pair.source],
                sink=names[disagreement.pair.sink],
                **{
                    disagreement.primary_engine: disagreement.primary.value,
                    disagreement.secondary_engine: disagreement.secondary.value,
                },
            )
        state.pairs = []

    def _run_parallel(
        self,
        ctx: AnalysisContext,
        decider: PairDecider,
        pairs: Sequence[FFPair],
        workers: int,
    ):
        expansion = ctx.expansion(getattr(decider, "frames", 2))
        shared = None
        shared_fn = getattr(decider, "prepare_shared", None)
        if shared_fn is not None:
            shared = shared_fn(ctx)
        # The learned-implication count is the parent's: the table is
        # computed once here and shipped to every worker, so no chunk
        # result needs to carry it back.
        learned = 0
        if shared is not None:
            from repro.atpg.learning import count_learned

            learned = count_learned(shared)
        pool = ctx.decision_pool(
            decider, expansion, shared=shared,
            publish=lambda: publish_backplane(ctx, expansion, shared),
        )
        size = ctx.options.chunk_pairs or _auto_chunk_size(len(pairs), workers)
        units = launch_units(pairs, size, split=split_threshold(size))
        decided: list[tuple[PairResult, float]] = []
        disagreements: list[Disagreement] = []
        session: dict[str, int] | None = None
        for unit in pool.map_units(units):
            decided.extend(unit.decided)
            disagreements.extend(unit.flags)
            session = merge_session_stats(session, unit.stats)
        ctx.emit(
            "decision_queue",
            workers=pool.workers,
            units=len(units),
            unit_pairs=size,
            split=split_threshold(size),
            per_worker=pool.worker_summary(),
        )
        backplane = backplane_summary(pool)
        if backplane is not None:
            ctx.emit("backplane", **backplane)
        return decided, learned, disagreements, session, backplane


def load_gate_delays(options: DetectorOptions, circuit: Circuit):
    """Load the exact-mode delay sidecar named by the options, if any."""
    if options.hazard_delays is None:
        return None
    from pathlib import Path

    from repro.sta.delays import GateDelays

    return GateDelays.load(Path(options.hazard_delays), circuit)


def make_hazard_checker(ctx: AnalysisContext, mode: str):
    """The checker of one ``hazard_check`` mode on the context's expansion.

    Every checker answers ``check_pairs(pair_results)``: reports for the
    ternary and path-search modes, verdicts for ``exact``.
    """
    options = ctx.options
    if mode == "ternary":
        return TernaryHazardChecker(
            ctx.circuit,
            options.hazard_backtrack_limit,
            expansion=ctx.expansion(2),
            words=options.sim_words,
        )
    if mode in ("sensitize", "cosensitize"):
        return HazardChecker(
            ctx.circuit,
            mode_from_flag(mode),
            backtrack_limit=options.hazard_backtrack_limit,
            expansion=ctx.expansion(2),
        )
    if mode == "exact":
        from repro.analysis.hazard_exact import ExactHazardChecker

        return ExactHazardChecker(
            ctx.circuit,
            ctx.expansion(2),
            backtrack_limit=options.hazard_backtrack_limit,
            conflict_limit=options.hazard_conflict_limit,
            delays=load_gate_delays(options, ctx.circuit),
        )
    raise ValueError(f"unknown hazard_check mode {mode!r}")


def hazard_flagged(mode: str, results: Sequence) -> list[FFPair]:
    """Pairs that one mode's ``check_pairs`` results keep flagged."""
    if mode == "exact":
        from repro.analysis.hazard_exact import verdict_flags_pair

        return [v.pair for v in results if verdict_flags_pair(v)]
    return [r.pair_result.pair for r in results if r.has_potential_hazard]


class HazardStage:
    """Step 5 (optional): validate detected MC pairs against static hazards.

    Runs after the decision stage over the multi-cycle survivors only.
    ``options.hazard_check`` picks the condition: the bit-parallel ternary
    (Eichelberger) simulation check, a static (co-)sensitization path
    search, or the exact SAT-backed three-way classification (both bounds
    plus a CNF decision of every disagreeing pair — ``docs/hazards.md``);
    ``"off"`` makes the stage a no-op.  Classifications and
    :meth:`~repro.core.result.DetectionResult.pair_records` are never
    modified — flagged pairs are reported through the result's hazard
    counters (a flagged pair should not be timing-relaxed even though its
    settled-value MC condition holds), and exact mode additionally
    records per-pair safe / glitch-possible / glitch-proven verdicts.

    The checkers run in-process on the context's cached 2-frame expansion
    — the same object the deciders used, so no re-expansion happens; the
    ternary checker additionally packs every case witness into simulator
    lanes and settles all verdicts in a few compiled-plan sweeps.
    """

    name = "hazard"

    def run(self, ctx: AnalysisContext, state: PipelineState) -> None:
        mode = ctx.options.hazard_check
        state.hazard_mode = mode
        if mode == "off":
            return
        survivors = [
            r for r in state.results
            if r.classification is Classification.MULTI_CYCLE
        ]
        state.hazard_checked = len(survivors)
        started = ctx.clock()
        checker = make_hazard_checker(ctx, mode)
        results = checker.check_pairs(survivors)
        if mode == "exact":
            results.sort(key=lambda v: (v.pair.source, v.pair.sink))
            state.hazard_verdicts = results
            state.hazard_exact = checker.summary()
        flagged = sorted(
            hazard_flagged(mode, results), key=lambda p: (p.source, p.sink)
        )
        state.hazard_flagged_pairs = flagged
        state.hazard_flagged = len(flagged)
        event: dict = dict(
            mode=mode,
            checked=state.hazard_checked,
            flagged=state.hazard_flagged,
            lanes=getattr(checker, "lanes_evaluated", 0),
            batches=getattr(checker, "batches_evaluated", 0),
            seconds=round(ctx.clock() - started, 6),
        )
        if state.hazard_exact is not None:
            event["exact"] = state.hazard_exact
        ctx.emit("hazard_stage", **event)


class Pipeline:
    """A staged run over one circuit, producing a :class:`DetectionResult`."""

    def __init__(self, stages: Sequence[PipelineStage]) -> None:
        self.stages = list(stages)

    def run(self, ctx: AnalysisContext) -> DetectionResult:
        from repro.store.runtime import active_store

        started = ctx.clock()
        state = PipelineState()
        store = active_store()
        store_before = store.stats() if store is not None else None
        ctx.emit(
            "run_start",
            circuit=ctx.circuit.name,
            engine=ctx.options.search_engine,
            workers=ctx.options.workers,
            stages=[stage.name for stage in self.stages],
        )
        try:
            for stage in self.stages:
                stage_started = ctx.clock()
                pairs_in = len(state.pairs)
                ctx.emit("stage_start", stage=stage.name, pairs_in=pairs_in)
                stage.run(ctx, state)
                ctx.emit(
                    "stage_end",
                    stage=stage.name,
                    pairs_in=pairs_in,
                    pairs_out=len(state.pairs),
                    results=len(state.results),
                    seconds=round(ctx.clock() - stage_started, 6),
                )
        finally:
            # The persistent worker pool is scoped to one run.
            ctx.close()
        state.results.sort(key=lambda r: (r.pair.source, r.pair.sink))
        cache_stats: dict[str, int] | None = None
        if store is not None and store_before is not None:
            cache_stats = {
                key: value - store_before.get(key, 0)
                for key, value in store.stats().items()
            }
            ctx.emit("cache", dir=str(store.root), **cache_stats)
        result = DetectionResult(
            circuit=ctx.circuit,
            connected_pairs=state.connected_pairs,
            pair_results=state.results,
            stats=state.stats,
            total_seconds=ctx.clock() - started,
            learned_implications=state.learned_implications,
            engine=state.engine,
            disagreements=state.disagreements,
            decision_session=state.session,
            implication_db=state.implication_db,
            packed_implication=state.packed_implication,
            hazard_mode=state.hazard_mode,
            hazard_checked=state.hazard_checked,
            hazard_flagged=state.hazard_flagged,
            hazard_flagged_pairs=state.hazard_flagged_pairs,
            hazard_verdicts=state.hazard_verdicts,
            hazard_exact=state.hazard_exact,
            cache=cache_stats,
            incremental=state.incremental,
            backplane=state.backplane,
        )
        ctx.emit(
            "run_end",
            circuit=ctx.circuit.name,
            engine=state.engine,
            connected_pairs=state.connected_pairs,
            multi_cycle=len(result.multi_cycle_pairs),
            single_cycle=len(result.single_cycle_pairs),
            undecided=len(result.undecided_pairs),
            disagreements=len(state.disagreements),
            seconds=round(result.total_seconds, 6),
        )
        return result


def default_pipeline(decider: str | PairDecider | None = None) -> Pipeline:
    """The paper's three-stage flow with a pluggable decision engine,
    followed by the (default-off) hazard-validation stage."""
    return Pipeline([
        TopologyStage(),
        RandomFilterStage(),
        DecisionStage(decider),
        HazardStage(),
    ])
