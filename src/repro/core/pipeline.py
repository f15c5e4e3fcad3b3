"""The detection executor: the paper's flow as one launch-group fold.

The paper's Section 4.1 flow — topology → random simulation → per-pair
decision — runs here as a single fold over *launch groups* (the pairs
sharing one launching flip-flop).  :func:`detect` is the only executor;
the detector, the incremental ECO path and the k-cycle detector all call
it:

1. **Topology** never builds the pair list.  The connected relation
   lives in the packed sink-reach matrix
   (:func:`~repro.circuit.topology.sink_reach`, built in fixed-size
   source blocks above a size threshold) and is enumerated one launching
   FF at a time by :func:`~repro.circuit.topology.iter_launch_groups`.
2. **Random simulation** is one global pass over the packed pair matrix
   (:func:`~repro.core.random_filter.random_filter_packed`): the paper's
   quiet-round stopping rule depends on the whole alive set.
3. **Decide.**  Each group's simulation survivors — minus the pairs an
   incremental run inherits by cone hash (:mod:`repro.core.incremental`)
   — queue up across consecutive groups and are cut by
   :func:`~repro.core.workqueue.launch_units` into units that never split
   a launch group (only an oversized group is sliced, in parallel runs).
   A serial run settles each unit with one ``decide_group`` call, units
   sized to fill one packed implication closure; ``workers > 1`` submits
   the same kind of units to the work-stealing pool
   (:mod:`repro.core.workqueue`) under ``options.max_pairs_in_flight``.
4. **Hazard** validation (optional, Section 5) runs on the multi-cycle
   results of every folded unit.

The decision procedure is pluggable (:mod:`repro.core.deciders`), every
analyzed pair emits a structured trace event (:mod:`repro.core.trace`),
each launch group emits a ``launch_group`` progress event once all its
pairs are folded, and ``run_end`` reports the seconds of the four phases.
Per-pair state exists only between a group's enumeration and its fold, so
peak memory is bounded by the packed matrices plus the final records.
``pair_records`` are byte-identical for every worker count and unit size.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterator, NamedTuple, Sequence

import numpy as np

from repro.circuit.netlist import Circuit
from repro.circuit.timeframe import TimeFrameExpansion, expand_cached
from repro.circuit.topology import (
    FFPair,
    iter_launch_groups,
    launch_group_stats,
    sink_reach,
)
from repro.core.deciders import PairDecider, create_decider
from repro.core.hazard import HazardChecker
from repro.core.random_filter import random_filter_packed
from repro.core.result import (
    Classification,
    DetectionResult,
    Disagreement,
    PairHazardVerdict,
    PairResult,
    Stage,
    StageStats,
)
from repro.core.sensitization import mode_from_flag
from repro.core.ternary_hazard import TernaryHazardChecker
from repro.core.trace import ProgressFn, Tracer
from repro.core.workqueue import (
    WorkStealingPool,
    decide_unit,
    launch_units,
    split_threshold,
)
from repro.logic.bitsim import BitSimulator

if TYPE_CHECKING:
    from repro.core.incremental import Inheritance

#: accepted ``hazard_check`` modes.
HAZARD_MODES = ("off", "ternary", "sensitize", "cosensitize", "exact")

#: the phases whose seconds ``run_end`` reports, in run order.
PHASES = ("topology", "random-sim", "decide", "hazard")


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
    #: max logical rounds packed into one wide simulation pass (the word
    #: axis); results are identical for every value, 1 disables batching.
    sim_round_batch: int = 8
    #: minimum pairs to decide before a ``workers > 1`` run actually
    #: shards; below it the run decides in-process, because pool and
    #: dispatch overhead would dominate.
    parallel_threshold: int = 128
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
    #: selects nothing: every run is the one launch-group fold of
    #: :func:`detect`.  Still validated ("auto", "on" or "off"; anything
    #: else raises ``ValueError``) because existing callers pass it — the
    #: benchmark workloads in ``perfbench/workloads.py`` build
    #: ``DetectorOptions(streaming="on")``.
    streaming: str = "auto"
    #: cap on pairs submitted to the worker pool but not yet folded
    #: (bounds parent-side memory on huge circuits).
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

    def __post_init__(self) -> None:
        if self.streaming not in ("auto", "on", "off"):
            raise ValueError(f"unknown streaming mode {self.streaming!r}")
        if self.backplane not in ("auto", "on", "off"):
            raise ValueError(
                f"unknown backplane mode {self.backplane!r} "
                "(DetectorOptions.backplane must be 'auto', 'on' or 'off')"
            )


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
    #: cached bit simulators keyed by (words, circuit version).
    _simulators: dict[tuple[int, int], BitSimulator] = field(
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
        key = (words, self.circuit.version)
        sim = self._simulators.get(key)
        if sim is None:
            sim = BitSimulator(self.circuit, words)
            self._simulators[key] = sim
        return sim

    def decision_pool(
        self,
        decider: PairDecider,
        expansion: TimeFrameExpansion,
        shared: Any = None,
        publish: Callable[[], tuple[Any, Any, Any]] | None = None,
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

    def emit(self, event: str, **fields: Any) -> None:
        """Forward one trace event to the tracer, if any."""
        if self.tracer is not None:
            self.tracer.emit(event, **fields)


def _auto_chunk_size(num_pairs: int, workers: int) -> int:
    """Parallel unit size: ~4 units per worker, capped for low latency.

    Small enough that a slow unit cannot idle the other workers for
    long, large enough that dispatch overhead stays negligible.
    """
    return max(1, min(64, -(-num_pairs // (workers * 4))))


def packed_summary(session: dict[str, int] | None) -> dict[str, int] | None:
    """Extract the packed-implication block from session counter totals.

    The decision session reports its lane-packing counters as
    ``packed_*`` keys (present only when packing is enabled, summed
    across units by :func:`merge_session_stats`); this strips the
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


def publish_backplane(
    ctx: AnalysisContext, expansion: TimeFrameExpansion, shared: Any
) -> tuple[Any, Any, Any]:
    """Publish the decide-stage artifacts into shared memory (best-effort).

    Returns ``(backplane, worker_expansion, worker_shared)`` for the
    pool spawn: with a successful publish the expansion travels in the
    block (workers get ``None`` and attach), and an
    :class:`~repro.analysis.implication_db.ImplicationDB` shared table
    rides along the same way; anything else — mode "off", a non-DB
    shared payload, or a publish failure — keeps the pickled path.
    """
    options = ctx.options
    if options.backplane == "off":
        return None, expansion, shared
    try:
        from repro.analysis.implication_db import ImplicationDB
        from repro.atpg.packed_implication import packed_plan
        from repro.circuit.csr import csr_arrays
        from repro.core.session import PACKED_AUTO_MIN_NODES
        from repro.logic.simplan import compiled_plan
        from repro.store.backplane import publish

        comb = expansion.comb
        artifacts: list[tuple[str, Any]] = [
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


def backplane_summary(pool: WorkStealingPool) -> dict[str, Any] | None:
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


def load_gate_delays(options: DetectorOptions, circuit: Circuit) -> Any:
    """Load the exact-mode delay sidecar named by the options, if any."""
    if options.hazard_delays is None:
        return None
    from pathlib import Path

    from repro.sta.delays import GateDelays

    return GateDelays.load(Path(options.hazard_delays), circuit)


def make_hazard_checker(ctx: AnalysisContext, mode: str) -> Any:
    """The checker of one ``hazard_check`` mode on the context's expansion.

    Every checker answers ``check_pairs(pair_results)``: reports for the
    ternary and path-search modes, verdicts for ``exact``.  The checkers
    run in-process on the context's cached 2-frame expansion — the same
    object the deciders used, so no re-expansion happens.
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


def hazard_flagged(mode: str, results: Sequence[Any]) -> list[FFPair]:
    """Pairs that one mode's ``check_pairs`` results keep flagged."""
    if mode == "exact":
        from repro.analysis.hazard_exact import verdict_flags_pair

        return [v.pair for v in results if verdict_flags_pair(v)]
    return [r.pair_result.pair for r in results if r.has_potential_hazard]


def _pair_key(item: Any) -> tuple[int, int]:
    pair = item if isinstance(item, FFPair) else item.pair
    return pair.source, pair.sink


class _Group(NamedTuple):
    """One launch group, partitioned for the fold."""

    source: int
    #: connected sinks of the group (before any filtering).
    size: int
    #: pairs the random filter refuted.
    dropped: list[FFPair]
    #: results an incremental run inherited from its prior bundle.
    inherited: list[PairResult]
    #: pairs left for the decide units.
    fresh: list[FFPair]


class _Fold:
    """One detection run: the fold's accumulators and its four phases."""

    def __init__(
        self,
        ctx: AnalysisContext,
        decider: PairDecider,
        frames: int,
        inherit: Inheritance | None,
    ) -> None:
        self.ctx = ctx
        self.decider = decider
        self.frames = frames
        self.inherit = inherit
        self.results: list[PairResult] = []
        self.stats = {stage: StageStats() for stage in Stage}
        self.connected = 0
        self.learned = 0
        self.session: dict[str, int] | None = None
        self.disagreements: list[Disagreement] = []
        self.backplane: dict[str, Any] | None = None
        self.phases = dict.fromkeys(PHASES, 0.0)
        #: launch groups not yet reported, in order, with their pairs
        #: still queued for decide (keyed by launching FF).
        self.open_groups: deque[list[int]] = deque()
        self.pending_by_source: dict[int, list[int]] = {}
        self.groups_total = 0
        self.groups_folded = 0
        self.hazard_checker: Any = None
        self.hazard_upto = 0
        self.hazard_checked = 0
        self.hazard_flagged: list[FFPair] = []
        self.hazard_verdicts: list[PairHazardVerdict] = []
        self.hazard_exact: dict[str, float | int] | None = None

    # ------------------------------------------------------------------
    # Phases 1 and 2: topology and the random filter.
    # ------------------------------------------------------------------
    def topology(self) -> np.ndarray:
        """The connected pair matrix (sink rows × source bits)."""
        ctx = self.ctx
        include_self = ctx.options.include_self_loops
        reach = sink_reach(ctx.circuit)
        num_dffs = len(reach.dffs)
        alive = np.array(reach.rows, dtype=np.uint64)
        if num_dffs and not include_self:
            diag = np.arange(num_dffs)
            alive[diag, diag // 64] &= ~(
                np.uint64(1) << (diag % 64).astype(np.uint64)
            )
        self.groups_total, self.connected = launch_group_stats(
            ctx.circuit, include_self
        )
        ctx.emit(
            "stream_topology",
            groups=self.groups_total,
            pairs=self.connected,
            blocked=reach.blocked,
        )
        return alive

    def random_sim(self, alive: np.ndarray) -> tuple[np.ndarray, int]:
        """``(survivor matrix, survivor count)`` after the random filter."""
        ctx = self.ctx
        options = ctx.options
        if not options.use_random_sim or not self.connected:
            return alive, self.connected
        started = ctx.clock()
        report = random_filter_packed(
            ctx.circuit,
            alive,
            frames=self.frames,
            words=options.sim_words,
            max_rounds=options.sim_max_rounds,
            seed=options.sim_seed,
            sim=ctx.bit_simulator(options.sim_words),
            round_batch=options.sim_round_batch,
        )
        seconds = ctx.clock() - started
        ctx.emit(
            "random_sim",
            round_batch=options.sim_round_batch,
            frames=self.frames,
            rounds=report.rounds,
            patterns=report.patterns,
            dropped=report.dropped,
            seconds=round(seconds, 6),
            patterns_per_sec=round(report.patterns / seconds) if seconds else 0,
        )
        self.stats[Stage.SIMULATION].cpu_seconds += seconds
        return report.alive, report.initial - report.dropped

    # ------------------------------------------------------------------
    # Phase 3: decide, one unit at a time.
    # ------------------------------------------------------------------
    def groups(self, survivors: np.ndarray) -> Iterator[_Group]:
        """Every launch group, partitioned by the filter and inheritance."""
        circuit = self.ctx.circuit
        dffs = sink_reach(circuit).dffs
        row_of = np.zeros(circuit.num_nodes, dtype=np.intp)
        row_of[np.asarray(dffs, dtype=np.intp)] = np.arange(len(dffs))
        for group in iter_launch_groups(
            circuit, self.ctx.options.include_self_loops
        ):
            k = int(row_of[group.source])
            bits = survivors[row_of[group.sinks], k // 64] >> np.uint64(k % 64)
            alive = (bits & np.uint64(1)).astype(bool)
            source = group.source
            kept = [FFPair(source, s) for s in group.sinks[alive].tolist()]
            dropped = [FFPair(source, s) for s in group.sinks[~alive].tolist()]
            inherited: list[PairResult] = []
            if self.inherit is not None:
                inherited, kept = self.inherit.split(kept)
            yield _Group(source, len(group.sinks), dropped, inherited, kept)

    def decide(self, survivors: np.ndarray, survivor_count: int) -> None:
        """Fold every group, deciding its fresh pairs in launch units.

        The one unit-forming loop of the executor: fresh pairs queue up
        across consecutive groups and are cut into launch-aligned units;
        a serial run decides each unit in place, a parallel run submits
        it to the pool (draining while the in-flight cap is exceeded).
        """
        ctx = self.ctx
        options = ctx.options
        groups: Iterator[_Group] | list[_Group] = self.groups(survivors)
        to_decide = survivor_count
        if self.inherit is not None:
            # The serial/parallel choice needs the re-decide count.
            groups = list(groups)
            to_decide = sum(len(group.fresh) for group in groups)
        workers = max(1, options.workers)
        threshold = max(2, options.parallel_threshold)
        parallel = workers > 1 and to_decide >= threshold
        if workers > 1 and to_decide:
            ctx.emit(
                "decision_exec",
                mode="parallel" if parallel else "serial-fallback",
                workers=workers,
                pairs=to_decide,
                threshold=threshold,
            )
        pool: WorkStealingPool | None = None
        if parallel:
            size = _auto_chunk_size(to_decide, workers)
            split: int | None = split_threshold(size)
            max_in_flight = max(size, options.max_pairs_in_flight)
            pool = self.spawn_pool()
        else:
            from repro.atpg.packed_implication import MAX_LANES

            # One unit fills one packed closure (four lanes per pair).
            size, split, max_in_flight = MAX_LANES // 4, None, 0
        units = in_flight = 0
        prepared = False

        def drain(pool: WorkStealingPool) -> None:
            nonlocal in_flight
            done = pool.next_result()
            in_flight -= self.fold_unit(done.decided, done.flags, done.stats)

        def dispatch(unit: list[FFPair]) -> None:
            nonlocal units, in_flight, prepared
            units += 1
            if pool is None:
                if not prepared:
                    self.decider.prepare(ctx)
                    prepared = True
                self.fold_unit(*decide_unit(self.decider, unit, ctx.clock))
                return
            while in_flight and in_flight + len(unit) > max_in_flight:
                drain(pool)
            pool.submit(units - 1, unit)
            in_flight += len(unit)

        pending: list[FFPair] = []
        for group in groups:
            self.open_group(group)
            pending.extend(group.fresh)
            if len(pending) >= size:
                cut = launch_units(pending, size, split)
                pending = cut.pop() if len(cut[-1]) < size else []
                for unit in cut:
                    dispatch(unit)
            self.retire_groups()
        for unit in launch_units(pending, size, split):
            dispatch(unit)
        while pool is not None and pool.pending:
            drain(pool)
        self.check_hazards()
        self.retire_groups()

        if prepared:
            self.learned = getattr(self.decider, "learned_implications", 0)
        if pool is not None:
            ctx.emit(
                "decision_queue",
                workers=pool.workers,
                units=units,
                unit_pairs=size,
                split=split,
                max_pairs_in_flight=max_in_flight,
                per_worker=pool.worker_summary(),
            )
            self.backplane = backplane_summary(pool)
            if self.backplane is not None:
                ctx.emit("backplane", **self.backplane)

    def spawn_pool(self) -> WorkStealingPool:
        """The run's worker pool, with any parent-computed shared table."""
        ctx = self.ctx
        decider = self.decider
        expansion = ctx.expansion(getattr(decider, "frames", 2))
        shared = None
        shared_fn = getattr(decider, "prepare_shared", None)
        if shared_fn is not None:
            shared = shared_fn(ctx)
        # The learned-implication count is the parent's: the table is
        # computed once here and shipped to every worker.
        if shared is not None:
            from repro.atpg.learning import count_learned

            self.learned = count_learned(shared)
        return ctx.decision_pool(
            decider, expansion, shared=shared,
            publish=lambda: publish_backplane(ctx, expansion, shared),
        )

    def add_result(
        self, result: PairResult, seconds: float, engine: str | None
    ) -> None:
        """Fold one settled pair: counters, trace event, progress."""
        self.results.append(result)
        stats = self.stats[result.stage]
        if result.classification is Classification.MULTI_CYCLE:
            stats.multi_cycle += 1
        elif result.classification is Classification.SINGLE_CYCLE:
            stats.single_cycle += 1
        else:
            stats.undecided += 1
        stats.cpu_seconds += seconds
        ctx = self.ctx
        names = ctx.circuit.names
        record: dict[str, Any] = {
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
            ctx.progress(len(self.results), self.connected, record)

    def open_group(self, group: _Group) -> None:
        """Fold a group's settled pairs and queue it until decided."""
        for pair in group.dropped:
            self.add_result(
                PairResult(pair, Classification.SINGLE_CYCLE, Stage.SIMULATION),
                0.0, None,
            )
        for result in group.inherited:
            self.add_result(result, 0.0, self.decider.name)
        entry = [group.source, group.size, len(group.dropped), len(group.fresh)]
        self.open_groups.append(entry)
        self.pending_by_source[group.source] = entry

    def fold_unit(
        self,
        decided: Sequence[tuple[PairResult, float]],
        flags: Sequence[Disagreement],
        stats: dict[str, int] | None,
    ) -> int:
        """Fold one decided unit, hazard-check it; returns its pair count."""
        self.session = merge_session_stats(self.session, stats)
        self.disagreements.extend(flags)
        for result, seconds in decided:
            self.add_result(result, seconds, self.decider.name)
            self.pending_by_source[result.pair.source][3] -= 1
        self.check_hazards()
        self.retire_groups()
        return len(decided)

    def retire_groups(self) -> None:
        """Emit ``launch_group`` for every leading group fully folded."""
        names = self.ctx.circuit.names
        while self.open_groups and not self.open_groups[0][3]:
            source, size, dropped, _ = self.open_groups.popleft()
            del self.pending_by_source[source]
            self.ctx.emit(
                "launch_group",
                group_index=self.groups_folded,
                groups_total=self.groups_total,
                source=names[source],
                pairs=size,
                dropped=dropped,
                folded=len(self.results),
            )
            self.groups_folded += 1

    # ------------------------------------------------------------------
    # Phase 4: hazard validation of every folded batch.
    # ------------------------------------------------------------------
    def check_hazards(self) -> None:
        """Hazard-check the multi-cycle results folded since the last call.

        Inherited pairs adopt their prior verdict when the prior run used
        the same hazard options (see
        :meth:`repro.core.incremental.Inheritance.prior_hazard`); every
        other multi-cycle pair goes to the mode's checker.
        """
        ctx = self.ctx
        mode = ctx.options.hazard_check
        if mode == "off":
            return
        started = ctx.clock()
        batch = self.results[self.hazard_upto:]
        self.hazard_upto = len(self.results)
        candidates: list[PairResult] = []
        for result in batch:
            if result.classification is not Classification.MULTI_CYCLE:
                continue
            self.hazard_checked += 1
            prior = (
                self.inherit.prior_hazard(result.pair, mode)
                if self.inherit is not None else None
            )
            if prior is None:
                candidates.append(result)
                continue
            flagged, verdict = prior
            if verdict is not None:
                self.hazard_verdicts.append(verdict)
            if flagged:
                self.hazard_flagged.append(result.pair)
        if candidates:
            if self.hazard_checker is None:
                self.hazard_checker = make_hazard_checker(ctx, mode)
            checked = self.hazard_checker.check_pairs(candidates)
            if mode == "exact":
                self.hazard_verdicts.extend(checked)
            self.hazard_flagged.extend(hazard_flagged(mode, checked))
        self.phases["hazard"] += ctx.clock() - started

    def hazard_totals(self) -> None:
        """Close out the run's hazard totals and emit ``hazard_stage``."""
        mode = self.ctx.options.hazard_check
        if mode == "off":
            return
        self.hazard_flagged.sort(key=_pair_key)
        checker = self.hazard_checker
        event: dict[str, Any] = dict(
            mode=mode,
            checked=self.hazard_checked,
            flagged=len(self.hazard_flagged),
            lanes=getattr(checker, "lanes_evaluated", 0),
            batches=getattr(checker, "batches_evaluated", 0),
            seconds=round(self.phases["hazard"], 6),
        )
        if mode == "exact":
            from repro.analysis.hazard_exact import empty_exact_summary

            self.hazard_verdicts.sort(key=_pair_key)
            # No checked pair at all is a trivially complete pass.
            self.hazard_exact = (
                checker.summary() if checker is not None
                else empty_exact_summary()
            )
            event["exact"] = self.hazard_exact
        self.ctx.emit("hazard_stage", **event)

    # ------------------------------------------------------------------
    # The whole fold.
    # ------------------------------------------------------------------
    def run(self) -> None:
        ctx = self.ctx
        options = ctx.options
        if options.hazard_check not in HAZARD_MODES:
            raise ValueError(
                f"unknown hazard_check mode {options.hazard_check!r}"
            )
        started = ctx.clock()
        alive = self.topology()
        self.phases["topology"] = ctx.clock() - started
        started = ctx.clock()
        survivors, survivor_count = self.random_sim(alive)
        self.phases["random-sim"] = ctx.clock() - started
        started = ctx.clock()
        if self.inherit is not None:
            self.inherit.prepare(ctx, self.frames)
        self.decide(survivors, survivor_count)
        self.phases["decide"] = (
            ctx.clock() - started - self.phases["hazard"]
        )

        engine = self.decider.name
        db_info = getattr(self.decider, "db_info", None)
        if db_info is not None:
            ctx.emit("implication_db", engine=engine, **db_info)
        if self.session is not None:
            ctx.emit("decision_session", engine=engine, **self.session)
        packed = packed_summary(self.session)
        if packed is not None:
            ctx.emit(
                "packed_implication",
                engine=engine,
                mode=options.packed_implication,
                **packed,
            )
        self.disagreements.sort(key=_pair_key)
        names = ctx.circuit.names
        for disagreement in self.disagreements:
            ctx.emit(
                "disagreement",
                source=names[disagreement.pair.source],
                sink=names[disagreement.pair.sink],
                **{
                    disagreement.primary_engine: disagreement.primary.value,
                    disagreement.secondary_engine: disagreement.secondary.value,
                },
            )
        self.hazard_totals()
        if self.inherit is not None:
            ctx.emit(
                "incremental",
                fingerprint=self.inherit.fingerprint[:16],
                **self.inherit.summary(),
            )


def detect(
    ctx: AnalysisContext,
    decider: str | PairDecider | None = None,
    frames: int = 2,
    inherit: Inheritance | None = None,
) -> DetectionResult:
    """Run the detection fold over ``ctx.circuit``.

    ``decider`` is a registry name or an unprepared decider instance
    (default: ``options.search_engine``).  ``frames=2`` is the MC
    condition; larger values give the k-cycle variant (pass the matching
    k-frame decider).  ``inherit`` makes the run incremental.  This is
    also the run envelope: ``run_start``/``run_end`` events (``run_end``
    carries the per-phase seconds), artifact-store counter deltas, the
    pair-ordered result, and the worker pool's shutdown.
    """
    from repro.store.runtime import active_store

    if frames < 2:
        raise ValueError("detection needs at least 2 frames")
    if decider is None:
        decider = ctx.options.search_engine
    if isinstance(decider, str):
        decider = create_decider(decider)
    started = ctx.clock()
    store = active_store()
    store_before = store.stats() if store is not None else None
    ctx.emit(
        "run_start",
        circuit=ctx.circuit.name,
        engine=ctx.options.search_engine,
        workers=ctx.options.workers,
    )
    fold = _Fold(ctx, decider, frames, inherit)
    try:
        fold.run()
    finally:
        # The persistent worker pool is scoped to one run.
        ctx.close()
    fold.results.sort(key=_pair_key)
    cache_stats: dict[str, int] | None = None
    if store is not None and store_before is not None:
        cache_stats = {
            key: value - store_before.get(key, 0)
            for key, value in store.stats().items()
        }
        ctx.emit("cache", dir=str(store.root), **cache_stats)
    result = DetectionResult(
        circuit=ctx.circuit,
        connected_pairs=fold.connected,
        pair_results=fold.results,
        stats=fold.stats,
        total_seconds=ctx.clock() - started,
        learned_implications=fold.learned,
        engine=decider.name,
        disagreements=fold.disagreements,
        decision_session=fold.session,
        implication_db=getattr(decider, "db_info", None),
        packed_implication=packed_summary(fold.session),
        hazard_mode=ctx.options.hazard_check,
        hazard_checked=fold.hazard_checked,
        hazard_flagged=len(fold.hazard_flagged),
        hazard_flagged_pairs=fold.hazard_flagged,
        hazard_verdicts=fold.hazard_verdicts,
        hazard_exact=fold.hazard_exact,
        cache=cache_stats,
        incremental=inherit.summary() if inherit is not None else None,
        backplane=fold.backplane,
    )
    ctx.emit(
        "run_end",
        circuit=ctx.circuit.name,
        engine=decider.name,
        connected_pairs=fold.connected,
        multi_cycle=len(result.multi_cycle_pairs),
        single_cycle=len(result.single_cycle_pairs),
        undecided=len(result.undecided_pairs),
        disagreements=len(fold.disagreements),
        phases={name: round(s, 6) for name, s in fold.phases.items()},
        seconds=round(result.total_seconds, 6),
    )
    return result
