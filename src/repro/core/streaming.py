"""Streaming launch-group execution: the pipeline with bounded memory.

The staged pipeline of :mod:`repro.core.pipeline` materializes every
connected FF pair up front and runs each stage over the full set — fine
up to a few thousand flip-flops, an O(FF²) wall beyond that.  The
:class:`StreamingStage` here runs the same four stages *launch group by
launch group*:

1. **Topology** never builds the pair list.  The connected relation
   lives in the packed sink-reach matrix
   (:func:`~repro.circuit.topology.sink_reach`, built in fixed-size
   source blocks above a size threshold) and is enumerated one launching
   FF at a time by
   :func:`~repro.circuit.topology.iter_launch_groups`.
2. **Random simulation** stays a single global pass — the paper's
   quiet-round stopping rule depends on the whole alive set, so a
   per-group filter would change stage attribution.  It runs over the
   packed pair matrix (:func:`~repro.core.random_filter.random_filter_packed`)
   sharing the exact super-round/RNG skeleton with the pair-list filter,
   which makes the dropped set bit-identical without any per-pair array.
3. **Decide** folds each launch group's survivors as soon as they are
   settled — in process, or via the work-stealing queue
   (:mod:`repro.core.workqueue`) with a cap on pairs in flight
   (``options.max_pairs_in_flight``).
4. **Hazard** validation (when enabled) runs per fold over the group's
   fresh multi-cycle results instead of a final full-set sweep.

Pair records, classification counters, session totals and hazard
counters are identical to the staged path — the differential tests in
``tests/core/test_streaming.py`` pin ``pair_records`` byte for byte.
What changes is the lifecycle: per-pair state exists only between a
group's enumeration and its fold, so peak memory is bounded by the
packed matrices plus the final per-pair records, never by intermediate
pair lists.  Each fold emits a ``launch_group`` trace event
(``group_index`` / ``groups_total`` / pairs folded so far), so long runs
show streaming progress instead of a silent decide stage.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.circuit.netlist import Circuit
from repro.circuit.topology import (
    FFPair,
    iter_launch_groups,
    launch_group_stats,
    sink_reach,
)
from repro.core.deciders import PairDecider, create_decider
from repro.core.pipeline import (
    AnalysisContext,
    DetectorOptions,
    Pipeline,
    PipelineState,
    _auto_chunk_size,
    _emit_pair,
    backplane_summary,
    hazard_flagged,
    make_hazard_checker,
    merge_session_stats,
    packed_summary,
    publish_backplane,
)
from repro.core.random_filter import random_filter_packed
from repro.core.result import (
    Classification,
    Disagreement,
    PairHazardVerdict,
    PairResult,
    Stage,
)
from repro.core.workqueue import launch_units, split_threshold

#: "auto" streaming selects the streaming pipeline at this many
#: flip-flops; below it the staged path's simplicity wins (and the
#: existing bench corpus keeps its stage-by-stage timings).
STREAMING_AUTO_DFFS = 600


def streaming_enabled(options: DetectorOptions, circuit: Circuit) -> bool:
    """Resolve ``options.streaming`` ("auto"/"on"/"off") for a circuit."""
    mode = options.streaming
    if mode == "on":
        return True
    if mode == "off":
        return False
    if mode != "auto":
        raise ValueError(f"unknown streaming mode {mode!r}")
    return len(circuit.dffs) >= STREAMING_AUTO_DFFS


def streaming_pipeline(
    decider: str | PairDecider | None = None, frames: int = 2
) -> Pipeline:
    """The paper's flow as one streaming launch-group stage."""
    return Pipeline([StreamingStage(decider, frames=frames)])


class StreamingStage:
    """Topology → random-sim → decide → hazard, one launch group at a time.

    A drop-in replacement for the four staged classes: it reads and
    fills the same :class:`~repro.core.pipeline.PipelineState` fields,
    so :class:`~repro.core.pipeline.Pipeline` result assembly (sorting,
    ``DetectionResult`` construction, trace envelope) is shared.
    ``frames=2`` is the MC condition; larger values give the k-cycle
    variant (pass the matching k-frame decider).
    """

    name = "stream"

    def __init__(
        self,
        decider: str | PairDecider | None = None,
        frames: int = 2,
    ) -> None:
        if frames < 2:
            raise ValueError("streaming analysis needs at least 2 frames")
        self._decider_spec = decider
        self.frames = frames

    def _resolve(self, ctx: AnalysisContext) -> PairDecider:
        spec = self._decider_spec
        if spec is None:
            spec = ctx.options.search_engine
        if isinstance(spec, str):
            return create_decider(spec)
        return spec

    # ------------------------------------------------------------------
    # Main flow.
    # ------------------------------------------------------------------
    def run(self, ctx: AnalysisContext, state: PipelineState) -> None:
        options = ctx.options
        circuit = ctx.circuit
        include_self = options.include_self_loops
        if options.hazard_check not in ("off", "ternary", "sensitize",
                                        "cosensitize", "exact"):
            raise ValueError(
                f"unknown hazard_check mode {options.hazard_check!r}"
            )

        # -- Topology: packed connected matrix, no pair list. ----------
        started = ctx.clock()
        reach = sink_reach(circuit)
        num_dffs = len(reach.dffs)
        alive = np.array(reach.rows, dtype=np.uint64)
        if num_dffs and not include_self:
            diag = np.arange(num_dffs)
            alive[diag, diag // 64] &= ~(
                np.uint64(1) << (diag % 64).astype(np.uint64)
            )
        groups_total, connected = launch_group_stats(circuit, include_self)
        state.connected_pairs = connected
        ctx.emit(
            "stream_topology",
            groups=groups_total,
            pairs=connected,
            blocked=reach.blocked,
            seconds=round(ctx.clock() - started, 6),
        )

        # -- Random simulation: one global pass on the packed matrix. --
        survivors = alive
        if options.use_random_sim and connected:
            sim_started = ctx.clock()
            sim = ctx.bit_simulator(options.sim_words)
            report = random_filter_packed(
                circuit,
                alive,
                frames=self.frames,
                words=options.sim_words,
                max_rounds=options.sim_max_rounds,
                seed=options.sim_seed,
                sim=sim,
                round_batch=options.sim_round_batch,
            )
            seconds = ctx.clock() - sim_started
            ctx.emit(
                "random_sim",
                plan=options.sim_plan,
                round_batch=options.sim_round_batch,
                frames=self.frames,
                rounds=report.rounds,
                patterns=report.patterns,
                dropped=report.dropped,
                seconds=round(seconds, 6),
                patterns_per_sec=(
                    round(report.patterns / seconds) if seconds else 0
                ),
            )
            state.stats[Stage.SIMULATION].cpu_seconds += seconds
            survivors = report.alive
            survivor_count = report.initial - report.dropped
        else:
            survivor_count = connected

        # -- Decide + hazard, folded per launch group. -----------------
        decider = self._resolve(ctx)
        state.engine = decider.name
        self._hazard_reset(ctx)
        workers = max(1, options.workers)
        threshold = max(2, options.parallel_threshold)
        go_parallel = workers > 1 and survivor_count >= threshold
        if workers > 1 and survivor_count:
            ctx.emit(
                "decision_exec",
                mode="parallel" if go_parallel else "serial-fallback",
                workers=workers,
                pairs=survivor_count,
                threshold=threshold,
            )
        dff_index = {dff: k for k, dff in enumerate(reach.dffs)}
        fold = _FoldState(groups_total=groups_total)
        if go_parallel:
            self._run_parallel(
                ctx, state, decider, survivors, dff_index, fold,
                survivor_count, workers,
            )
        else:
            self._run_serial(ctx, state, decider, survivors, dff_index, fold)

        # -- Run summary: session counters, DB stats, disagreements. ---
        state.learned_implications = fold.learned
        state.session = fold.session
        state.implication_db = getattr(decider, "db_info", None)
        if state.implication_db is not None:
            ctx.emit(
                "implication_db", engine=decider.name, **state.implication_db
            )
        if fold.session is not None:
            ctx.emit(
                "decision_session", engine=decider.name, **fold.session
            )
        state.packed_implication = packed_summary(fold.session)
        if state.packed_implication is not None:
            ctx.emit(
                "packed_implication",
                engine=decider.name,
                mode=options.packed_implication,
                **state.packed_implication,
            )
        fold.disagreements.sort(key=lambda d: (d.pair.source, d.pair.sink))
        state.disagreements.extend(fold.disagreements)
        names = circuit.names
        for disagreement in fold.disagreements:
            ctx.emit(
                "disagreement",
                source=names[disagreement.pair.source],
                sink=names[disagreement.pair.sink],
                **{
                    disagreement.primary_engine: disagreement.primary.value,
                    disagreement.secondary_engine: disagreement.secondary.value,
                },
            )
        self._hazard_finish(ctx, state)
        state.pairs = []

    # ------------------------------------------------------------------
    # Group partitioning and folding.
    # ------------------------------------------------------------------
    def _partition_group(
        self,
        survivors: np.ndarray,
        dff_index: dict[int, int],
        source: int,
        sinks: np.ndarray,
    ) -> tuple[list[FFPair], list[FFPair]]:
        """Split one launch group into (surviving, sim-dropped) pairs."""
        src_k = dff_index[source]
        word = src_k // 64
        bit = np.uint64(1) << np.uint64(src_k % 64)
        kept: list[FFPair] = []
        dropped: list[FFPair] = []
        for sink in sinks.tolist():
            if survivors[dff_index[sink], word] & bit:
                kept.append(FFPair(source, sink))
            else:
                dropped.append(FFPair(source, sink))
        return kept, dropped

    def _fold_dropped(
        self,
        ctx: AnalysisContext,
        state: PipelineState,
        dropped: list[FFPair],
    ) -> None:
        """Fold one group's simulation-refuted pairs into the result."""
        stats = state.stats[Stage.SIMULATION]
        for pair in dropped:
            result = PairResult(
                pair, Classification.SINGLE_CYCLE, Stage.SIMULATION
            )
            state.results.append(result)
            stats.single_cycle += 1
            _emit_pair(ctx, state, result, 0.0, engine=None)

    def _fold_decided(
        self,
        ctx: AnalysisContext,
        state: PipelineState,
        decided: Sequence[tuple[PairResult, float]],
        engine: str,
    ) -> None:
        """Fold one settled batch of decisions (and hazard-check it)."""
        fresh_mc: list[PairResult] = []
        for result, seconds in decided:
            state.results.append(result)
            stats = state.stats[result.stage]
            if result.classification is Classification.MULTI_CYCLE:
                stats.multi_cycle += 1
                fresh_mc.append(result)
            elif result.classification is Classification.SINGLE_CYCLE:
                stats.single_cycle += 1
            else:
                stats.undecided += 1
            stats.cpu_seconds += seconds
            _emit_pair(ctx, state, result, seconds, engine=engine)
        self._hazard_fold(ctx, state, fresh_mc)

    def _emit_group(
        self,
        ctx: AnalysisContext,
        state: PipelineState,
        fold: "_FoldState",
        source: int,
        pairs: int,
        dropped: int,
    ) -> None:
        """Per-launch-group progress event (streaming observability)."""
        index = fold.groups_folded
        fold.groups_folded += 1
        ctx.emit(
            "launch_group",
            group_index=index,
            groups_total=fold.groups_total,
            source=ctx.circuit.names[source],
            pairs=pairs,
            dropped=dropped,
            folded=len(state.results),
        )

    # ------------------------------------------------------------------
    # Serial execution.
    # ------------------------------------------------------------------
    def _run_serial(
        self,
        ctx: AnalysisContext,
        state: PipelineState,
        decider: PairDecider,
        survivors: np.ndarray,
        dff_index: dict[int, int],
        fold: "_FoldState",
    ) -> None:
        options = ctx.options
        prepared = False
        group_fn = None
        for group in iter_launch_groups(ctx.circuit,
                                        options.include_self_loops):
            kept, dropped = self._partition_group(
                survivors, dff_index, group.source, group.sinks
            )
            self._fold_dropped(ctx, state, dropped)
            if kept:
                if not prepared:
                    decider.prepare(ctx)
                    group_fn = getattr(decider, "decide_group", None)
                    prepared = True
                if group_fn is not None:
                    decided = list(group_fn(kept))
                else:
                    decided = []
                    for pair in kept:
                        started = ctx.clock()
                        decided.append(
                            (decider.decide(pair), ctx.clock() - started)
                        )
                self._fold_decided(ctx, state, decided, decider.name)
            self._emit_group(
                ctx, state, fold, group.source, len(group.sinks), len(dropped)
            )
        if prepared:
            fold.learned = getattr(decider, "learned_implications", 0)
            fold.disagreements = list(getattr(decider, "disagreements", []))
            stats_fn = getattr(decider, "session_stats", None)
            fold.session = stats_fn() if stats_fn is not None else None

    # ------------------------------------------------------------------
    # Parallel execution over the work-stealing queue.
    # ------------------------------------------------------------------
    def _run_parallel(
        self,
        ctx: AnalysisContext,
        state: PipelineState,
        decider: PairDecider,
        survivors: np.ndarray,
        dff_index: dict[int, int],
        fold: "_FoldState",
        survivor_count: int,
        workers: int,
    ) -> None:
        options = ctx.options
        expansion = ctx.expansion(getattr(decider, "frames", 2))
        shared = None
        shared_fn = getattr(decider, "prepare_shared", None)
        if shared_fn is not None:
            shared = shared_fn(ctx)
        if shared is not None:
            from repro.atpg.learning import count_learned

            fold.learned = count_learned(shared)
        pool = ctx.decision_pool(
            decider, expansion, shared=shared,
            publish=lambda: publish_backplane(ctx, expansion, shared),
        )
        size = options.chunk_pairs or _auto_chunk_size(survivor_count, workers)
        split = split_threshold(size)
        max_in_flight = max(size, options.max_pairs_in_flight)

        # unit index -> (group slot, pairs); group slot -> open units.
        next_unit = 0
        unit_group: dict[int, tuple[int, int]] = {}
        group_open: dict[int, list[int | tuple[int, int]]] = {}
        in_flight = 0
        units_total = 0

        def drain_one() -> None:
            nonlocal in_flight
            unit = pool.next_result()
            fold.session = merge_session_stats(fold.session, unit.stats)
            fold.disagreements.extend(unit.flags)
            self._fold_decided(ctx, state, unit.decided, decider.name)
            slot, pairs = unit_group.pop(unit.index)
            in_flight -= pairs
            entry = group_open[slot]
            entry[0] = int(entry[0]) - 1  # type: ignore[call-overload]
            if not entry[0]:
                source, group_pairs, group_dropped = entry[1]  # type: ignore[misc]
                del group_open[slot]
                self._emit_group(
                    ctx, state, fold, source, group_pairs, group_dropped
                )

        slot = 0
        for group in iter_launch_groups(ctx.circuit, options.include_self_loops):
            kept, dropped = self._partition_group(
                survivors, dff_index, group.source, group.sinks
            )
            self._fold_dropped(ctx, state, dropped)
            if not kept:
                self._emit_group(
                    ctx, state, fold, group.source, len(group.sinks),
                    len(dropped),
                )
                slot += 1
                continue
            units = launch_units(kept, size, split=split)
            group_open[slot] = [
                len(units),
                (group.source, len(group.sinks), len(dropped)),
            ]
            for unit in units:
                while in_flight and in_flight + len(unit) > max_in_flight:
                    drain_one()
                pool.submit(next_unit, unit)
                unit_group[next_unit] = (slot, len(unit))
                in_flight += len(unit)
                next_unit += 1
                units_total += 1
            slot += 1
        while unit_group:
            drain_one()
        ctx.emit(
            "decision_queue",
            workers=pool.workers,
            units=units_total,
            unit_pairs=size,
            split=split,
            max_pairs_in_flight=max_in_flight,
            per_worker=pool.worker_summary(),
        )
        state.backplane = backplane_summary(pool)
        if state.backplane is not None:
            ctx.emit("backplane", **state.backplane)

    # ------------------------------------------------------------------
    # Hazard validation, folded per group.
    # ------------------------------------------------------------------
    def _hazard_reset(self, ctx: AnalysisContext) -> None:
        self._hazard_checker: object | None = None
        self._hazard_seconds = 0.0
        self._hazard_flagged: list[FFPair] = []
        self._hazard_checked = 0
        self._hazard_verdicts: list[PairHazardVerdict] = []

    def _hazard_fold(
        self,
        ctx: AnalysisContext,
        state: PipelineState,
        fresh_mc: list[PairResult],
    ) -> None:
        """Check one fold's new multi-cycle results, accumulating totals."""
        mode = ctx.options.hazard_check
        if mode == "off" or not fresh_mc:
            return
        started = ctx.clock()
        checker = self._hazard_checker
        if checker is None:
            checker = self._hazard_checker = make_hazard_checker(ctx, mode)
        self._hazard_checked += len(fresh_mc)
        results = checker.check_pairs(fresh_mc)
        if mode == "exact":
            self._hazard_verdicts.extend(results)
        self._hazard_flagged.extend(hazard_flagged(mode, results))
        self._hazard_seconds += ctx.clock() - started

    def _hazard_finish(
        self, ctx: AnalysisContext, state: PipelineState
    ) -> None:
        """Close out the hazard totals and emit the stage event."""
        mode = ctx.options.hazard_check
        state.hazard_mode = mode
        if mode == "off":
            return
        flagged = sorted(
            self._hazard_flagged, key=lambda p: (p.source, p.sink)
        )
        state.hazard_flagged_pairs = flagged
        state.hazard_flagged = len(flagged)
        state.hazard_checked = self._hazard_checked
        checker = self._hazard_checker
        lanes = getattr(checker, "lanes_evaluated", 0) if checker else 0
        batches = getattr(checker, "batches_evaluated", 0) if checker else 0
        event: dict = dict(
            mode=mode,
            checked=self._hazard_checked,
            flagged=state.hazard_flagged,
            lanes=lanes,
            batches=batches,
            seconds=round(self._hazard_seconds, 6),
        )
        if mode == "exact":
            state.hazard_verdicts = sorted(
                self._hazard_verdicts,
                key=lambda v: (v.pair.source, v.pair.sink),
            )
            if checker is not None:
                state.hazard_exact = checker.summary()
            else:
                # No multi-cycle survivors: a trivially complete pass.
                from repro.analysis.hazard_exact import empty_exact_summary

                state.hazard_exact = empty_exact_summary()
            event["exact"] = state.hazard_exact
        ctx.emit("hazard_stage", **event)


class _FoldState:
    """Run-scoped accumulators shared by the serial and parallel folds."""

    def __init__(self, groups_total: int) -> None:
        self.groups_total = groups_total
        self.groups_folded = 0
        self.session: dict[str, int] | None = None
        self.disagreements: list[Disagreement] = []
        self.learned = 0
