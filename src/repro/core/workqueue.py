"""Work-stealing decision pool: persistent workers, one shared queue.

The decision stage used to shard surviving pairs into static chunks and
``ProcessPoolExecutor.map`` them — a straggler chunk (one hard launch
group) serialized the tail of every run.  Here the executor is a plain
work-stealing queue instead:

* ``workers`` persistent processes are spawned once per detection run;
  each builds its :class:`~repro.core.pipeline.AnalysisContext` and
  prepares its decider exactly once (the initializer arguments ship the
  circuit, options, unprepared decider, shared expansion and any
  pre-computed shared payload, exactly like the old pool initializer);
* work units — launch-group-aligned pair lists — go into one shared
  *buffered* task queue; idle workers *pull* whatever is next, so a
  slow unit only occupies the worker that took it while the rest drain
  the queue.  Both queues are :class:`multiprocessing.Queue` (feeder
  thread, unbounded buffer) so neither bulk submission nor bulky
  results can wedge on raw pipe capacity;
* results return on a shared result queue tagged with the unit index,
  the worker id and the unit's wall seconds; the caller folds them as
  they arrive and orders the merged records by pair, which keeps them
  byte-identical to a serial run regardless of which worker settled
  which unit.

Unit formation (:func:`launch_units`) never splits a launch group below
``split`` pairs, preserving the decision session's launch-prefix reuse
and its counter totals; groups *larger* than ``split`` are cut into
consecutive slices so one giant group cannot serialize the run.  A split
group re-derives its launch prefix once per slice — pair verdicts and
records are unchanged (the session's confluence argument), only the
``prefix_misses`` observability counter drifts upward.

Per-unit results carry the *deltas* of the worker-side session counters
(the decider persists across units), so the merged totals are
independent of unit→worker placement; ``trail_high_water`` merges by
maximum.
"""

from __future__ import annotations

import multiprocessing as mp
import time
import traceback
from dataclasses import replace
from multiprocessing.connection import wait
from typing import Any, Callable, NamedTuple, Sequence

from repro.circuit.topology import FFPair

#: a group larger than ``split_threshold(size)`` is sliced; the floor
#: keeps small test circuits (and their pinned counter totals) unsplit.
MIN_SPLIT_PAIRS = 128


class WorkUnit(NamedTuple):
    """One queue entry: a launch-group-aligned slice of the pair list."""

    index: int
    pairs: list[FFPair]


class UnitResult(NamedTuple):
    """One settled unit, tagged for ordered merging and telemetry."""

    index: int
    decided: list[Any]
    flags: list[Any]
    stats: dict[str, int] | None
    worker: int
    seconds: float


class _UnitFailure(NamedTuple):
    """A worker's unhandled exception, re-raised in the parent."""

    worker: int
    error: str


class _WorkerReady(NamedTuple):
    """One worker's prepare report, sent before its first unit result."""

    worker: int
    #: wall seconds from process entry to prepared decider.
    seconds: float
    #: backplane kinds the worker adopted (empty = rebuilt locally).
    adopted: tuple[str, ...]
    #: artifact-store hit/miss deltas during prepare (0/0 with no store).
    store_hits: int
    store_misses: int
    #: the worker's ``ru_maxrss`` after prepare, in KiB.
    rss_kb: int


def split_threshold(size: int) -> int:
    """Pairs above which one launch group is sliced into several units."""
    return max(4 * max(1, size), MIN_SPLIT_PAIRS)


def launch_units(
    pairs: Sequence[FFPair], size: int, split: int | None = None
) -> list[list[FFPair]]:
    """Contiguous work units of ~``size`` pairs, launch-group aligned.

    Consecutive same-source pairs (one launch group) stay in one unit so
    the decision session's prefix cache keeps working inside each
    worker.  A group larger than ``split`` (``None`` = never) is cut
    into consecutive slices of at most ``size`` pairs — the on-the-fly
    split that stops one giant group from serializing the run.
    Concatenating the units in order reproduces ``pairs`` exactly.
    """
    from repro.core.session import launch_runs

    size = max(1, size)
    units: list[list[FFPair]] = []
    current: list[FFPair] = []
    for start, end in launch_runs(pairs):
        group = list(pairs[start:end])
        if split is not None and len(group) > split:
            if current:
                units.append(current)
                current = []
            units.extend(
                group[lo: lo + size] for lo in range(0, len(group), size)
            )
            continue
        if current and len(current) + len(group) > size:
            units.append(current)
            current = []
        current.extend(group)
        if len(current) >= size:
            units.append(current)
            current = []
    if current:
        units.append(current)
    return units


def decide_unit(
    decider: Any,
    pairs: Sequence[FFPair],
    clock: Callable[[], float] = time.perf_counter,
) -> tuple[list[Any], list[Any], dict[str, int] | None]:
    """Settle one unit on a prepared decider: ``(decided, flags, stats)``.

    Shared by the queue workers and the serial executor; the decider
    persists across units, so disagreements and session counters are
    sliced/differenced against the pre-unit snapshot to keep the merge
    placement-independent (``trail_high_water`` is a running maximum and
    is reported absolutely, merged by max).  ``clock`` times deciders
    without ``decide_group``.
    """
    flags_before = len(getattr(decider, "disagreements", ()))
    stats_fn = getattr(decider, "session_stats", None)
    stats_before = stats_fn() if stats_fn is not None else None
    group_fn = getattr(decider, "decide_group", None)
    if group_fn is not None:
        decided = list(group_fn(pairs))
    else:
        decided = []
        for pair in pairs:
            started = clock()
            result = decider.decide(pair)
            decided.append((result, clock() - started))
    flags = list(getattr(decider, "disagreements", ()))[flags_before:]
    stats = None
    if stats_fn is not None:
        after = stats_fn()
        stats = {
            key: value - stats_before.get(key, 0)
            for key, value in after.items()
        }
        stats["trail_high_water"] = after["trail_high_water"]
    return decided, flags, stats


def _worker_main(
    worker_id: int,
    tasks: Any,
    results: Any,
    circuit: Any,
    options: Any,
    decider: Any,
    expansion: Any,
    shared: Any,
    backplane: Any = None,
) -> None:
    """Queue worker: prepare once, then pull units until the sentinel."""
    # Imported here, not at module top: the pipeline module imports this
    # one, and under the fork start method nothing else is needed before
    # the worker begins pulling.
    from repro.core.pipeline import AnalysisContext
    from repro.store.runtime import active_store

    prepare_started = time.perf_counter()
    store = active_store()
    store_before = store.stats() if store is not None else None
    adopted: tuple[str, ...] = ()
    attachment = None  # anchors the shared mapping for the process lifetime
    try:
        ctx = AnalysisContext(circuit, options)
        if backplane is not None:
            # Attach instead of rebuild; any failure (stale handle, shm
            # pressure, codec skew) falls back to the pickled arguments.
            try:
                from repro.store.backplane import AttachedBackplane

                attachment = AttachedBackplane(backplane)
                adopted_expansion = attachment.adopt(circuit)
                if adopted_expansion is not None:
                    expansion = adopted_expansion
                if shared is None:
                    shared = attachment.shared_learned
                adopted = attachment.kinds
            except Exception:
                attachment = None
                adopted = ()
        if expansion is not None:
            ctx.adopt_expansion(expansion)
        if shared is not None:
            adopt = getattr(decider, "adopt_shared", None)
            if adopt is not None:
                adopt(shared)
        decider.prepare(ctx)
    except Exception:
        results.put(_UnitFailure(worker_id, traceback.format_exc()))
        return
    store_hits = store_misses = 0
    if store is not None and store_before is not None:
        store_hits = store.hits - store_before["hits"]
        store_misses = store.misses - store_before["misses"]
    try:
        import resource

        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    except Exception:
        rss_kb = 0
    results.put(_WorkerReady(
        worker_id,
        time.perf_counter() - prepare_started,
        adopted,
        store_hits,
        store_misses,
        int(rss_kb),
    ))
    while True:
        task = tasks.get()
        if task is None:
            return
        started = time.perf_counter()
        try:
            decided, flags, stats = decide_unit(decider, task.pairs)
        except Exception:
            results.put(_UnitFailure(worker_id, traceback.format_exc()))
            return
        results.put(UnitResult(
            task.index, decided, flags, stats, worker_id,
            time.perf_counter() - started,
        ))


class WorkStealingPool:
    """Persistent decision workers pulling from one shared task queue.

    Created once per detection run (lazily, by
    :meth:`~repro.core.pipeline.AnalysisContext.decision_pool`).  Units
    are submitted with :meth:`submit` and collected — in completion
    order — with :meth:`next_result`.  The pool
    records per-unit ``(worker, seconds)`` telemetry for the
    ``decision_queue`` trace event.
    """

    def __init__(
        self,
        circuit: Any,
        options: Any,
        decider: Any,
        expansion: Any,
        workers: int,
        key: tuple,
        shared: Any = None,
        backplane: Any = None,
    ) -> None:
        self.key = key
        self.workers = workers
        #: parent-owned shared-memory backplane (unlinked at shutdown).
        self.backplane = backplane
        #: per-worker prepare reports (spawn seconds, adoption, RSS).
        self.ready_log: list[dict[str, Any]] = []
        self._ready_seen = 0
        self._stash: list[UnitResult] = []
        ctx = mp.get_context()
        # Buffered queues (feeder thread + unbounded deque), NOT
        # SimpleQueue: a SimpleQueue is a bare ~64 KiB pipe, and with
        # units submitted ahead of result draining the result pipe
        # fills, workers block writing, stop pulling tasks, the task
        # pipe fills and the parent blocks in submit() — a three-way
        # deadlock that first bit on a 10k-gate parallel run.  With
        # buffered queues both put() ends never block.
        self._tasks = ctx.Queue()
        self._results = ctx.Queue()
        self._pending = 0
        self.unit_log: list[dict[str, int | float]] = []
        self._procs = [
            ctx.Process(
                target=_worker_main,
                args=(
                    wid, self._tasks, self._results, circuit,
                    replace(options, workers=1), decider, expansion, shared,
                    backplane.handle if backplane is not None else None,
                ),
                daemon=True,
            )
            for wid in range(workers)
        ]
        for proc in self._procs:
            proc.start()

    @property
    def pending(self) -> int:
        """Units submitted but not yet collected."""
        return self._pending

    def submit(self, index: int, pairs: Sequence[FFPair]) -> None:
        """Enqueue one work unit; any idle worker may take it."""
        self._tasks.put(WorkUnit(index, list(pairs)))
        self._pending += 1

    def _record_ready(self, ready: _WorkerReady) -> None:
        self._ready_seen += 1
        self.ready_log.append({
            "worker": ready.worker,
            "seconds": round(ready.seconds, 6),
            "adopted": list(ready.adopted),
            "store_hits": ready.store_hits,
            "store_misses": ready.store_misses,
            "rss_kb": ready.rss_kb,
        })

    def _receive(self) -> Any:
        """The next result-queue message, or an error if a worker died.

        Waits on the result queue together with every worker's process
        sentinel, so a worker that dies without reporting (killed, out
        of memory, ``os._exit``) ends the run with an error naming it
        instead of leaving the parent blocked forever.  A message that
        is already queued is always taken first.
        """
        reader = self._results._reader
        sentinels = {proc.sentinel: wid for wid, proc in enumerate(self._procs)}
        ready = wait([reader, *sentinels])
        if reader in ready:
            return self._results.get()
        dead = min(sentinels[sentinel] for sentinel in ready)
        # The sentinel closes as the process exits, a moment before it
        # can be reaped; join so its exit code is known.
        self._procs[dead].join(timeout=5)
        code = self._procs[dead].exitcode
        pending = self._pending
        self.shutdown()
        raise RuntimeError(
            f"decision worker {dead} died (exit code {code}) with "
            f"{pending} work unit(s) pending"
        )

    def next_result(self) -> UnitResult:
        """Block for the next settled unit, in completion order."""
        if self._stash:
            outcome: Any = self._stash.pop(0)
        else:
            outcome = self._receive()
            while isinstance(outcome, _WorkerReady):
                self._record_ready(outcome)
                outcome = self._receive()
        if isinstance(outcome, _UnitFailure):
            self.shutdown()
            raise RuntimeError(
                f"decision worker {outcome.worker} failed:\n{outcome.error}"
            )
        self._pending -= 1
        self.unit_log.append({
            "unit": outcome.index,
            "pairs": len(outcome.decided),
            "worker": outcome.worker,
            "seconds": round(outcome.seconds, 6),
        })
        return outcome

    def wait_ready(self, timeout: float = 30.0) -> list[dict[str, Any]]:
        """Collect every worker's prepare report (best-effort, bounded).

        Unit results arriving while waiting are stashed for the next
        :meth:`next_result` call, so this is safe to call at any point;
        callers normally do so after the units drained, when the only
        outstanding messages are ready reports from idle workers.
        """
        import queue as queue_mod

        deadline = time.monotonic() + timeout
        while self._ready_seen < self.workers:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            try:
                outcome = self._results.get(timeout=remaining)
            except queue_mod.Empty:
                break
            if isinstance(outcome, _WorkerReady):
                self._record_ready(outcome)
            elif isinstance(outcome, _UnitFailure):
                self.shutdown()
                raise RuntimeError(
                    f"decision worker {outcome.worker} failed:\n"
                    f"{outcome.error}"
                )
            else:
                self._stash.append(outcome)
        return list(self.ready_log)

    def worker_summary(self) -> list[dict[str, int | float]]:
        """Per-worker totals over the run's unit log (for telemetry)."""
        summary = [
            {"worker": wid, "units": 0, "pairs": 0, "seconds": 0.0}
            for wid in range(self.workers)
        ]
        for entry in self.unit_log:
            row = summary[int(entry["worker"])]
            row["units"] = int(row["units"]) + 1
            row["pairs"] = int(row["pairs"]) + int(entry["pairs"])
            row["seconds"] = round(
                float(row["seconds"]) + float(entry["seconds"]), 6
            )
        return summary

    def shutdown(self) -> None:
        """Stop the workers (sentinel per worker, then join)."""
        for _ in self._procs:
            try:
                self._tasks.put(None)
            except (OSError, ValueError):
                break
        for proc in self._procs:
            proc.join(timeout=5)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5)
        for queue in (self._tasks, self._results):
            queue.close()
            queue.cancel_join_thread()
        if self.backplane is not None:
            self.backplane.close_and_unlink()
            self.backplane = None
