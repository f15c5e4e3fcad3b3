"""Work-unit formation and the work-stealing decision pool."""

from __future__ import annotations

from hypothesis import given, settings

from repro.circuit.topology import FFPair
from repro.core.detector import DetectorOptions
from repro.core.pipeline import merge_session_stats
from repro.core.workqueue import (
    MIN_SPLIT_PAIRS,
    launch_units,
    split_threshold,
)

from tests.strategies import random_sequential_circuit, seeds


def _group(source: int, sinks: list[int]) -> list[FFPair]:
    return [FFPair(source, sink) for sink in sinks]


def test_launch_units_concatenation_reproduces_input():
    pairs = (
        _group(1, [1, 2, 3]) + _group(2, [4]) + _group(3, [5, 6, 7, 8, 9])
    )
    units = launch_units(pairs, size=3)
    assert [p for unit in units for p in unit] == pairs


def test_launch_units_without_split_keeps_groups_whole():
    pairs = _group(1, list(range(10))) + _group(2, [1])
    units = launch_units(pairs, size=3, split=None)
    assert [len(u) for u in units] == [10, 1]


def test_launch_units_split_slices_oversized_groups():
    pairs = _group(1, list(range(10))) + _group(2, [1])
    units = launch_units(pairs, size=3, split=4)
    # The big group is cut into consecutive size-3 slices; the small
    # group stays whole; order is preserved end to end.
    assert [len(u) for u in units] == [3, 3, 3, 1, 1]
    assert [p for unit in units for p in unit] == pairs
    assert all(
        len({p.source for p in unit}) == 1 for unit in units
    ), "split units must stay single-source"


def test_split_threshold_floor():
    assert split_threshold(1) == MIN_SPLIT_PAIRS
    assert split_threshold(100) == 400


@given(seeds)
@settings(max_examples=20)
def test_launch_units_partition_property(seed):
    import random

    rng = random.Random(seed)
    pairs: list[FFPair] = []
    for source in range(rng.randrange(1, 8)):
        pairs.extend(_group(source, list(range(rng.randrange(1, 12)))))
    size = rng.randrange(1, 8)
    split = rng.choice([None, rng.randrange(4, 20)])
    units = launch_units(pairs, size, split=split)
    assert [p for unit in units for p in unit] == pairs
    assert all(unit for unit in units)
    if split is not None:
        assert all(len(unit) <= max(size, split) for unit in units)


def test_merge_session_stats_totals_and_high_water():
    total = merge_session_stats(None, {"pairs": 2, "trail_high_water": 7})
    total = merge_session_stats(total, {"pairs": 3, "trail_high_water": 5})
    total = merge_session_stats(total, None)
    assert total == {"pairs": 5, "trail_high_water": 7}
    assert merge_session_stats(None, None) is None


class _EchoDecider:
    """Pool-test stand-in: echoes each pair back with a bulky payload."""

    name = "echo"
    frames = 2

    def prepare(self, ctx):
        pass

    def decide(self, pair):
        return (pair, b"x" * 4096)


def test_pool_survives_queue_capacity_pressure(fig1):
    """Bulk submission plus bulky results must not wedge the pool.

    A pipe-backed queue holds ~64 KiB: with every unit submitted before
    any result is drained, workers block writing results, stop pulling
    tasks, and the parent blocks writing tasks — a three-way deadlock
    the first 10k-gate parallel run hit.  The pool's buffered queues
    keep both ends non-blocking; this pushes megabytes through each
    direction to pin that.
    """
    import threading

    from repro.core.pipeline import AnalysisContext
    from repro.core.workqueue import WorkStealingPool

    options = DetectorOptions(workers=2)
    expansion = AnalysisContext(fig1, options).expansion(2)
    pool = WorkStealingPool(
        fig1, options, _EchoDecider(), expansion, workers=2, key=("echo",)
    )
    units = [[FFPair(0, 0)] * 8 for _ in range(300)]
    out: list = []

    def run() -> None:
        for index, unit in enumerate(units):
            pool.submit(index, unit)
        out.extend(pool.next_result() for _ in units)

    runner = threading.Thread(target=run, daemon=True)
    runner.start()
    runner.join(timeout=120)
    assert not runner.is_alive(), "pool deadlocked on queue capacity"
    assert len(out) == len(units)
    assert sum(len(r.decided) for r in out) == 8 * 300
    pool.shutdown()


def test_pool_worker_summary_covers_all_units():
    """Every dispatched unit lands in exactly one worker's summary row."""
    from repro.circuit.topology import connected_ff_pairs
    from repro.core.deciders import create_decider
    from repro.core.pipeline import AnalysisContext
    from repro.core.workqueue import WorkStealingPool

    circuit = random_sequential_circuit(11, max_dffs=8, max_gates=30)
    options = DetectorOptions(workers=2)
    pairs = connected_ff_pairs(circuit)
    units = launch_units(pairs, 2, split=split_threshold(2))
    pool = WorkStealingPool(
        circuit, options, create_decider("dalg"),
        AnalysisContext(circuit, options).expansion(2), workers=2,
        key=("summary",),
    )
    try:
        for index, unit in enumerate(units):
            pool.submit(index, unit)
        results = [pool.next_result() for _ in units]
        summary = pool.worker_summary()
    finally:
        pool.shutdown()
    assert sorted(r.index for r in results) == list(range(len(units)))
    assert [row["worker"] for row in summary] == [0, 1]
    assert sum(row["units"] for row in summary) == len(units)
    assert sum(row["pairs"] for row in summary) == len(pairs)


# A script whose registered decider kills its worker process inside the
# first unit that reaches the pool.  Run in a subprocess with a timeout:
# a pool that waits on the result queue alone blocks forever instead.
_DYING_WORKER_SCRIPT = """
import os
import sys

from repro.core.deciders import register_decider
from repro.core.detector import DetectorOptions, MultiCycleDetector
from repro.circuit.library import fig1_circuit
from repro.core.result import Classification, PairResult, Stage


@register_decider("dies-in-worker")
class DiesInWorker:
    frames = 2

    def __init__(self, name):
        self.name = name

    def prepare(self, ctx):
        pass

    def decide(self, pair):
        if os.getpid() != int(os.environ["DYING_WORKER_PARENT"]):
            os._exit(3)
        return PairResult(pair, Classification.SINGLE_CYCLE, Stage.DECISION)


if __name__ == "__main__":
    os.environ["DYING_WORKER_PARENT"] = str(os.getpid())
    circuit = fig1_circuit()
    options = DetectorOptions(
        search_engine="dies-in-worker", use_random_sim=False,
        workers=2, parallel_threshold=2,
    )
    try:
        MultiCycleDetector(circuit, options).run()
    except RuntimeError as error:
        print(error)
        sys.exit(7)
"""


def test_dead_worker_raises_instead_of_hanging(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parents[2]
    script = tmp_path / "dying_worker.py"
    script.write_text(_DYING_WORKER_SCRIPT)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(root), env.get("PYTHONPATH", "")]
    )
    proc = subprocess.run(
        [sys.executable, str(script)], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert proc.returncode == 7, proc.stderr
    assert "decision worker" in proc.stdout
    assert "died (exit code 3)" in proc.stdout
