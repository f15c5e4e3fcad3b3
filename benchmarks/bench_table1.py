"""Experiment T1 — the paper's Table 1.

Per circuit: inputs, FFs, connected FF pairs, detected multi-cycle pairs
and CPU time for the implication-based method versus the conventional
SAT-based method [9].  The reproduction claims (see EXPERIMENTS.md):

* both methods find the *same* multi-cycle pairs on every circuit,
* the implication-based method is faster, with the gap growing with size,
* multi-cycle pairs are a substantial minority of all connected pairs.

``pytest benchmarks/bench_table1.py --benchmark-only`` times the two
methods per circuit; the formatted table is printed at session end.
"""

from __future__ import annotations

import pytest

from repro.core.detector import DetectorOptions, detect_multi_cycle_pairs
from repro.sat.mc_sat import sat_detect_multi_cycle_pairs
from repro.reporting.tables import run_table1

from conftest import PROFILE, record_report
from repro.bench_gen.suite import suite

_CIRCUITS = suite(PROFILE)
_IDS = [c.name for c in _CIRCUITS]

#: The per-pair SAT baseline is quadratic-ish in circuit size; keep the
#: timed comparison to circuits where it finishes in sensible time.
_SAT_BENCH_MAX_GATES = 1000

#: the paper's settings: a 50-backtrack ATPG search before the SAT tier.
PAPER = DetectorOptions(backtrack_limit=50)


@pytest.mark.parametrize("circuit", _CIRCUITS, ids=_IDS)
def test_table1_ours(benchmark, circuit):
    result = benchmark(detect_multi_cycle_pairs, circuit, PAPER)
    assert result.connected_pairs >= len(result.multi_cycle_pairs)


@pytest.mark.parametrize(
    "circuit",
    [c for c in _CIRCUITS if c.num_gates <= _SAT_BENCH_MAX_GATES],
    ids=[c.name for c in _CIRCUITS if c.num_gates <= _SAT_BENCH_MAX_GATES],
)
def test_table1_sat_baseline(benchmark, circuit):
    result = benchmark(sat_detect_multi_cycle_pairs, circuit, mode="per-pair")
    reference = detect_multi_cycle_pairs(circuit, PAPER)
    assert result.multi_cycle_pair_names() == reference.multi_cycle_pair_names()


def test_table1_report(benchmark, bench_circuits):
    """Regenerate and print the full Table 1 (agreement asserted per row)."""
    timed = [c for c in bench_circuits if c.num_gates <= _SAT_BENCH_MAX_GATES]
    table, detections = benchmark.pedantic(
        run_table1, args=(timed,),
        kwargs={"options": PAPER, "sat_mode": "per-pair"},
        rounds=1, iterations=1,
    )
    for row, detection in zip(table.rows, detections):
        assert row[4] == row[6], f"SAT baseline disagrees on {row[0]}"
    untimed = [c for c in bench_circuits if c.num_gates > _SAT_BENCH_MAX_GATES]
    if untimed:
        extra, _ = run_table1(untimed, PAPER, run_sat=False)
        table.rows[-1:-1] = extra.rows[:-1]
        table.notes.append(
            "SAT column omitted for circuits above "
            f"{_SAT_BENCH_MAX_GATES} gates."
        )
    record_report(table.format())
