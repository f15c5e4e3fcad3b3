"""Experiment T2 — the paper's Table 2: per-stage resolution statistics.

The paper reports that random simulation drops the vast majority of the
single-cycle pairs while the implication procedure identifies most of the
multi-cycle pairs, leaving only a residue for the ATPG search — that split
is why the method is fast.  This module times each stage in isolation and
regenerates the aggregated table.
"""

from __future__ import annotations

import pytest

from repro.circuit.timeframe import expand
from repro.circuit.topology import connected_ff_pairs
from repro.core.random_filter import random_filter
from repro.core.detector import DetectorOptions, detect_multi_cycle_pairs
from repro.core.session import DecisionSession
from repro.reporting.tables import run_table2

from conftest import PROFILE, record_report
from repro.bench_gen.suite import suite

_CIRCUITS = suite(PROFILE)
_IDS = [c.name for c in _CIRCUITS]

#: the paper's settings: a 50-backtrack ATPG search before the SAT tier.
PAPER = DetectorOptions(backtrack_limit=50)


@pytest.mark.parametrize("circuit", _CIRCUITS, ids=_IDS)
def test_stage_random_simulation(benchmark, circuit):
    pairs = connected_ff_pairs(circuit)
    report = benchmark(random_filter, circuit, pairs)
    assert len(report.survivors) + report.dropped == len(pairs)


@pytest.mark.parametrize("circuit", _CIRCUITS, ids=_IDS)
def test_stage_implication_and_atpg(benchmark, circuit):
    """Time the decide stage on the simulation survivors only."""
    pairs = random_filter(circuit, connected_ff_pairs(circuit)).survivors
    expansion = expand(circuit, frames=2)

    def analyse_all():
        # The production decision session at the paper's budget.
        return DecisionSession(
            expansion, backtrack_limit=PAPER.backtrack_limit
        ).decide_group(pairs)

    results = benchmark(analyse_all)
    assert len(results) == len(pairs)


def test_table2_report(benchmark, bench_circuits):
    detections = [detect_multi_cycle_pairs(c, PAPER) for c in bench_circuits]
    table = benchmark.pedantic(
        run_table2, args=(bench_circuits,), kwargs={"detections": detections},
        rounds=1, iterations=1,
    )
    record_report(table.format())
    # The paper's shape: simulation dominates single-cycle identification,
    # implication dominates multi-cycle identification.
    single_row = table.rows[0]
    multi_row = table.rows[1]
    sim_singles = int(single_row[1].split()[0])
    total_singles = sum(int(cell.split()[0]) for cell in single_row[1:])
    impl_multi = int(multi_row[2].split()[0])
    total_multi = sum(int(cell.split()[0]) for cell in multi_row[1:])
    if total_singles:
        assert sim_singles / total_singles > 0.5
    if total_multi:
        assert impl_multi / total_multi > 0.5
