"""The SAT-based baseline must agree with the brute-force oracle."""

import pytest
from hypothesis import given

from repro.sat.mc_sat import SatMcDetector, sat_detect_multi_cycle_pairs

from tests.oracles.brute import brute_force_mc_pairs
from tests.strategies import random_sequential_circuit, seeds


def test_fig1_matches_paper(fig1):
    result = sat_detect_multi_cycle_pairs(fig1)
    assert result.multi_cycle_pair_names() == [
        ("FF1", "FF1"), ("FF1", "FF2"), ("FF2", "FF2"),
        ("FF3", "FF2"), ("FF4", "FF1"),
    ]


def test_s27_has_no_mc_pairs(s27_circuit):
    result = sat_detect_multi_cycle_pairs(s27_circuit)
    assert result.multi_cycle_pairs == []
    assert result.connected_pairs == 7


@given(seeds)
def test_agrees_with_brute_force(seed):
    circuit = random_sequential_circuit(seed, max_inputs=2, max_dffs=3,
                                        max_gates=8)
    expected = brute_force_mc_pairs(circuit)
    result = sat_detect_multi_cycle_pairs(circuit)
    got = {(p.pair.source, p.pair.sink) for p in result.multi_cycle_pairs}
    assert got == expected


def test_modes_agree(pipeline):
    incremental = sat_detect_multi_cycle_pairs(pipeline, mode="incremental")
    per_pair = sat_detect_multi_cycle_pairs(pipeline, mode="per-pair")
    assert incremental.multi_cycle_pair_names() == per_pair.multi_cycle_pair_names()


def test_unknown_mode_rejected(fig1):
    with pytest.raises(ValueError):
        SatMcDetector(fig1, mode="quantum")


def test_self_loop_exclusion(fig1):
    result = sat_detect_multi_cycle_pairs(fig1, include_self_loops=False)
    names = result.multi_cycle_pair_names()
    assert ("FF1", "FF1") not in names
    assert ("FF3", "FF2") in names


def test_conflict_limit_marks_unknown(fig1):
    detector = SatMcDetector(fig1, conflict_limit=0)
    result = detector.run()
    # With a zero conflict budget some pairs may be unknown; none may be
    # spuriously classified multi-cycle.
    reference = {
        name
        for name in sat_detect_multi_cycle_pairs(fig1).multi_cycle_pair_names()
    }
    for pair_result in result.pair_results:
        name = (
            fig1.names[pair_result.pair.source],
            fig1.names[pair_result.pair.sink],
        )
        if pair_result.is_multi_cycle:
            assert name in reference
