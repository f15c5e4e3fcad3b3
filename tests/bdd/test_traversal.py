"""The symbolic baseline: agreement with brute force, reachability."""

import pytest
from hypothesis import given

from repro.bdd.bdd import BddManager
from repro.bdd.traversal import (
    BddMcDetector,
    bdd_detect_multi_cycle_pairs,
    build_node_bdds,
)
from repro.circuit.library import binary_counter, gray_counter

from tests.oracles.brute import brute_force_mc_pairs
from tests.strategies import random_sequential_circuit, seeds


def test_fig1_matches_paper(fig1):
    result = bdd_detect_multi_cycle_pairs(fig1)
    assert result.multi_cycle_pair_names() == [
        ("FF1", "FF1"), ("FF1", "FF2"), ("FF2", "FF2"),
        ("FF3", "FF2"), ("FF4", "FF1"),
    ]


@given(seeds)
def test_agrees_with_brute_force(seed):
    circuit = random_sequential_circuit(seed, max_inputs=2, max_dffs=3,
                                        max_gates=8)
    expected = brute_force_mc_pairs(circuit)
    result = bdd_detect_multi_cycle_pairs(circuit)
    got = {(p.pair.source, p.pair.sink) for p in result.multi_cycle_pairs}
    assert got == expected


def test_reachability_counts_counter_states():
    """A free-running binary counter reaches all 2^n states from reset."""
    result = BddMcDetector(binary_counter(3), use_reachability=True).run()
    assert result.reachable_states == 8


def test_reachability_fig1(fig1):
    result = BddMcDetector(fig1, use_reachability=True).run()
    # The Gray counter confines FF3/FF4 to their 4-state cycle; FF1/FF2
    # are free once written: 14 reachable states from the all-zero reset.
    assert result.reachable_states == 14


def test_reachability_only_adds_mc_pairs(fig1, s27_circuit):
    """Restricting to reachable states can only find MORE multi-cycle
    pairs (the paper's remark about [8] vs [9])."""
    for circuit in (fig1, s27_circuit, gray_counter(2)):
        assumed_all = {
            (p.pair.source, p.pair.sink)
            for p in bdd_detect_multi_cycle_pairs(circuit).multi_cycle_pairs
        }
        reachable = {
            (p.pair.source, p.pair.sink)
            for p in BddMcDetector(circuit, use_reachability=True)
            .run().multi_cycle_pairs
        }
        assert assumed_all <= reachable


def test_node_limit_enforced(fig1):
    from repro.bdd.traversal import BddLimitExceeded

    with pytest.raises(BddLimitExceeded):
        BddMcDetector(fig1, node_limit=3).run()


def test_build_node_bdds_rejects_sequential(fig1):
    with pytest.raises(ValueError):
        build_node_bdds(fig1, BddManager(), {})
