"""Sanity checks of the brute-force oracle itself."""

import pytest

from repro.circuit.library import shift_register
from repro.circuit.topology import FFPair

from tests.oracles.brute import (
    brute_force_is_multi_cycle,
    brute_force_k_cycle_pairs,
    brute_force_mc_pairs,
)


def test_fig1_oracle(fig1):
    pairs = brute_force_mc_pairs(fig1)
    names = sorted((fig1.names[i], fig1.names[j]) for i, j in pairs)
    assert names == [
        ("FF1", "FF1"), ("FF1", "FF2"), ("FF2", "FF2"),
        ("FF3", "FF2"), ("FF4", "FF1"),
    ]


def test_shift_register_oracle(shift4):
    assert brute_force_mc_pairs(shift4) == set()


def test_single_pair_query(fig1):
    assert brute_force_is_multi_cycle(
        fig1, FFPair(fig1.id_of("FF1"), fig1.id_of("FF2"))
    )
    assert not brute_force_is_multi_cycle(
        fig1, FFPair(fig1.id_of("FF3"), fig1.id_of("FF4"))
    )


def test_k2_equals_mc(fig1):
    assert brute_force_k_cycle_pairs(fig1, 2) == brute_force_mc_pairs(fig1)


def test_k_cycle_sets_shrink_with_k(fig1):
    k2 = brute_force_k_cycle_pairs(fig1, 2)
    k3 = brute_force_k_cycle_pairs(fig1, 3)
    k4 = brute_force_k_cycle_pairs(fig1, 4)
    assert k4 <= k3 <= k2
    assert (fig1.id_of("FF1"), fig1.id_of("FF2")) in k3
    assert (fig1.id_of("FF1"), fig1.id_of("FF2")) not in k4


def test_size_limit_enforced():
    big = shift_register(30)
    with pytest.raises(ValueError, match="brute-force limit"):
        brute_force_mc_pairs(big)
    with pytest.raises(ValueError):
        brute_force_k_cycle_pairs(big, 3)


def test_k_must_be_at_least_two(fig1):
    with pytest.raises(ValueError):
        brute_force_k_cycle_pairs(fig1, 1)


def test_self_loop_exclusion(fig1):
    with_loops = brute_force_mc_pairs(fig1, include_self_loops=True)
    without = brute_force_mc_pairs(fig1, include_self_loops=False)
    assert without == {(i, j) for i, j in with_loops if i != j}
