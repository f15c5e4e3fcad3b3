"""Differential tests: packed implication closure vs the scalar engine.

The packed engine promises the *same* fixpoint as
:class:`~repro.atpg.implication.ImplicationEngine` on every lane — same
conflicts, same derived values, same X's — so the whole suite is
differential: seed both engines identically (random circuits with
self-loop FFs, constant-driven cones, learned tables, lane counts below
and above one 64-bit word) and compare states bit for bit.  On top of
the closure identity, the decision-session tests pin the end-to-end
contract of ``--packed-implication``: classifications, stages and case
records are byte-identical with the pre-pass on or off.
"""

import random

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.implication_db import implication_db
from repro.circuit.builder import CircuitBuilder
from repro.circuit.timeframe import expand_cached
from repro.circuit.topology import connected_ff_pairs
from repro.core.session import DecisionSession
from repro.atpg.implication import ImplicationEngine
from repro.atpg.packed_implication import (
    MAX_LANES,
    PackedImplicationEngine,
    packed_plan,
)

from tests.strategies import random_sequential_circuit, seeds


def _random_lanes(circuit, rng, max_lanes):
    """Per-lane random literal lists over arbitrary nodes."""
    lanes = []
    for _ in range(rng.randrange(1, max_lanes + 1)):
        count = rng.randrange(1, 4)
        lanes.append([
            (rng.randrange(circuit.num_nodes), rng.randrange(2))
            for _ in range(count)
        ])
    return lanes


def _assert_lanes_match_scalar(circuit, lane_literals, packed, learned=None):
    """Each packed lane must equal a fresh scalar closure of its seeds."""
    num_nodes = circuit.num_nodes
    conflicted = packed.conflict_lanes(np.arange(len(lane_literals)))
    for lane, literals in enumerate(lane_literals):
        scalar = ImplicationEngine(circuit, learned=learned)
        ok = scalar.assume_all(literals)
        assert (not ok) == bool(conflicted[lane]), (
            f"lane {lane}: scalar ok={ok}, packed conflict="
            f"{bool(conflicted[lane])} for seeds {literals}"
        )
        if not ok:
            continue  # conflicted lanes are frozen; only the flag counts
        nodes = np.arange(num_nodes)
        known, value = packed.read_nodes(nodes, np.full(num_nodes, lane))
        for node in range(num_nodes):
            expected = scalar.value(node)
            is_known = expected in (0, 1)
            assert is_known == bool(known[node]) and (
                not is_known or expected == value[node]
            ), (
                f"lane {lane} node {node}: scalar={expected} "
                f"packed=({known[node]}, {value[node]}) seeds {literals}"
            )


@given(seeds)
def test_packed_closure_matches_scalar(seed):
    """Lane-by-lane identity with fresh scalar closures (partial words,
    multi-word lane counts, self-loop FFs and constants included —
    the circuit strategy emits all of them)."""
    circuit = random_sequential_circuit(seed)
    rng = random.Random(seed ^ 0x51C817)
    lane_literals = _random_lanes(circuit, rng, max_lanes=130)
    packed = PackedImplicationEngine(circuit)
    packed.close(lane_literals)
    _assert_lanes_match_scalar(circuit, lane_literals, packed)


@given(seeds)
def test_packed_closure_matches_scalar_with_learned(seed):
    """Same identity with the global implication DB as the learned table."""
    circuit = random_sequential_circuit(seed)
    learned = implication_db(circuit)
    rng = random.Random(seed ^ 0xDB1E)
    lane_literals = _random_lanes(circuit, rng, max_lanes=70)
    packed = PackedImplicationEngine(circuit, learned=learned)
    packed.close(lane_literals)
    _assert_lanes_match_scalar(circuit, lane_literals, packed, learned=learned)


@given(seeds)
def test_packed_engine_reuse_is_stateless(seed):
    """Repeated closes on one engine equal fresh-engine closes (the
    incremental touched-row reset leaks nothing between closures)."""
    circuit = random_sequential_circuit(seed)
    rng = random.Random(seed ^ 0xAB12)
    packed = PackedImplicationEngine(circuit)
    for _ in range(3):
        lane_literals = _random_lanes(circuit, rng, max_lanes=20)
        packed.close(lane_literals)
        _assert_lanes_match_scalar(circuit, lane_literals, packed)


@given(seeds)
def test_close_matrix_matches_close(seed):
    """The array-staged seed path derives exactly what per-literal
    posting does (the session's fixed-width premise fast path)."""
    circuit = random_sequential_circuit(seed)
    rng = random.Random(seed ^ 0xC0FE)
    lanes = rng.randrange(1, 70)
    nodes = np.array(
        [
            [rng.randrange(circuit.num_nodes) for _ in range(3)]
            for _ in range(lanes)
        ],
        dtype=np.intp,
    )
    values = np.array(
        [[rng.randrange(2) for _ in range(3)] for _ in range(lanes)],
        dtype=np.uint8,
    )
    by_matrix = PackedImplicationEngine(circuit)
    by_matrix.close_matrix(nodes, values)
    literals = [
        list(zip(nodes[lane].tolist(), values[lane].tolist()))
        for lane in range(lanes)
    ]
    _assert_lanes_match_scalar(circuit, literals, by_matrix)


def test_constant_driven_cone_stays_x():
    """Scalar quirk preserved: constants are preset, never propagated,
    so a cone driven only by constants stays X in every lane."""
    build = CircuitBuilder()
    one = build.const1()
    zero = build.const0()
    pi = build.input("pi")
    const_and = build.and_(one, zero, name="const_and")
    mixed_or = build.or_(const_and, pi, name="mixed_or")
    build.output("po", mixed_or)
    circuit = build.build()
    packed = PackedImplicationEngine(circuit)
    packed.close([[(pi, 1)], [(pi, 0)]])
    known, _ = packed.read_nodes([const_and, const_and], [0, 1])
    assert not known.any(), "constant-only cone must stay X"
    _assert_lanes_match_scalar(circuit, [[(pi, 1)], [(pi, 0)]], packed)


def test_lane_capacity_is_enforced():
    circuit = random_sequential_circuit(0)
    packed = PackedImplicationEngine(circuit)
    try:
        packed.close([[(0, 1)]] * (MAX_LANES + 1))
    except ValueError:
        pass
    else:  # pragma: no cover - failure path
        raise AssertionError("lane overflow must be rejected")


def test_packed_plan_is_cached_per_version():
    circuit = random_sequential_circuit(3)
    assert packed_plan(circuit) is packed_plan(circuit)


#: budgets the identity is held at: the SAT tier alone (the default),
#: a search that aborts and escalates to SAT, and the paper's search.
BUDGETS = (0, 1, 50)


@given(seeds, st.booleans())
def test_session_records_identical_packed_on_off(seed, share_prefix):
    """The end-to-end contract: ``packed="on"`` and ``"off"`` produce
    byte-identical classifications, stages and case records — launch
    groups smaller than one word, self-loops and constant cones
    included — at every backtrack budget of the decision ladder."""
    circuit = random_sequential_circuit(seed)
    pairs = connected_ff_pairs(circuit)
    if not pairs:
        return
    expansion = expand_cached(circuit, frames=2)
    for budget in BUDGETS:
        scalar = DecisionSession(
            expansion, backtrack_limit=budget, share_prefix=share_prefix,
            packed="off",
        )
        packed = DecisionSession(
            expansion, backtrack_limit=budget, share_prefix=share_prefix,
            packed="on",
        )
        reference = scalar.decide_group(pairs)
        candidate = packed.decide_group(pairs)
        for (expected, _), (actual, _) in zip(reference, candidate):
            assert actual.classification == expected.classification, budget
            assert actual.stage == expected.stage, budget
            assert actual.cases == expected.cases, budget
        assert scalar.stats()["pairs"] == packed.stats()["pairs"]
        stats = packed.stats()
        assert stats["packed_lanes"] == 4 * len(pairs)
        assert stats["packed_resolved"] + stats["packed_fallbacks"] == (
            stats["packed_lanes"]
        )


@given(seeds)
def test_session_records_identical_with_learned(seed):
    """Packed identity holds with the implication DB seeded per lane."""
    circuit = random_sequential_circuit(seed)
    pairs = connected_ff_pairs(circuit)
    if not pairs:
        return
    expansion = expand_cached(circuit, frames=2)
    learned = implication_db(expansion.comb)
    for budget in BUDGETS:
        scalar = DecisionSession(
            expansion, backtrack_limit=budget, learned=learned, packed="off"
        )
        packed = DecisionSession(
            expansion, backtrack_limit=budget, learned=learned, packed="on"
        )
        for (expected, _), (actual, _) in zip(
            scalar.decide_group(pairs), packed.decide_group(pairs)
        ):
            assert actual.classification == expected.classification, budget
            assert actual.stage == expected.stage, budget
            assert actual.cases == expected.cases, budget
