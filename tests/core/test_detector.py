"""End-to-end detector tests, anchored by four-way differential agreement.

On small random sequential circuits the implication-based detector, the
SAT-based baseline, the BDD-based baseline and the brute-force oracle must
all produce the same set of multi-cycle FF pairs — that agreement is the
strongest evidence the reproduction is faithful.
"""

from hypothesis import given

from repro.bdd.traversal import bdd_detect_multi_cycle_pairs
from repro.circuit.library import enabled_pipeline
from repro.core.detector import (
    DetectorOptions,
    MultiCycleDetector,
    detect_multi_cycle_pairs,
)
from repro.core.result import Classification, Stage
from repro.sat.mc_sat import sat_detect_multi_cycle_pairs

from tests.oracles.brute import brute_force_mc_pairs
from tests.strategies import random_sequential_circuit, seeds


def test_fig1_reproduces_paper_narrative(fig1):
    """Section 4.2 end to end: 9 connected pairs, these 5 multi-cycle."""
    result = detect_multi_cycle_pairs(fig1)
    assert result.connected_pairs == 9
    assert result.multi_cycle_pair_names() == [
        ("FF1", "FF1"), ("FF1", "FF2"), ("FF2", "FF2"),
        ("FF3", "FF2"), ("FF4", "FF1"),
    ]
    assert not result.undecided_pairs


def test_s27_all_single_cycle(s27_circuit):
    result = detect_multi_cycle_pairs(s27_circuit)
    assert result.connected_pairs == 7
    assert not result.multi_cycle_pairs


def test_shift_register_pairs_single_cycle(shift4):
    result = detect_multi_cycle_pairs(shift4)
    assert not result.multi_cycle_pairs


@given(seeds)
def test_four_way_agreement(seed):
    circuit = random_sequential_circuit(seed, max_inputs=2, max_dffs=3,
                                        max_gates=8)
    expected = brute_force_mc_pairs(circuit)

    ours = detect_multi_cycle_pairs(
        circuit, DetectorOptions(backtrack_limit=100_000)
    )
    got = {(p.pair.source, p.pair.sink) for p in ours.multi_cycle_pairs}
    assert not ours.undecided_pairs
    assert got == expected, "implication-based detector disagrees with oracle"

    sat = sat_detect_multi_cycle_pairs(circuit)
    assert {(p.pair.source, p.pair.sink) for p in sat.multi_cycle_pairs} == expected

    bdd = bdd_detect_multi_cycle_pairs(circuit)
    assert {(p.pair.source, p.pair.sink) for p in bdd.multi_cycle_pairs} == expected


@given(seeds)
def test_random_sim_stage_is_only_an_accelerator(seed):
    """Disabling the random filter must not change any verdict."""
    circuit = random_sequential_circuit(seed, max_inputs=2, max_dffs=3,
                                        max_gates=8)
    with_sim = detect_multi_cycle_pairs(
        circuit, DetectorOptions(backtrack_limit=100_000)
    )
    without_sim = detect_multi_cycle_pairs(
        circuit, DetectorOptions(use_random_sim=False, backtrack_limit=100_000)
    )
    assert with_sim.multi_cycle_pair_names() == without_sim.multi_cycle_pair_names()


def test_static_learning_does_not_change_results(pipeline):
    plain = detect_multi_cycle_pairs(pipeline)
    learned = detect_multi_cycle_pairs(
        pipeline, DetectorOptions(static_learning=True)
    )
    assert plain.multi_cycle_pair_names() == learned.multi_cycle_pair_names()
    assert learned.learned_implications >= 0


def test_self_loop_option(fig1):
    without = detect_multi_cycle_pairs(
        fig1, DetectorOptions(include_self_loops=False)
    )
    names = without.multi_cycle_pair_names()
    assert ("FF1", "FF1") not in names
    assert ("FF3", "FF2") in names
    assert without.connected_pairs == 7


def test_every_pair_gets_exactly_one_result(pipeline):
    result = detect_multi_cycle_pairs(pipeline)
    keys = [(p.pair.source, p.pair.sink) for p in result.pair_results]
    assert len(keys) == len(set(keys)) == result.connected_pairs


def test_stage_stats_sum_to_totals(pipeline):
    result = detect_multi_cycle_pairs(pipeline)
    total_single = sum(s.single_cycle for s in result.stats.values())
    total_multi = sum(s.multi_cycle for s in result.stats.values())
    assert total_single == len(result.single_cycle_pairs)
    assert total_multi == len(result.multi_cycle_pairs)


def test_simulation_dropped_pairs_are_marked(fig1):
    result = detect_multi_cycle_pairs(fig1)
    sim_dropped = [
        p for p in result.pair_results if p.stage is Stage.SIMULATION
    ]
    assert sim_dropped
    assert all(
        p.classification is Classification.SINGLE_CYCLE for p in sim_dropped
    )


def test_determinism(fig1):
    first = detect_multi_cycle_pairs(fig1)
    second = detect_multi_cycle_pairs(fig1)
    assert first.multi_cycle_pair_names() == second.multi_cycle_pair_names()
    assert [p.stage for p in first.pair_results] == [
        p.stage for p in second.pair_results
    ]


def test_results_sorted_by_pair(pipeline):
    result = detect_multi_cycle_pairs(pipeline)
    keys = [(p.pair.source, p.pair.sink) for p in result.pair_results]
    assert keys == sorted(keys)


def test_detector_validates_input():
    from repro.circuit.gates import GateType
    from repro.circuit.netlist import Circuit, CircuitError

    import pytest

    broken = Circuit("broken")
    broken.add_node(GateType.NOT, (7,), "bad")
    with pytest.raises(CircuitError):
        MultiCycleDetector(broken)


def test_summary_fields(fig1):
    result = detect_multi_cycle_pairs(fig1)
    summary = result.summary()
    assert summary["ff_pairs"] == 9
    assert summary["mc_pairs"] == 5
    assert summary["cpu_seconds"] >= 0


def test_witnesses_reproduce_violations(pipeline):
    """Every single-cycle verdict from ATPG/implication carries a witness
    that really toggles source and sink when simulated."""
    from repro.circuit.timeframe import expand
    from repro.core.result import CaseOutcome
    from repro.logic.simulator import Simulator
    from repro.logic.values import X

    circuit = enabled_pipeline(3, counter_width=2, spacing=1)
    result = detect_multi_cycle_pairs(
        circuit, DetectorOptions(use_random_sim=False)
    )
    expansion = expand(circuit, 2)
    checked = 0
    for pair_result in result.pair_results:
        for case in pair_result.cases:
            if case.outcome is not CaseOutcome.VIOLATED or case.witness is None:
                continue
            witness = {n: (0 if v == X else v) for n, v in case.witness.items()}
            sim = Simulator(circuit)
            state = [witness[expansion.ff_at[0][k]]
                     for k in range(len(circuit.dffs))]
            sim.set_all_state(state)
            values = []
            for frame in range(2):
                if circuit.inputs:
                    sim.set_all_inputs(
                        [witness[n] for n in expansion.pi_at[frame]]
                    )
                values.append({d: sim.values[d] for d in circuit.dffs})
                sim.clock()
            values.append({d: sim.values[d] for d in circuit.dffs})
            source, sink = pair_result.pair.source, pair_result.pair.sink
            assert values[0][source] != values[1][source]
            assert values[1][sink] != values[2][sink]
            checked += 1
    assert checked > 0, "expected at least one ATPG witness to verify"
