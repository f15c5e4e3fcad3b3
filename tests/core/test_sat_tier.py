"""The decision session's SAT tier: sound, complete and history-free.

Every case implication leaves open climbs implication → ATPG search
(``backtrack_limit`` backtracks; 0 skips it) → one cone-restricted SAT
solve.  These tests pin the tier against the exhaustive simulation
oracle and the SAT baseline, check every SAT witness by simulation, and
check that records do not depend on which solver history answered them.
"""

from __future__ import annotations

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench_gen.suite import suite
from repro.circuit.gates import GateType
from repro.circuit.netlist import Circuit, validate
from repro.circuit.timeframe import expand, expand_cached
from repro.circuit.topology import FFPair, connected_ff_pairs
from repro.core.detector import DetectorOptions, MultiCycleDetector
from repro.core.incremental import (
    incremental_detect,
    options_fingerprint,
    result_bundle,
)
from repro.core.result import CaseOutcome, Classification, Stage
from repro.core.session import DecisionSession
from repro.logic.simulator import Simulator
from repro.logic.values import X
from repro.sat.solver import SolveStatus
from repro.sat.tseitin import ConeEncoder, encode_circuit
from tests.analysis.test_hazard_exact import _parity_mux_circuit
from tests.oracles.brute import brute_force_mc_pairs
from tests.strategies import random_sequential_circuit, seeds

SMALL = {circuit.name: circuit for circuit in suite("small")}

#: both SAT-refuted and SAT-witnessed cases when every pair is decided.
BOTH_ANSWERS = SMALL["syn170"]


def records_json(result) -> str:
    return json.dumps(result.pair_records(), sort_keys=True)


# ----------------------------------------------------------------------
# The lazy cone encoder.
# ----------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(seed=seeds, value=st.integers(0, 1))
def test_cone_encoder_agrees_with_full_encoding(seed, value):
    """Asking one node's cone gives the answer the whole circuit gives."""
    circuit = random_sequential_circuit(seed)
    comb = expand_cached(circuit, frames=2).comb
    full = encode_circuit(comb)
    for node in range(comb.num_nodes):
        cone = ConeEncoder(comb)
        expected = full.solver.solve([full.lit(node, value)])
        assert cone.solver.solve([cone.lit(node, value)]) is expected
        # The encoder holds exactly the node's fanin cone.
        fanin_cone, stack = set(), [node]
        while stack:
            current = stack.pop()
            if current not in fanin_cone:
                fanin_cone.add(current)
                stack.extend(comb.fanins[current])
        assert set(cone.var_of) == fanin_cone


@settings(max_examples=30, deadline=None)
@given(seed=seeds, picks=st.lists(st.integers(0, 10_000), min_size=1, max_size=4),
       values=st.lists(st.integers(0, 1), min_size=4, max_size=4))
def test_scoped_solve_agrees_with_unscoped(seed, picks, values):
    """Deciding only the roots' cones, on a solver holding other cones
    too, answers every query the way a full search does."""
    circuit = random_sequential_circuit(seed)
    comb = expand_cached(circuit, frames=2).comb
    shared = ConeEncoder(comb)
    shared.encode(range(comb.num_nodes - 1, -1, -3))  # unrelated cones too
    full = encode_circuit(comb)
    roots = [pick % comb.num_nodes for pick in picks]
    scoped = shared.solver.solve(
        [shared.lit(n, v) for n, v in zip(roots, values)],
        scope=shared.cone_vars(roots),
    )
    expected = full.solver.solve(
        [full.lit(n, v) for n, v in zip(roots, values)]
    )
    assert scoped is expected


def test_scoped_case_queries_agree_with_a_full_encoding():
    """Every MC-condition case of a mid-size circuit, asked in turn of
    one growing shared solver with its cone as the scope."""
    expansion = expand(BOTH_ANSWERS, frames=2)
    shared = ConeEncoder(expansion.comb)
    full = encode_circuit(expansion.comb)
    answers = set()
    for pair in connected_ff_pairs(BOTH_ANSWERS):
        source = expansion.ff_index(pair.source)
        sink = expansion.ff_index(pair.sink)
        nodes = (
            expansion.ff_at[0][source], expansion.ff_at[1][source],
            expansion.ff_at[1][sink], expansion.ff_at[2][sink],
        )
        for a in (0, 1):
            for b in (0, 1):
                values = (a, 1 - a, b, 1 - b)
                scoped = shared.solver.solve(
                    [shared.lit(n, v) for n, v in zip(nodes, values)],
                    scope=shared.cone_vars(nodes),
                )
                expected = full.solver.solve(
                    [full.lit(n, v) for n, v in zip(nodes, values)]
                )
                assert scoped is expected, (pair, a, b)
                answers.add(expected)
    assert answers == {SolveStatus.SAT, SolveStatus.UNSAT}


def test_cone_encoder_is_deterministic_in_its_roots():
    comb = expand_cached(BOTH_ANSWERS, frames=2).comb
    roots = [comb.num_nodes - 1, comb.num_nodes // 2, 3]
    first, second = ConeEncoder(comb), ConeEncoder(comb)
    first.encode(roots)
    for root in roots:
        second.lit(root, 1)
    assert first.var_of == second.var_of
    assert first.solver.clauses == second.solver.clauses


# ----------------------------------------------------------------------
# Verdicts against the oracles.
# ----------------------------------------------------------------------
LADDERS = [
    {"backtrack_limit": 0, "packed": "off"},
    {"backtrack_limit": 0, "packed": "on"},
    {"backtrack_limit": 50, "packed": "off"},
    {"backtrack_limit": 50, "packed": "on"},
]


def _assert_matches_brute(circuit):
    pairs = connected_ff_pairs(circuit)
    if not pairs:
        return
    truth = brute_force_mc_pairs(circuit)
    expansion = expand(circuit, frames=2)
    for ladder in LADDERS:
        session = DecisionSession(expansion, **ladder)
        for result, _ in session.decide_group(pairs):
            assert result.classification is not Classification.UNDECIDED
            expected = (result.pair.source, result.pair.sink) in truth
            assert result.is_multi_cycle == expected, (circuit.name, ladder)


@settings(max_examples=25, deadline=None)
@given(seed=seeds)
def test_sat_tier_matches_brute_force_on_random_circuits(seed):
    _assert_matches_brute(
        random_sequential_circuit(seed, max_dffs=3, max_gates=8)
    )


@settings(max_examples=25, deadline=None)
@given(seed=seeds)
def test_sat_tier_matches_brute_force_on_parity_mux_circuits(seed):
    _assert_matches_brute(_parity_mux_circuit(seed))


@pytest.mark.parametrize("name", list(SMALL))
def test_cross_check_reports_no_disagreement(name):
    """``--engine cross-check``: the SAT-tier session vs the SAT baseline."""
    result = MultiCycleDetector(
        SMALL[name], DetectorOptions(search_engine="cross-check")
    ).run()
    assert result.disagreements == []
    assert not result.undecided_pairs


def _launch_that_never_toggles():
    """``ffi``'s next state is ``ffi XOR (y XOR BUF(y))``: it can never
    toggle, but implication cannot see that without a case split on
    ``y``.  ``ffj`` always toggles, so implication forces
    ``FF_j(t+2) = ¬b`` in every case of the pair ``(ffi, ffj)``."""
    circuit = Circuit("never_toggles")
    y = circuit.add_node(GateType.INPUT, (), "y")
    one = circuit.add_node(GateType.CONST1, (), "one")
    ffi = circuit.add_node(GateType.DFF, (0,), "ffi")
    ffj = circuit.add_node(GateType.DFF, (0,), "ffj")
    ybuf = circuit.add_node(GateType.BUF, (y,), "ybuf")
    never = circuit.add_node(GateType.XOR, (y, ybuf), "never")
    circuit.set_fanins(
        ffi, (circuit.add_node(GateType.XOR, (ffi, never), "di"),)
    )
    keep = circuit.add_node(GateType.OR, (ffi, one), "keep")
    dj = circuit.add_node(GateType.NAND, (ffj, keep), "dj")
    circuit.set_fanins(ffj, (dj,))
    circuit.add_node(GateType.OUTPUT, (dj,), "po")
    validate(circuit)
    return circuit, FFPair(ffi, ffj)


@pytest.mark.parametrize("packed", ["off", "on"])
def test_forced_but_unjustifiable_cases_are_contradictions(packed):
    """UNSAT after implication forced ``FF_j(t+2) = ¬b`` is a
    contradiction (the premise is impossible), not a proved-stable case
    — from the packed closure's forced lanes as from the scalar engine."""
    circuit, pair = _launch_that_never_toggles()
    assert (pair.source, pair.sink) in brute_force_mc_pairs(circuit)
    session = DecisionSession(expand(circuit, frames=2), packed=packed)
    result = session.decide(pair)
    assert result.classification is Classification.MULTI_CYCLE
    assert result.stage is Stage.SAT
    assert [case.outcome for case in result.cases] == (
        [CaseOutcome.CONTRADICTION] * 4
    )


# ----------------------------------------------------------------------
# Witnesses.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["s27", "syn090", "syn170"])
def test_every_sat_witness_violates_the_mc_condition(name):
    """Simulated, each SAT witness toggles the source at t+1 and the
    sink at t+2, from the case's assumed values."""
    circuit = SMALL[name]
    result = MultiCycleDetector(
        circuit, DetectorOptions(use_random_sim=False)
    ).run()
    expansion = expand(circuit, 2)
    checked = 0
    for pair_result in result.pair_results:
        if pair_result.stage is not Stage.SAT:
            continue
        for case in pair_result.cases:
            if case.outcome is not CaseOutcome.VIOLATED:
                continue
            witness = {n: 0 if v == X else v for n, v in case.witness.items()}
            sim = Simulator(circuit)
            sim.set_all_state(
                [witness[node] for node in expansion.ff_at[0]]
            )
            states = []
            for frame in range(2):
                if circuit.inputs:
                    sim.set_all_inputs(
                        [witness[n] for n in expansion.pi_at[frame]]
                    )
                states.append({d: sim.values[d] for d in circuit.dffs})
                sim.clock()
            states.append({d: sim.values[d] for d in circuit.dffs})
            source, sink = pair_result.pair.source, pair_result.pair.sink
            assert states[0][source] == case.a
            assert states[1][source] == 1 - case.a
            assert states[1][sink] == case.b
            assert states[2][sink] == 1 - case.b
            checked += 1
    assert checked > 0


# ----------------------------------------------------------------------
# Records do not depend on solve history.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name,budget", [
    # the default ladder: every open case goes to SAT
    ("syn170", 0),
    # searches that abort and escalate to SAT, their effort on the record
    ("syn330", 1),
    # the paper's budget: open cases settle in the search
    ("syn170", 50),
])
def test_records_identical_across_workers_and_packed_modes(name, budget):
    circuit = SMALL[name]
    reference = MultiCycleDetector(
        circuit, DetectorOptions(use_random_sim=False, backtrack_limit=budget)
    ).run()
    session = reference.decision_session
    stages = {r.stage for r in reference.pair_results}
    if budget < 50:
        assert session["sat_refuted"] > 0 and session["sat_witnessed"] > 0
    else:
        assert session["sat_solves"] == 0 and Stage.ATPG in stages
    if budget == 1:
        assert any(
            case.backtracks
            for r in reference.pair_results if r.stage is Stage.SAT
            for case in r.cases
        )
    expected = records_json(reference)
    variants = [
        {"workers": 2, "parallel_threshold": 2},
        {"packed_implication": "on"},
        {"packed_implication": "off"},
        {"packed_implication": "off", "launch_prefix": False},
        {"packed_implication": "on", "workers": 2, "parallel_threshold": 2},
    ]
    for variant in variants:
        result = MultiCycleDetector(
            circuit,
            DetectorOptions(
                use_random_sim=False, backtrack_limit=budget, **variant
            ),
        ).run()
        assert records_json(result) == expected, variant
        assert {
            key: value for key, value in result.decision_session.items()
            if key.startswith("sat_")
        } == {
            key: value for key, value in session.items()
            if key.startswith("sat_")
        }, variant


def test_shared_solver_history_does_not_reach_records():
    """Deciding the pairs in another order, on a solver warmed by other
    cases, records the same witnesses."""
    expansion = expand(BOTH_ANSWERS, frames=2)
    pairs = connected_ff_pairs(BOTH_ANSWERS)
    forward = DecisionSession(expansion).decide_group(pairs)
    warmed = DecisionSession(expansion)
    warmed.decide_group(pairs[len(pairs) // 2:])
    backward = warmed.decide_group(pairs)
    assert [r for r, _ in forward] == [r for r, _ in backward]


def test_sat_solve_answers_match_a_full_encoding():
    """A refuted case is UNSAT over the whole expansion too."""
    expansion = expand(BOTH_ANSWERS, frames=2)
    full = encode_circuit(expansion.comb)
    pairs = connected_ff_pairs(BOTH_ANSWERS)
    for result, _ in DecisionSession(expansion).decide_group(pairs):
        if result.stage is not Stage.SAT:
            continue
        source = expansion.ff_index(result.pair.source)
        sink = expansion.ff_index(result.pair.sink)
        nodes = (
            expansion.ff_at[0][source], expansion.ff_at[1][source],
            expansion.ff_at[1][sink], expansion.ff_at[2][sink],
        )
        case = result.cases[-1]
        values = (case.a, 1 - case.a, case.b, 1 - case.b)
        status = full.solver.solve(
            [full.lit(n, v) for n, v in zip(nodes, values)]
        )
        violated = case.outcome is CaseOutcome.VIOLATED
        assert (status is SolveStatus.SAT) == violated


# ----------------------------------------------------------------------
# Defaults and incremental bundles.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["fig1", "syn090", "syn170"])
def test_default_session_runs_the_detector_ladder(name):
    """A session built with no arguments decides like the detector."""
    circuit = SMALL[name]
    detected = MultiCycleDetector(
        circuit, DetectorOptions(use_random_sim=False)
    ).run()
    session = DecisionSession(expand(circuit, frames=2))
    direct = [r for r, _ in session.decide_group(connected_ff_pairs(circuit))]
    assert direct == detected.pair_results
    options = DetectorOptions()
    assert session.backtrack_limit == options.backtrack_limit
    assert session.packed_mode == options.packed_implication


def _pre_sat_tier_fingerprint(options: DetectorOptions) -> str:
    """``options_fingerprint`` as written before the SAT tier existed."""
    parts = [
        "frames=2",
        f"engine={options.search_engine}",
        f"backtrack={options.backtrack_limit}",
        f"static_learning={options.static_learning}",
        f"implication_db={options.implication_db}",
    ]
    return hashlib.sha256("\x1f".join(parts).encode()).hexdigest()


def test_bundle_from_before_the_sat_tier_is_re_decided():
    """An old bundle's UNDECIDED pairs are re-decided, not inherited."""
    circuit = SMALL["syn170"]
    options = DetectorOptions(backtrack_limit=50)
    fresh = MultiCycleDetector(circuit, options).run()
    old = result_bundle(fresh, options)
    old["fingerprint"] = _pre_sat_tier_fingerprint(options)
    searched = [
        record for record in old["records"]
        if record["stage"] in (Stage.ATPG.value, Stage.SAT.value)
    ]
    assert searched
    for record in searched:
        # What an aborted 50-backtrack search left before the SAT tier.
        record["classification"] = Classification.UNDECIDED.value
        record["stage"] = Stage.ATPG.value
    rerun = incremental_detect(circuit, options, old)
    assert rerun.incremental["inherited"] == 0
    assert rerun.incremental["re_decided"] == rerun.incremental["survivors"]
    assert records_json(rerun) == records_json(fresh)
    again = incremental_detect(circuit, options, result_bundle(rerun, options))
    assert again.incremental["re_decided"] == 0


def test_search_engine_is_left_out_of_a_zero_budget_fingerprint():
    """At budget 0 no search runs, so a bundle decided with one search
    engine is inherited whole by a run with another."""
    circuit = SMALL["syn170"]
    podem = DetectorOptions(search_engine="podem")
    bundle = result_bundle(MultiCycleDetector(circuit, podem).run(), podem)
    rerun = incremental_detect(circuit, DetectorOptions(), bundle)
    assert rerun.incremental["re_decided"] == 0
    assert records_json(rerun) == records_json(
        MultiCycleDetector(circuit, DetectorOptions()).run()
    )
    assert options_fingerprint(
        DetectorOptions(backtrack_limit=50), circuit
    ) != options_fingerprint(
        DetectorOptions(backtrack_limit=50, search_engine="podem"), circuit
    )
