"""Exact SAT-backed hazard classification: oracle differential + bounds.

Three layers of evidence that :class:`ExactHazardChecker` decides the
single-source X-propagation condition exactly:

* a brute-force *enumerative oracle* that tries every binary input
  assignment of the 2-frame expansion and re-evaluates the second frame
  ternarily with the source's state entry forced to X — the checker's
  verdict must match it bit for bit on small random circuits (including
  parity/MUX-heavy ones, where reconvergence is densest);
* *bound consistency* — a sensitizable path (justification-verified)
  forces ``glitch-proven``; a clean co-sensitization pass forces
  ``safe``;
* *non-interference* — ``pair_records()`` must be byte-identical with
  and without the exact stage, and the streaming/incremental execution
  paths must reproduce the staged verdicts;
* *bound order* — the co-sensitize-first checker over corridor-confined
  searches reaches the verdicts, witnesses and SAT counters of the
  sensitize-first reference over unpruned searches
  (``tests/oracles/hazard_reference.py``).

The delay-annotated re-filter gets deterministic unit tests: a single
X-path cannot pulse under any delay assignment, while unequal-depth
reconvergence under unit delays can.
"""

from __future__ import annotations

import json
import random
from itertools import product

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.analysis.hazard_exact import (
    ExactHazardChecker,
    empty_exact_summary,
    verdict_flags_pair,
)
from repro.circuit.builder import CircuitBuilder
from repro.circuit.gates import GateType
from repro.circuit.netlist import Circuit, validate
from repro.circuit.techmap import techmap
from repro.circuit.timeframe import expand, expand_cached
from repro.circuit.topology import FFPair
from repro.core.detector import DetectorOptions, MultiCycleDetector
from repro.core.hazard import HazardChecker, SourcePremises
from repro.core.incremental import incremental_detect, result_bundle
from repro.core.result import (
    Classification,
    HazardVerdictKind,
    PairResult,
    Stage,
)
from repro.core.sensitization import SensitizationMode
from repro.core.ternary_hazard import ternary_eval
from repro.logic.simulator import evaluate_gate
from repro.logic.values import X
from repro.sta.delays import GateDelays
from tests.oracles.hazard_reference import ReferenceExactHazardChecker
from tests.oracles.reference_detect import reference_detect
from tests.strategies import random_sequential_circuit, seeds


def _detect(circuit, **kw):
    return MultiCycleDetector(circuit, DetectorOptions(**kw)).run()


# ----------------------------------------------------------------------
# The enumerative oracle.
# ----------------------------------------------------------------------
def _phase_eval(circuit, expansion, full, source_node):
    """Second-frame ternary values with only ``source_node`` forced to X."""
    node_map = expansion.node_at[1]
    phase = {
        node: full[node] for node in dict.fromkeys(expansion.ff_at[1])
    }
    phase[source_node] = X
    for node in expansion.pi_at[1]:
        phase.setdefault(node, full[node])
    for node in circuit.topo_order():
        gate_type = circuit.types[node]
        if gate_type in (GateType.INPUT, GateType.DFF):
            continue
        copy = node_map[node]
        if gate_type is GateType.CONST0:
            phase[copy] = 0
            continue
        if gate_type is GateType.CONST1:
            phase[copy] = 1
            continue
        phase[copy] = evaluate_gate(
            gate_type,
            [phase[node_map[f]] for f in circuit.fanins[node]],
        )
    return phase


def oracle_glitches(circuit, expansion, pair, cases):
    """Does ANY premise-satisfying binary assignment drive the sink to X?"""
    comb = expansion.comb
    inputs = list(comb.inputs)
    source = expansion.ff_index(pair.source)
    sink = expansion.ff_index(pair.sink)
    source_node = expansion.ff_at[1][source]
    target = expansion.ff_at[2][sink]
    ffi_t = expansion.ff_at[0][source]
    ffj_t1 = expansion.ff_at[1][sink]
    for bits in product((0, 1), repeat=len(inputs)):
        full = ternary_eval(comb, dict(zip(inputs, bits)))
        for a, b in cases:
            if full[ffi_t] != a or full[source_node] != 1 - a:
                continue
            if full[ffj_t1] != b or full[target] != b:
                continue
            phase = _phase_eval(circuit, expansion, full, source_node)
            if phase[target] == X:
                return True
    return False


def _assert_matches_oracle(circuit):
    detection = _detect(circuit, hazard_check="exact")
    expansion = expand(circuit, frames=2)
    assume(len(expansion.comb.inputs) <= 12)
    by_pair = {
        (r.pair.source, r.pair.sink): r for r in detection.pair_results
    }
    for verdict in detection.hazard_verdicts:
        pair_result = by_pair[(verdict.pair.source, verdict.pair.sink)]
        cases = HazardChecker._satisfiable_cases(pair_result)
        expected = oracle_glitches(circuit, expansion, verdict.pair, cases)
        # Small circuits must always resolve: no budget exhaustion here.
        assert verdict.verdict is not HazardVerdictKind.GLITCH_POSSIBLE
        assert (
            verdict.verdict is HazardVerdictKind.GLITCH_PROVEN
        ) == expected, (
            f"{circuit.name}: pair {verdict.pair} verdict "
            f"{verdict.verdict.value} (by {verdict.decided_by}) but "
            f"oracle says glitches={expected}"
        )
    summary = detection.hazard_exact
    assert summary is not None
    assert summary["resolution_fraction"] == 1.0


@given(seeds)
@settings(max_examples=25)
def test_exact_matches_enumerative_oracle(seed):
    circuit = random_sequential_circuit(
        seed, max_inputs=3, max_dffs=4, max_gates=10
    )
    _assert_matches_oracle(circuit)


def _parity_mux_circuit(seed: int) -> Circuit:
    """XOR/MUX-biased random circuit: maximal X-propagation density."""
    rng = random.Random(seed)
    heavy = [GateType.XOR, GateType.XNOR, GateType.MUX, GateType.MUX]
    circuit = Circuit(f"parity{seed}")
    pool = [
        circuit.add_node(GateType.INPUT, (), f"pi{i}")
        for i in range(rng.randint(1, 2))
    ]
    dffs = [
        circuit.add_node(GateType.DFF, (0,), f"ff{i}")
        for i in range(rng.randint(2, 4))
    ]
    pool.extend(dffs)
    for g in range(rng.randint(2, 8)):
        gate_type = rng.choice(heavy)
        if gate_type is GateType.MUX:
            fanins = tuple(rng.choice(pool) for _ in range(3))
        else:
            fanins = tuple(rng.choice(pool) for _ in range(2))
        pool.append(circuit.add_node(gate_type, fanins, f"g{g}"))
    for dff in dffs:
        circuit.set_fanins(dff, (rng.choice(pool),))
    circuit.add_node(GateType.OUTPUT, (pool[-1],), "po0")
    validate(circuit)
    return circuit


@given(seeds)
@settings(max_examples=25)
# A MUX whose select reconverges with a data input: MUX(X, X, d) is X
# although the settled values close every select-constrained option.
@example(seed=273)
@example(seed=524)
@example(seed=1107)
@example(seed=1238)
@example(seed=1982)
@example(seed=27410)
def test_exact_matches_oracle_on_parity_mux_circuits(seed):
    _assert_matches_oracle(_parity_mux_circuit(seed))


# ----------------------------------------------------------------------
# Bound consistency: sensitize-FOUND <= exact <= cosensitize-clean.
# ----------------------------------------------------------------------
@given(seeds)
@settings(max_examples=20)
def test_exact_respects_sensitization_bounds(seed):
    circuit = random_sequential_circuit(seed, max_dffs=5, max_gates=18)
    detection = _detect(circuit, hazard_check="exact")
    if not detection.hazard_verdicts:
        return
    sens = HazardChecker(circuit, SensitizationMode.STATIC_SENSITIZATION)
    cosens = HazardChecker(
        circuit, SensitizationMode.STATIC_CO_SENSITIZATION
    )
    by_pair = {
        (r.pair.source, r.pair.sink): r for r in detection.pair_results
    }
    for verdict in detection.hazard_verdicts:
        pair_result = by_pair[(verdict.pair.source, verdict.pair.sink)]
        found = sens.check_pair(pair_result)
        if found.has_potential_hazard and not found.limited:
            # Lower bound: a justification-verified path IS a glitch.
            assert verdict.verdict is HazardVerdictKind.GLITCH_PROVEN
        cleared = cosens.check_pair(pair_result)
        if not cleared.has_potential_hazard:
            # Upper bound: no co-sensitized path means no glitch.
            assert verdict.verdict is HazardVerdictKind.SAFE


# ----------------------------------------------------------------------
# Bound order: co-sensitize first, searches confined to the corridor.
# ----------------------------------------------------------------------
#: counters the sensitize-first reference does not reproduce: it
#: re-assumes source premises in another order and counts no skips,
#: searches or empty corridors of the new order.
_ORDER_COUNTERS = {
    "source_premises", "sensitize_skipped", "path_searches", "corridor_empty",
}


def _verdict_fields(verdict):
    return (verdict.pair, verdict.verdict, verdict.decided_by,
            verdict.witness_case, verdict.witness, verdict.delay_safe)


def _assert_matches_sensitize_first(circuit, with_delays):
    survivors = _detect(circuit).multi_cycle_pairs
    expansion = expand_cached(circuit, frames=2)
    delays = GateDelays() if with_delays else None
    checker = ExactHazardChecker(circuit, expansion, delays=delays)
    reference = ReferenceExactHazardChecker(circuit, expansion, delays=delays)
    verdicts = checker.check_pairs(survivors)
    assert [_verdict_fields(v) for v in verdicts] == [
        _verdict_fields(v) for v in reference.check_pairs(survivors)
    ]
    summary = checker.summary()
    expected = reference.summary()
    for key in _ORDER_COUNTERS:
        del summary[key], expected[key]
    assert summary == expected
    cleared = sum(v.decided_by == "cosensitize" for v in verdicts)
    assert checker.counters["sensitize_skipped"] == cleared


@given(seeds, st.booleans())
@settings(max_examples=25)
def test_cosensitize_first_matches_sensitize_first(seed, with_delays):
    circuit = random_sequential_circuit(seed, max_dffs=5, max_gates=18)
    _assert_matches_sensitize_first(circuit, with_delays)


@given(seeds, st.booleans())
@settings(max_examples=25)
def test_cosensitize_first_matches_sensitize_first_on_parity_mux(
    seed, with_delays
):
    _assert_matches_sensitize_first(_parity_mux_circuit(seed), with_delays)


@given(seeds)
@settings(max_examples=25)
def test_clean_cosensitization_leaves_no_sensitized_path(seed):
    """The premise of the bound order, case by case: when no case has a
    co-sensitizable path, no case has a sensitizable one."""
    circuit = techmap(random_sequential_circuit(seed, max_dffs=5,
                                                max_gates=18))
    expansion = expand_cached(circuit, frames=2)
    premises = SourcePremises(expansion)
    sens = HazardChecker(circuit, SensitizationMode.STATIC_SENSITIZATION,
                         expansion=expansion, premises=premises)
    cosens = HazardChecker(circuit, SensitizationMode.STATIC_CO_SENSITIZATION,
                           expansion=expansion, premises=premises)
    for pair_result in _detect(circuit).multi_cycle_pairs:
        if not cosens.check_pair(pair_result).has_potential_hazard:
            report = sens.check_pair(pair_result)
            assert report.witness_path is None and not report.limited


def test_exact_counters_reach_result_and_trace(fig3):
    from repro.core.trace import Tracer

    tracer = Tracer()
    detection = MultiCycleDetector(
        fig3, DetectorOptions(hazard_check="exact"), tracer=tracer
    ).run()
    (record,) = tracer.select("hazard_stage")
    assert record["exact"] == detection.hazard_exact
    summary = detection.hazard_exact
    assert summary is not None
    cleared = sum(
        v.decided_by == "cosensitize" for v in detection.hazard_verdicts
    )
    assert summary["sensitize_skipped"] == cleared
    assert summary["path_searches"] >= summary["corridor_empty"] >= 0
    assert summary["path_searches"] > 0
    for key in ("sat_decisions", "sat_conflicts", "sat_propagations"):
        assert record["exact"][key] == summary[key] >= 0


@given(seeds)
@settings(max_examples=25)
def test_sat_counters_are_the_solver_work_of_the_solves(seed):
    """``sat_decisions`` / ``sat_conflicts`` / ``sat_propagations`` are
    the solver's stat deltas over its solves; only the encoding's own
    root propagation is left out."""
    circuit = _parity_mux_circuit(seed)
    checker = ExactHazardChecker(circuit)
    checker.check_pairs(_detect(circuit).multi_cycle_pairs)
    summary = checker.summary()
    solver = checker._solver
    if solver is None:
        assert summary["sat_solves"] == 0
        assert summary["sat_propagations"] == 0
        return
    assert summary["sat_decisions"] == solver.stats.decisions
    assert summary["sat_conflicts"] == solver.stats.conflicts
    assert 0 < summary["sat_propagations"] <= solver.stats.propagations


# ----------------------------------------------------------------------
# Non-interference and execution-path parity.
# ----------------------------------------------------------------------
@given(seeds)
@settings(max_examples=15)
def test_pair_records_byte_identical_with_and_without_exact(seed):
    circuit = random_sequential_circuit(seed, max_dffs=5, max_gates=16)
    base = _detect(circuit, hazard_check="off")
    exact = _detect(circuit, hazard_check="exact")
    assert json.dumps(base.pair_records(), sort_keys=True) == json.dumps(
        exact.pair_records(), sort_keys=True
    )


def _verdict_fingerprint(detection):
    return [
        (v.pair, v.verdict.value, v.witness_case, v.delay_safe)
        for v in detection.hazard_verdicts
    ]


@given(seeds)
@settings(max_examples=10)
def test_streaming_exact_matches_staged(seed):
    """The fold's per-batch exact pass matches one check per pair."""
    circuit = random_sequential_circuit(seed, max_dffs=6, max_gates=20)
    folded = _detect(circuit, hazard_check="exact")
    reference = reference_detect(
        circuit, DetectorOptions(hazard_check="exact")
    )
    assert _verdict_fingerprint(folded) == _verdict_fingerprint(reference)
    assert folded.hazard_exact == reference.hazard_exact
    assert folded.hazard_flagged_pairs == reference.hazard_flagged_pairs
    assert json.dumps(folded.pair_records(), sort_keys=True) == json.dumps(
        reference.pair_records(), sort_keys=True
    )


@given(seeds)
@settings(max_examples=10)
def test_incremental_inherits_exact_verdicts(seed):
    circuit = random_sequential_circuit(seed, max_dffs=5, max_gates=16)
    options = DetectorOptions(hazard_check="exact")
    prior = _detect(circuit, hazard_check="exact")
    bundle = result_bundle(prior, options)
    merged = incremental_detect(circuit, options, bundle=bundle)
    # Identity ECO: every verdict inherits, kinds and flags unchanged.
    kinds = [
        (v.pair, v.verdict.value) for v in merged.hazard_verdicts
    ]
    assert kinds == [
        (v.pair, v.verdict.value) for v in prior.hazard_verdicts
    ]
    assert merged.hazard_flagged_pairs == prior.hazard_flagged_pairs
    assert all(
        v.decided_by == "inherited" for v in merged.hazard_verdicts
    )


def _single_ff_circuit() -> Circuit:
    builder = CircuitBuilder("lone")
    ff = builder.dff("ff0")
    builder.drive(ff, builder.not_(builder.input("pi"), name="g"))
    builder.output("po0", ff)
    return builder.build()


def test_empty_exact_summary_shape():
    summary = empty_exact_summary()
    assert summary["resolution_fraction"] == 1.0
    assert summary["checked"] == 0
    # Zero multi-cycle survivors still report a complete exact pass.
    detection = _detect(_single_ff_circuit(), hazard_check="exact")
    assert detection.hazard_exact is not None
    assert detection.hazard_exact["resolution_fraction"] == 1.0


# ----------------------------------------------------------------------
# Delay-annotated re-filtering.
# ----------------------------------------------------------------------
def _mc_pair_result(source: int, sink: int) -> PairResult:
    """A bare multi-cycle record (no cases: all four premises tried)."""
    return PairResult(
        FFPair(source, sink), Classification.MULTI_CYCLE, Stage.ATPG
    )


def _single_path_circuit():
    builder = CircuitBuilder("single-path")
    enable = builder.input("en")
    source = builder.dff("FFS")
    sink = builder.dff("FFK", d=builder.and_(source, enable, name="g"))
    builder.drive(source, builder.input("d"))
    return builder.build(), source, sink


def test_single_x_path_is_glitch_proven_without_delays():
    circuit, source, sink = _single_path_circuit()
    checker = ExactHazardChecker(circuit)
    verdict = checker.check_pair(_mc_pair_result(source, sink))
    assert verdict.verdict is HazardVerdictKind.GLITCH_PROVEN
    assert verdict.delay_safe is None
    assert verdict_flags_pair(verdict)


def test_delay_filter_kills_single_x_path():
    """One X-path means earliest == latest: no pulse can ever form."""
    circuit, source, sink = _single_path_circuit()
    checker = ExactHazardChecker(circuit, delays=GateDelays())
    verdict = checker.check_pair(_mc_pair_result(source, sink))
    assert verdict.verdict is HazardVerdictKind.GLITCH_PROVEN
    assert verdict.decided_by == "exact"
    assert verdict.delay_safe is True
    assert not verdict_flags_pair(verdict)
    assert checker.counters["delay_filtered"] == 1


def test_delay_filter_keeps_unequal_depth_reconvergence():
    """src AND not(src): path depths 1 vs 2, so unit delays pulse."""
    builder = CircuitBuilder("reconv")
    source = builder.dff("FFS")
    sink = builder.dff(
        "FFK",
        d=builder.and_(source, builder.not_(source, name="inv"), name="g"),
    )
    builder.drive(source, builder.input("d"))
    circuit = builder.build()
    checker = ExactHazardChecker(circuit, delays=GateDelays())
    verdict = checker.check_pair(_mc_pair_result(source, sink))
    assert verdict.verdict is HazardVerdictKind.GLITCH_PROVEN
    assert verdict.delay_safe is False
    assert verdict_flags_pair(verdict)


def test_delay_filter_balanced_reconvergence_through_pipeline(tmp_path):
    """Balanced depths cancel: the pipeline un-flags the proven glitch."""
    builder = CircuitBuilder("balanced")
    source = builder.dff("FFS")
    sink = builder.dff(
        "FFK",
        d=builder.and_(
            builder.buf(source, name="fwd"),
            builder.not_(source, name="inv"),
            name="g",
        ),
    )
    builder.drive(source, builder.input("d"))
    circuit = builder.build()
    sidecar = tmp_path / "delays.json"
    sidecar.write_text(json.dumps({"default": {"min": 1.0, "max": 1.0}}))

    plain = _detect(circuit, hazard_check="exact")
    filtered = _detect(
        circuit, hazard_check="exact", hazard_delays=str(sidecar)
    )
    by_pair = {
        (v.pair.source, v.pair.sink): v for v in plain.hazard_verdicts
    }
    assert by_pair[(source, sink)].verdict is (
        HazardVerdictKind.GLITCH_PROVEN
    )
    assert FFPair(source, sink) in plain.hazard_flagged_pairs

    by_pair = {
        (v.pair.source, v.pair.sink): v for v in filtered.hazard_verdicts
    }
    verdict = by_pair[(source, sink)]
    assert verdict.verdict is HazardVerdictKind.GLITCH_PROVEN
    assert verdict.delay_safe is True
    assert FFPair(source, sink) not in filtered.hazard_flagged_pairs
    # Non-hazard records stay byte-identical under the delay sidecar.
    assert json.dumps(plain.pair_records(), sort_keys=True) == json.dumps(
        filtered.pair_records(), sort_keys=True
    )


# ----------------------------------------------------------------------
# Delay sidecar parsing.
# ----------------------------------------------------------------------
def test_gate_delays_sidecar_parsing(tmp_path):
    payload = {
        "default": {"min": 1.0, "max": 2.0},
        "gates": {"g": {"min": 0.5, "max": 0.75}},
    }
    path = tmp_path / "d.json"
    path.write_text(json.dumps(payload))
    delays = GateDelays.load(path)
    assert delays.interval("g").max == 0.75
    assert delays.interval("anything-else").min == 1.0


def test_gate_delays_sidecar_validation(tmp_path):
    import pytest

    circuit, _, _ = _single_path_circuit()
    bad = tmp_path / "unknown.json"
    bad.write_text(json.dumps({"gates": {"nope": {"min": 1, "max": 1}}}))
    with pytest.raises(ValueError, match="unknown gate"):
        GateDelays.load(bad, circuit)

    with pytest.raises(ValueError):
        GateDelays.from_payload({"default": {"min": -1.0, "max": 0.0}})
    with pytest.raises(ValueError):
        GateDelays.from_payload({"default": {"min": 2.0, "max": 1.0}})
    with pytest.raises(ValueError):
        GateDelays.from_payload([1, 2, 3])
