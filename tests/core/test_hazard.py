"""Static hazard checking: the paper's Section 5 claims on Fig. 3/Fig. 4."""

import dataclasses

from repro.analysis.hazard_exact import ExactHazardChecker
from repro.bench_gen.suite import spec_by_name
from repro.bench_gen.synth import generate
from repro.circuit.builder import CircuitBuilder
from repro.circuit.techmap import techmap
from repro.circuit.timeframe import expand, expand_cached
from repro.circuit.topology import FFPair
from repro.core.detector import detect_multi_cycle_pairs
from repro.core.hazard import HazardChecker, SourcePremises, check_hazards
from repro.core.result import Classification, PairResult, Stage
from repro.core.sensitization import (
    PathSearchOutcome,
    SensitizationMode,
    find_sensitizable_path,
)
from repro.atpg.implication import ImplicationEngine

from hypothesis import given, settings
from tests.oracles.hazard_reference import reference_find_sensitizable_path
from tests.strategies import random_sequential_circuit, seeds, shuffled


def _pair_names(circuit, pair_results):
    return sorted(
        (circuit.names[p.pair.source], circuit.names[p.pair.sink])
        for p in pair_results
    )


def test_fig3_ff3_ff2_flagged_by_sensitization(fig3):
    """The paper's Fig. 3 example: the MC pair (FF3, FF2) admits a static
    hazard through MUX2's AND/OR structure, found by static sensitization."""
    detection = detect_multi_cycle_pairs(fig3)
    result = check_hazards(fig3, detection,
                           SensitizationMode.STATIC_SENSITIZATION)
    flagged = _pair_names(fig3, result.flagged_pairs)
    assert ("FF3", "FF2") in flagged


def test_fig3_hazard_witness_runs_through_mux2(fig3):
    detection = detect_multi_cycle_pairs(fig3)
    checker = HazardChecker(fig3, SensitizationMode.STATIC_SENSITIZATION)
    target = next(
        p for p in detection.multi_cycle_pairs
        if (fig3.names[p.pair.source], fig3.names[p.pair.sink]) == ("FF3", "FF2")
    )
    report = checker.check_pair(target)
    assert report.has_potential_hazard
    path_names = [checker.expansion.comb.names[n] for n in report.witness_path]
    assert any("MUX2" in name for name in path_names)


def test_cosensitization_flags_superset(fig3):
    """Every pair flagged by sensitization is flagged by co-sensitization
    (a statically sensitizable path is statically co-sensitizable)."""
    detection = detect_multi_cycle_pairs(fig3)
    sens = check_hazards(fig3, detection,
                         SensitizationMode.STATIC_SENSITIZATION)
    cosens = check_hazards(fig3, detection,
                           SensitizationMode.STATIC_CO_SENSITIZATION)
    assert set(_pair_names(fig3, sens.flagged_pairs)) <= set(
        _pair_names(fig3, cosens.flagged_pairs)
    )


@given(seeds)
def test_table3_ordering_on_random_circuits(seed):
    """before >= kept(sensitize) >= kept(co-sensitize) must always hold."""
    circuit = techmap(
        random_sequential_circuit(seed, max_inputs=2, max_dffs=3, max_gates=8)
    )
    detection = detect_multi_cycle_pairs(circuit)
    before = len(detection.multi_cycle_pairs)
    kept_sens = len(
        check_hazards(circuit, detection,
                      SensitizationMode.STATIC_SENSITIZATION,
                      backtrack_limit=10_000, max_attempts=50_000).verified_pairs
    )
    kept_cosens = len(
        check_hazards(circuit, detection,
                      SensitizationMode.STATIC_CO_SENSITIZATION,
                      backtrack_limit=10_000, max_attempts=50_000).verified_pairs
    )
    assert before >= kept_sens >= kept_cosens


def test_fig4_path_cosensitizable_but_not_sensitizable(fig4):
    """The Fig. 4 fragment: with side input B at 0, the A -> C path is
    statically co-sensitizable but not statically sensitizable."""
    expansion = expand(fig4, 2)
    engine = ImplicationEngine(expansion.comb)
    comb = expansion.comb
    a_index = expansion.ff_index(fig4.id_of("A"))
    b_index = expansion.ff_index(fig4.id_of("B"))
    a_node = expansion.ff_at[1][a_index]  # FF A's value entering frame 2
    b_node = expansion.ff_at[1][b_index]
    c_node = comb.id_of("C@1")            # the AND gate inside frame 2
    allowed = {c_node}
    assert engine.assume(b_node, 0)  # B presents the controlling value

    sens = find_sensitizable_path(
        engine, a_node, c_node, allowed,
        SensitizationMode.STATIC_SENSITIZATION,
    )
    assert sens.outcome is PathSearchOutcome.NONE

    cosens = find_sensitizable_path(
        engine, a_node, c_node, allowed,
        SensitizationMode.STATIC_CO_SENSITIZATION,
    )
    assert cosens.outcome is PathSearchOutcome.FOUND


def test_path_search_restores_engine(fig4):
    expansion = expand(fig4, 2)
    engine = ImplicationEngine(expansion.comb)
    comb = expansion.comb
    a_node = expansion.ff_at[1][expansion.ff_index(fig4.id_of("A"))]
    before = list(engine.assignment.values)
    find_sensitizable_path(
        engine, a_node, comb.id_of("C@1"), {comb.id_of("C@1")},
        SensitizationMode.STATIC_CO_SENSITIZATION,
    )
    assert list(engine.assignment.values) == before


def test_unreachable_source_is_none(fig3):
    checker = HazardChecker(fig3)
    comb = checker.expansion.comb
    engine = ImplicationEngine(comb)
    # A frame-2 PI cannot reach a frame-1-only node.
    result = find_sensitizable_path(
        engine, comb.id_of("IN@1"), comb.id_of("IN@0"), frozenset(),
        SensitizationMode.STATIC_SENSITIZATION,
    )
    assert result.outcome is PathSearchOutcome.NONE


def test_attempt_limit_flags_conservatively(fig3):
    detection = detect_multi_cycle_pairs(fig3)
    result = check_hazards(
        fig3, detection, SensitizationMode.STATIC_SENSITIZATION,
        max_attempts=0,
    )
    # With no search budget everything with a structural path is flagged.
    assert all(r.has_potential_hazard or r.witness_path is None
               for r in result.reports)


def test_hazard_appears_only_after_mapping(fig1, fig3):
    """The paper's core Section 5 insight: hazards are a property of the
    *implementation*.  On the composite-MUX fig1 the select path of the
    pair (FF3, FF2) is not statically sensitizable (the data inputs are
    forced equal whenever FF3 toggles), but the Fig. 3 AND/OR mapping of
    the same function exposes a sensitizable hazard path through
    MUX2's AND1/OR — hence hazard analysis runs on mapped netlists."""
    unmapped = check_hazards(
        fig1, detect_multi_cycle_pairs(fig1),
        SensitizationMode.STATIC_SENSITIZATION,
    )
    assert ("FF3", "FF2") not in _pair_names(fig1, unmapped.flagged_pairs)

    mapped = check_hazards(
        fig3, detect_multi_cycle_pairs(fig3),
        SensitizationMode.STATIC_SENSITIZATION,
    )
    assert ("FF3", "FF2") in _pair_names(fig3, mapped.flagged_pairs)


def test_classify_hazards_partitions_mc_pairs(fig3):
    from repro.core.hazard import HazardClass, classify_hazards

    detection = detect_multi_cycle_pairs(fig3)
    classes = classify_hazards(fig3, detection)
    total = sum(len(v) for v in classes.values())
    assert total == len(detection.multi_cycle_pairs)
    # The paper's Fig. 3 pair is outright hazardous.
    hazardous = _pair_names(fig3, classes[HazardClass.HAZARDOUS])
    assert ("FF3", "FF2") in hazardous
    # (FF1, FF2) is clean under sensitization but co-sensitization flags
    # it: the dependency class of §5.2.
    dependent = _pair_names(fig3, classes[HazardClass.DEPENDENT])
    assert ("FF1", "FF2") in dependent


@given(seeds)
def test_classify_hazards_consistent_with_individual_checks(seed):
    from repro.core.hazard import HazardClass, classify_hazards

    circuit = techmap(
        random_sequential_circuit(seed, max_inputs=2, max_dffs=3, max_gates=8)
    )
    detection = detect_multi_cycle_pairs(circuit)
    classes = classify_hazards(circuit, detection,
                               backtrack_limit=10_000, max_attempts=50_000)
    sens = check_hazards(circuit, detection,
                         SensitizationMode.STATIC_SENSITIZATION,
                         backtrack_limit=10_000, max_attempts=50_000)
    assert len(classes[HazardClass.HAZARDOUS]) == len(sens.flagged_pairs)


# ----------------------------------------------------------------------
# Held source premises: one shared checker answers like a fresh one.
# ----------------------------------------------------------------------
def _syn090_variant(seed):
    """A mapped syn090 variant: several multi-cycle sinks per launch FF."""
    spec = dataclasses.replace(spec_by_name("syn090"), seed=seed)
    circuit = techmap(generate(spec))
    survivors = sorted(
        detect_multi_cycle_pairs(circuit).multi_cycle_pairs,
        key=lambda r: (r.pair.source, r.pair.sink),
    )
    return circuit, survivors


def _report_key(report):
    return (
        report.has_potential_hazard,
        report.witness_case,
        report.witness_path,
        report.limited,
    )


def _by_pair(results, key):
    return {(r.pair_result.pair.source, r.pair_result.pair.sink): key(r)
            for r in results}


@given(seeds)
@settings(max_examples=6)
def test_shared_checker_matches_fresh_checker_per_pair(seed):
    circuit, survivors = _syn090_variant(seed)
    assert len(survivors) > len({r.pair.source for r in survivors})
    expansion = expand_cached(circuit, frames=2)
    for mode in SensitizationMode:
        in_order = HazardChecker(circuit, mode, expansion=expansion).check_pairs(
            survivors
        )
        interleaved = HazardChecker(
            circuit, mode, expansion=expansion
        ).check_pairs(shuffled(survivors, seed))
        fresh = [
            HazardChecker(circuit, mode, expansion=expansion).check_pair(r)
            for r in survivors
        ]
        expected = [_report_key(r) for r in fresh]
        assert [_report_key(r) for r in in_order] == expected
        assert _by_pair(interleaved, _report_key) == _by_pair(fresh, _report_key)


@given(seeds)
@settings(max_examples=4)
def test_exact_checker_matches_fresh_checker_per_pair(seed):
    circuit, survivors = _syn090_variant(seed)
    expansion = expand_cached(circuit, frames=2)
    checker = ExactHazardChecker(circuit, expansion)
    shared = checker.check_pairs(survivors)
    fresh = [
        ExactHazardChecker(circuit, expansion).check_pair(r) for r in survivors
    ]

    def key(verdict):
        return (verdict.pair, verdict.verdict, verdict.decided_by,
                verdict.witness_case)

    assert [key(v) for v in shared] == [key(v) for v in fresh]
    # Source-ordered input assumes each source premise at most once per
    # toggle direction, however many bounds and cases reuse it.
    launch_ffs = {r.pair.source for r in survivors}
    assert 0 < checker.summary()["source_premises"] <= 2 * len(launch_ffs)


@given(seeds)
@settings(max_examples=4)
def test_corridor_search_matches_unpruned_search(seed):
    """Confining the walk to the open corridor keeps the outcome and the
    first found path, and never costs attempts, whenever the unpruned
    walk stays inside its budget."""
    circuit, survivors = _syn090_variant(seed)
    expansion = expand_cached(circuit, frames=2)
    premises = SourcePremises(expansion)
    compared = 0
    for mode in SensitizationMode:
        for max_attempts in (5000, 8):
            for pair_result in survivors:
                source = expansion.ff_index(pair_result.pair.source)
                sink = expansion.ff_index(pair_result.pair.sink)
                target = expansion.ff_at[2][sink]
                for a, b in HazardChecker._satisfiable_cases(pair_result):
                    engine = premises.engine(source, a)
                    if engine is None:
                        continue
                    mark = engine.checkpoint()
                    if engine.assume_all(
                        [(expansion.ff_at[1][sink], b), (target, b)]
                    ):
                        kwargs = dict(
                            source=expansion.ff_at[1][source],
                            target=target,
                            allowed=premises.frame2_nodes,
                            mode=mode,
                            max_attempts=max_attempts,
                            reach=premises.cone(target),
                        )
                        result = find_sensitizable_path(engine, **kwargs)
                        expected = reference_find_sensitizable_path(
                            engine, **kwargs
                        )
                        if expected.attempts <= max_attempts:
                            compared += 1
                            assert result.outcome is expected.outcome
                            assert result.path == expected.path
                            assert result.attempts <= expected.attempts
                    engine.backtrack(mark)
    assert compared > 0


def test_contradicting_source_premise_skips_cases_and_resets():
    """A launch FF that cannot toggle skips every case; the next launch
    FF still gets an engine holding nothing but its own premise."""
    builder = CircuitBuilder("stuck")
    stuck = builder.dff("STUCK")
    builder.drive(stuck, builder.buf(stuck, name="hold"))
    toggler = builder.dff("TOG")
    builder.drive(toggler, builder.not_(toggler, name="flip"))
    sink = builder.dff(
        "SINK",
        d=builder.and_(stuck, toggler, builder.input("en"), name="g"),
    )
    builder.output("po", sink)
    circuit = builder.build()
    expansion = expand_cached(circuit, frames=2)

    def bare(source):
        return PairResult(
            FFPair(source, sink), Classification.MULTI_CYCLE, Stage.ATPG
        )

    checker = HazardChecker(circuit, SensitizationMode.STATIC_SENSITIZATION)
    premises = checker.premises
    report = checker.check_pair(bare(stuck))
    assert not report.has_potential_hazard and not report.limited
    assert premises.assumed == 2
    assert premises.engine(expansion.ff_index(stuck), 0) is None
    assert premises.engine(expansion.ff_index(stuck), 1) is None

    expected = HazardChecker(
        circuit, SensitizationMode.STATIC_SENSITIZATION
    ).check_pair(bare(toggler))
    assert _report_key(checker.check_pair(bare(toggler))) == _report_key(expected)
    assert premises.assumed == 4

    index = expansion.ff_index(toggler)
    for a in (0, 1):
        engine = premises.engine(index, a)
        fresh = SourcePremises(expansion).engine(index, a)
        assert engine is not None and fresh is not None
        assert engine.assignment.values == fresh.assignment.values
        assert engine.unjustified == fresh.unjustified
    assert premises.assumed == 4
