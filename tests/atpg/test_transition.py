"""Transition-fault ATPG and the multi-cycle relaxation link."""

import itertools

from hypothesis import given

from repro.circuit.builder import CircuitBuilder
from repro.circuit.gates import GateType
from repro.circuit.timeframe import expand
from repro.core.detector import detect_multi_cycle_pairs
from repro.logic.simulator import Simulator, evaluate_gate
from repro.atpg.transition import (
    TransitionAtpg,
    TransitionFault,
    TransitionStatus,
    build_fault_miter,
    enumerate_transition_faults,
    relaxable_fault_sites,
    transition_relaxation_summary,
)

from tests.strategies import random_sequential_circuit, seeds


def _full_scan_miter(circuit, name, stuck):
    """Stuck-at miter over the 1-frame expansion with full-scan observation
    (PO drivers and next-state nodes)."""
    expansion = expand(circuit, frames=1)
    comb = expansion.comb
    observe = [comb.fanins[po][0] for po in comb.outputs]
    observe.extend(expansion.ff_at[1])
    observe = list(dict.fromkeys(observe))
    site = expansion.node_at[0][circuit.id_of(name)]
    return comb, site, observe, build_fault_miter(comb, site, stuck, observe)


def _evaluate_stuck(comb, input_values, site=None, stuck=0):
    """Evaluate a combinational circuit, ``site`` (if any) forced to ``stuck``."""
    values = {}
    for node in comb.topo_order():
        gate_type = comb.types[node]
        if node == site:
            values[node] = stuck
        elif gate_type == GateType.INPUT:
            values[node] = input_values[node]
        elif gate_type in (GateType.CONST0, GateType.CONST1):
            values[node] = int(gate_type == GateType.CONST1)
        else:
            values[node] = evaluate_gate(gate_type, [values[f] for f in comb.fanins[node]])
    return values


def _miter_outputs(comb, miter, out):
    """The miter output under every assignment of the free inputs."""
    sim = Simulator(miter)
    names = [comb.names[n] for n in comb.inputs]
    outputs = []
    for bits in itertools.product((0, 1), repeat=len(names)):
        sim.set_inputs(dict(zip(names, bits)))
        outputs.append(sim.value(out))
    return outputs


def test_fault_miter_of_unobservable_site_is_constant_zero():
    """Logic feeding nothing cannot be observed: the miter output is 0."""
    builder = CircuitBuilder("dead")
    a = builder.input("a")
    builder.not_(a, name="dangling")
    builder.output("o", builder.buf(a, name="keep"))
    circuit = builder.build()
    comb, _, _, (miter, out) = _full_scan_miter(circuit, "dangling", 1)
    assert set(_miter_outputs(comb, miter, out)) == {0}


def test_fault_miter_separates_redundant_from_testable():
    """x AND !x is constantly 0: its SA0 never shows, its SA1 does."""
    builder = CircuitBuilder("red")
    a = builder.input("a")
    na = builder.not_(a, name="na")
    g = builder.and_(a, na, name="g")
    out = builder.or_(g, builder.input("b"), name="out")
    builder.output("o", out)
    circuit = builder.build()
    comb, _, _, (miter, out) = _full_scan_miter(circuit, "g", 0)
    assert set(_miter_outputs(comb, miter, out)) == {0}
    comb, _, _, (miter, out) = _full_scan_miter(circuit, "g", 1)
    assert 1 in _miter_outputs(comb, miter, out)


@given(seeds)
def test_fault_miter_matches_exhaustive_check(seed):
    """The miter output is 1 exactly when the good and faulty circuits
    differ at some observation point, under every input vector."""
    circuit = random_sequential_circuit(seed, max_inputs=2, max_dffs=2,
                                        max_gates=6)
    sites = [
        circuit.names[n] for n in range(circuit.num_nodes)
        if circuit.types[n] not in (GateType.OUTPUT, GateType.CONST0, GateType.CONST1)
    ][:4]
    for name, stuck in itertools.product(sites, (0, 1)):
        comb, site, observe, (miter, out) = _full_scan_miter(circuit, name, stuck)
        expected = []
        for bits in itertools.product((0, 1), repeat=len(comb.inputs)):
            inputs = dict(zip(comb.inputs, bits))
            good = _evaluate_stuck(comb, inputs)
            faulty = _evaluate_stuck(comb, inputs, site, stuck)
            expected.append(int(any(good[n] != faulty[n] for n in observe)))
        assert _miter_outputs(comb, miter, out) == expected


def test_fault_naming(fig1):
    fault = TransitionFault(fig1.id_of("EN2"), rising=True)
    assert fault.name(fig1) == "EN2/STR"
    assert fault.initial_value == 0 and fault.final_value == 1


def test_shift_register_all_transitions_testable(shift4):
    report = TransitionAtpg(shift4).run()
    assert report.coverage == 1.0
    assert not report.by_status(TransitionStatus.UNTESTABLE)


def test_detected_patterns_launch_and_capture(fig1):
    """Verify each pattern by 2-cycle simulation: the site really takes
    the initial value in the launch frame and the final value at capture."""
    atpg = TransitionAtpg(fig1)
    expansion = atpg.expansion
    report = atpg.run()
    checked = 0
    for result in report.by_status(TransitionStatus.DETECTED):
        sim = Simulator(fig1)
        pattern = result.pattern
        sim.set_all_state([
            pattern[expansion.ff_at[0][k]] for k in range(len(fig1.dffs))
        ])
        sim.set_all_inputs([pattern[n] for n in expansion.pi_at[0]])
        launch_value = sim.value(result.fault.node)
        sim.clock()
        sim.set_all_inputs([pattern[n] for n in expansion.pi_at[1]])
        capture_value = sim.value(result.fault.node)
        assert launch_value == result.fault.initial_value
        assert capture_value == result.fault.final_value
        checked += 1
    assert checked > 0


def test_constant_node_untestable():
    """A node tied to a constant can never transition."""
    builder = CircuitBuilder("const")
    a = builder.input("a")
    zero = builder.const0("zero")
    g = builder.and_(a, zero, name="g")  # g is constant 0
    ff = builder.dff("ff", d=builder.or_(g, a, name="h"))
    builder.output("o", ff)
    circuit = builder.build()
    atpg = TransitionAtpg(circuit)
    result = atpg.generate_test(TransitionFault(g, rising=True))
    assert result.status is TransitionStatus.UNTESTABLE


def test_hold_only_register_untestable():
    """A self-holding FF (D = Q) never toggles between frames."""
    builder = CircuitBuilder("hold")
    ff = builder.dff("ff")
    builder.drive(ff, ff)
    builder.output("o", ff)
    circuit = builder.build()
    atpg = TransitionAtpg(circuit)
    result = atpg.generate_test(TransitionFault(ff, rising=True))
    assert result.status is TransitionStatus.UNTESTABLE


def test_enumerate_covers_both_polarities(s27_circuit):
    faults = enumerate_transition_faults(s27_circuit)
    assert len(faults) == 2 * (4 + 3 + 10)


def test_relaxable_sites_definition_on_fig1(fig1):
    detection = detect_multi_cycle_pairs(fig1)
    relaxable = relaxable_fault_sites(fig1, detection)
    # OUT observes FF2 directly: FF2 is in a PO cone, never relaxable.
    assert fig1.id_of("FF2") not in relaxable
    # FF1's only sinks are FF1 and FF2, both multi-cycle: relaxable.
    assert fig1.id_of("FF1") in relaxable
    # Definition check: every (source, sink) pair routed through a
    # relaxable node must be multi-cycle.
    multi_cycle = set(detection.multi_cycle_pair_names())
    for node in relaxable:
        node_sources = {
            s for s in fig1.transitive_fanin([node])
            if fig1.types[s] == GateType.DFF
        }
        for sink in fig1.dffs:
            cone = fig1.transitive_fanin([fig1.next_state_node(sink)])
            if node not in cone:
                continue
            for source in node_sources:
                assert (fig1.names[source], fig1.names[sink]) in multi_cycle


def test_relaxation_summary_consistency(fig1):
    detection = detect_multi_cycle_pairs(fig1)
    summary = transition_relaxation_summary(fig1, detection)
    assert summary.total_faults == summary.detected + summary.untestable \
        + summary.aborted
    assert 0 <= summary.relaxed <= summary.detected


def test_pipeline_has_relaxed_faults():
    """In a spaced enable pipeline, the inter-bank cloud sites are fully
    covered by multi-cycle budgets."""
    from repro.circuit.library import enabled_pipeline

    circuit = enabled_pipeline(2, counter_width=2, spacing=2)
    detection = detect_multi_cycle_pairs(circuit)
    summary = transition_relaxation_summary(circuit, detection)
    assert summary.relaxed > 0
