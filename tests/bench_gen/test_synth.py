"""The synthetic circuit generator: validity, determinism, MC content."""

import pytest

from repro.bench_gen.synth import CircuitSpec, generate
from repro.circuit.bench import dumps, loads
from repro.circuit.netlist import validate
from repro.core.detector import detect_multi_cycle_pairs


def _spec(**overrides):
    base = dict(name="t", num_inputs=3, counter_width=3, num_banks=3,
                bank_width=3, logic_per_bank=10, spacing=2,
                plain_registers=2, shift_tail=2, seed=5)
    base.update(overrides)
    return CircuitSpec(**base)


def test_generated_circuit_is_valid():
    circuit = generate(_spec())
    validate(circuit)
    assert circuit.inputs and circuit.outputs and circuit.dffs


def test_deterministic_per_seed():
    first = generate(_spec())
    second = generate(_spec())
    assert dumps(first) == dumps(second)


def test_different_seeds_differ():
    first = generate(_spec(seed=1))
    second = generate(_spec(seed=2))
    assert dumps(first) != dumps(second)


def test_ff_count_accounting():
    spec = _spec()
    circuit = generate(spec)
    expected = (spec.counter_width + spec.num_banks * spec.bank_width
                + spec.plain_registers + spec.shift_tail)
    assert len(circuit.dffs) == expected


def test_spacing_two_produces_multi_cycle_pairs():
    circuit = generate(_spec())
    result = detect_multi_cycle_pairs(circuit)
    assert result.multi_cycle_pairs
    # Adjacent banks with spacing 2 must be multi-cycle.
    names = dict.fromkeys(result.multi_cycle_pair_names())
    assert ("b0_r0", "b1_r0") in names


def test_spacing_one_banks_are_single_cycle():
    circuit = generate(_spec(spacing=1, counter_width=2))
    result = detect_multi_cycle_pairs(circuit)
    names = result.multi_cycle_pair_names()
    assert ("b0_r0", "b1_r0") not in names


def test_shift_tail_pairs_single_cycle():
    circuit = generate(_spec())
    result = detect_multi_cycle_pairs(circuit)
    names = result.multi_cycle_pair_names()
    assert ("sh0", "sh1") not in names


def test_round_trips_through_bench():
    circuit = generate(_spec())
    restored = loads(dumps(circuit))
    assert restored.stats() == circuit.stats()


@pytest.mark.parametrize(
    "kwargs",
    [dict(num_banks=0), dict(bank_width=0), dict(counter_width=0),
     dict(num_inputs=0)],
)
def test_bad_specs_rejected(kwargs):
    with pytest.raises(ValueError):
        _spec(**kwargs)


def test_single_bank_circuit():
    circuit = generate(_spec(num_banks=1, plain_registers=0, shift_tail=0))
    validate(circuit)
    assert detect_multi_cycle_pairs(circuit).connected_pairs > 0


def test_hard_enables_exercises_atpg():
    """Partial-decode banks force a search stage to prove some MC pairs:
    the ATPG search at the paper's budget, the SAT tier at the default
    zero budget."""
    from repro.core.detector import DetectorOptions
    from repro.core.result import Stage

    spec = CircuitSpec("hard", num_inputs=4, counter_width=4, num_banks=5,
                       bank_width=4, logic_per_bank=12, spacing=2,
                       plain_registers=3, shift_tail=3, hard_enables=True,
                       seed=9)
    circuit = generate(spec)
    paper = detect_multi_cycle_pairs(circuit, DetectorOptions(backtrack_limit=50))
    assert paper.stats[Stage.ATPG].multi_cycle > 0
    assert not paper.undecided_pairs
    result = detect_multi_cycle_pairs(circuit)
    assert result.stats[Stage.SAT].multi_cycle > 0
    assert result.stats[Stage.ATPG].multi_cycle == 0
    assert not result.undecided_pairs


def test_hard_enables_agrees_with_sat_baseline():
    from repro.sat.mc_sat import sat_detect_multi_cycle_pairs

    spec = _spec(counter_width=4, num_banks=4, hard_enables=True, seed=9)
    circuit = generate(spec)
    ours = detect_multi_cycle_pairs(circuit)
    sat = sat_detect_multi_cycle_pairs(circuit)
    assert ours.multi_cycle_pair_names() == sat.multi_cycle_pair_names()
