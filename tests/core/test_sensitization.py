"""Unit tests for the per-gate sensitization extension options."""


from repro.circuit.builder import CircuitBuilder
from repro.core.sensitization import (
    PathSearchOutcome,
    SensitizationMode,
    _extension_options,
    find_sensitizable_path,
    open_corridor,
)
from repro.atpg.implication import ImplicationEngine
from repro.logic.values import ONE, ZERO


def _engine_for(build):
    builder = CircuitBuilder("t")
    build(builder)
    circuit = builder.build()
    return circuit, ImplicationEngine(circuit)


def test_and_gate_options():
    def build(b):
        a, c, d = b.input("a"), b.input("c"), b.input("d")
        b.output("o", b.and_(a, c, d, name="g"))

    circuit, engine = _engine_for(build)
    gate = circuit.id_of("g")
    via = circuit.id_of("a")
    sens = _extension_options(engine, gate, via,
                              SensitizationMode.STATIC_SENSITIZATION)
    # One option: both side inputs non-controlling (1 for AND).
    assert sens == [[(circuit.id_of("c"), ONE), (circuit.id_of("d"), ONE)]]

    cosens = _extension_options(engine, gate, via,
                                SensitizationMode.STATIC_CO_SENSITIZATION)
    assert len(cosens) == 2
    assert [(via, ZERO)] in cosens  # on-input at the controlling value


def test_or_gate_noncontrolling_is_zero():
    def build(b):
        a, c = b.input("a"), b.input("c")
        b.output("o", b.or_(a, c, name="g"))

    circuit, engine = _engine_for(build)
    sens = _extension_options(
        engine, circuit.id_of("g"), circuit.id_of("a"),
        SensitizationMode.STATIC_SENSITIZATION,
    )
    assert sens == [[(circuit.id_of("c"), ZERO)]]


def test_xor_gate_unconstrained():
    def build(b):
        a, c = b.input("a"), b.input("c")
        b.output("o", b.xor(a, c, name="g"))

    circuit, engine = _engine_for(build)
    for mode in SensitizationMode:
        assert _extension_options(
            engine, circuit.id_of("g"), circuit.id_of("a"), mode
        ) is None


def test_mux_options_by_role():
    def build(b):
        s, d0, d1 = b.input("s"), b.input("d0"), b.input("d1")
        b.output("o", b.mux(s, d0, d1, name="g"))

    circuit, engine = _engine_for(build)
    gate = circuit.id_of("g")
    s, d0, d1 = (circuit.id_of(n) for n in ("s", "d0", "d1"))
    via_select = _extension_options(engine, gate, s,
                                    SensitizationMode.STATIC_SENSITIZATION)
    assert len(via_select) == 2  # d0 != d1, both polarities
    via_d0 = _extension_options(engine, gate, d0,
                                SensitizationMode.STATIC_SENSITIZATION)
    assert via_d0 == [[(s, ZERO)]]
    via_d1 = _extension_options(engine, gate, d1,
                                SensitizationMode.STATIC_SENSITIZATION)
    assert via_d1 == [[(s, ONE)]]


def test_search_finds_multi_gate_path():
    def build(b):
        a, k1, k2 = b.input("a"), b.input("k1"), b.input("k2")
        g1 = b.and_(a, k1, name="g1")
        g2 = b.or_(g1, k2, name="g2")
        b.output("o", g2)

    circuit, engine = _engine_for(build)
    result = find_sensitizable_path(
        engine, circuit.id_of("a"), circuit.id_of("g2"),
        {circuit.id_of("g1"), circuit.id_of("g2")},
        SensitizationMode.STATIC_SENSITIZATION,
    )
    assert result.outcome is PathSearchOutcome.FOUND
    assert [circuit.names[n] for n in result.path] == ["a", "g1", "g2"]


def test_search_blocked_by_assumed_side_value():
    def build(b):
        a, k1 = b.input("a"), b.input("k1")
        b.output("o", b.and_(a, k1, name="g1"))

    circuit, engine = _engine_for(build)
    assert engine.assume(circuit.id_of("k1"), ZERO)  # controlling: blocks
    result = find_sensitizable_path(
        engine, circuit.id_of("a"), circuit.id_of("g1"),
        {circuit.id_of("g1")},
        SensitizationMode.STATIC_SENSITIZATION,
    )
    assert result.outcome is PathSearchOutcome.NONE


def _blocked_chain(b):
    a, k1, k2 = b.input("a"), b.input("k1"), b.input("k2")
    g1 = b.and_(a, k1, name="g1")
    b.output("o", b.or_(g1, k2, name="g2"))


def test_controlling_side_input_at_root_empties_corridor():
    circuit, engine = _engine_for(_blocked_chain)
    assert engine.assume(circuit.id_of("k1"), ZERO)  # closes a -> g1
    result = find_sensitizable_path(
        engine, circuit.id_of("a"), circuit.id_of("g2"),
        {circuit.id_of("g1"), circuit.id_of("g2")},
        SensitizationMode.STATIC_SENSITIZATION,
    )
    assert result.outcome is PathSearchOutcome.NONE
    assert result.attempts == 0
    assert result.corridor_empty


def test_attempt_limit_still_bites_inside_corridor():
    circuit, engine = _engine_for(_blocked_chain)
    allowed = {circuit.id_of("g1"), circuit.id_of("g2")}
    assert open_corridor(
        engine, circuit.id_of("a"), circuit.id_of("g2"), allowed,
        SensitizationMode.STATIC_SENSITIZATION,
        circuit.transitive_fanin([circuit.id_of("g2")]),
    ) == {circuit.id_of(n) for n in ("a", "g1", "g2")}
    result = find_sensitizable_path(
        engine, circuit.id_of("a"), circuit.id_of("g2"), allowed,
        SensitizationMode.STATIC_SENSITIZATION, max_attempts=0,
    )
    assert result.outcome is PathSearchOutcome.UNKNOWN
    assert not result.corridor_empty
