"""The launch-group fold against the per-pair reference detection.

The fold's contract is *record identity*: for any circuit and any option
combination, ``pair_records()`` and every classification and hazard
counter of the :class:`~repro.core.result.DetectionResult` must match
the stage-by-stage per-pair reference of
:mod:`tests.oracles.reference_detect` exactly — whatever the launch
grouping, unit cut or worker count.  The tests here hold that equality
over random circuits (including the single-FF and self-loop-only
degenerate shapes), both self-loop modes, parallel workers, hazard
validation and the k-cycle variant.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings

from repro.circuit.builder import CircuitBuilder
from repro.circuit.library import s27
from repro.core.detector import DetectorOptions, MultiCycleDetector
from repro.core.kcycle import KCycleDecider, KCycleDetector
from repro.core.pipeline import PHASES, AnalysisContext, detect
from repro.core.result import Stage
from repro.core.trace import Tracer

from tests.oracles.reference_detect import reference_detect
from tests.strategies import random_sequential_circuit, seeds


def _run(circuit, tracer=None, **kw):
    return MultiCycleDetector(
        circuit, DetectorOptions(**kw), tracer=tracer
    ).run()


def _fingerprint(result):
    """Everything the differential must hold equal (no wall-clock floats)."""
    return (
        json.dumps(result.pair_records(), sort_keys=True),
        result.connected_pairs,
        {
            stage.name: (s.multi_cycle, s.single_cycle, s.undecided)
            for stage, s in result.stats.items()
        },
        result.learned_implications,
        result.engine,
        result.hazard_mode,
        result.hazard_checked,
        result.hazard_flagged,
        result.hazard_flagged_pairs,
        [
            (d.pair, d.primary, d.secondary)
            for d in result.disagreements
        ],
    )


def _assert_identical(circuit, **kw):
    folded = _fingerprint(_run(circuit, **kw))
    reference = _fingerprint(reference_detect(circuit, DetectorOptions(**kw)))
    assert folded == reference


@given(seeds)
@settings(max_examples=25)
def test_streaming_matches_staged_on_random_circuits(seed):
    circuit = random_sequential_circuit(seed, max_dffs=6, max_gates=20)
    _assert_identical(circuit)


@given(seeds)
@settings(max_examples=10)
def test_streaming_matches_staged_without_self_loops(seed):
    circuit = random_sequential_circuit(seed, max_dffs=6, max_gates=20)
    _assert_identical(circuit, include_self_loops=False)


@given(seeds)
@settings(max_examples=8)
def test_streaming_matches_staged_with_workers(seed):
    circuit = random_sequential_circuit(seed, max_dffs=6, max_gates=20)
    _assert_identical(circuit, workers=2, parallel_threshold=2)


@given(seeds)
@settings(max_examples=8)
def test_streaming_matches_staged_with_hazard(seed):
    circuit = random_sequential_circuit(seed, max_dffs=5, max_gates=16)
    _assert_identical(circuit, hazard_check="ternary")


@given(seeds)
@settings(max_examples=8)
def test_streaming_matches_staged_without_random_sim(seed):
    circuit = random_sequential_circuit(seed, max_dffs=5, max_gates=16)
    _assert_identical(circuit, use_random_sim=False)


def test_streaming_matches_on_paper_circuits(fig1):
    for circuit in (fig1, s27()):
        _assert_identical(circuit)
        _assert_identical(circuit, hazard_check="ternary", workers=2,
                          parallel_threshold=2)


def test_single_ff_self_loop_circuit():
    """Degenerate shape: one FF whose only pair is its own self loop."""
    builder = CircuitBuilder("one_ff")
    pi = builder.input("pi")
    ff = builder.dff("ff")
    builder.drive(ff, builder.xor(pi, ff, name="nxt"))
    builder.output("po", ff)
    circuit = builder.build()
    _assert_identical(circuit)
    _assert_identical(circuit, include_self_loops=False)
    result = _run(circuit, include_self_loops=False)
    assert result.connected_pairs == 0
    assert result.pair_results == []


def test_self_loop_only_circuit():
    """Two FFs, each feeding only itself: all pairs are self loops."""
    builder = CircuitBuilder("self_only")
    pi = builder.input("pi")
    fa = builder.dff("fa")
    fb = builder.dff("fb")
    builder.drive(fa, builder.xor(pi, fa, name="na"))
    builder.drive(fb, builder.and_(pi, fb, name="nb"))
    builder.output("poa", fa)
    builder.output("pob", fb)
    circuit = builder.build()
    _assert_identical(circuit)
    _assert_identical(circuit, include_self_loops=False)


def test_kcycle_streaming_matches_staged():
    circuit = random_sequential_circuit(7, max_dffs=6, max_gates=24)
    for k in (2, 3, 4):
        for workers in (1, 2):
            folded = KCycleDetector(
                circuit, k, workers=workers, parallel_threshold=2
            ).run()
            reference = reference_detect(
                circuit, frames=k, decider=KCycleDecider(k)
            )
            assert [
                (r.pair, r.classification) for r in folded.pair_results
            ] == [(r.pair, r.classification) for r in reference.pair_results]
            assert folded.connected_pairs == reference.connected_pairs
            assert folded.sim_dropped == (
                reference.stats[Stage.SIMULATION].single_cycle
            )


def test_streaming_enabled_modes(fig1):
    """``streaming`` selects nothing but is still validated."""
    records = _run(fig1).pair_records()
    for mode in ("auto", "on", "off"):
        assert _run(fig1, streaming=mode).pair_records() == records
    with pytest.raises(ValueError):
        DetectorOptions(streaming="sideways")


def test_streaming_trace_events(fig1):
    """One launch_group event per group, with a stream_topology header."""
    tracer = Tracer()
    result = _run(fig1, tracer=tracer)
    header = tracer.select("stream_topology")
    assert len(header) == 1
    assert header[0]["pairs"] == result.connected_pairs
    groups = tracer.select("launch_group")
    assert len(groups) == header[0]["groups"]
    assert [g["group_index"] for g in groups] == list(range(len(groups)))
    assert all(g["groups_total"] == len(groups) for g in groups)
    # The last fold has seen every settled pair.
    assert groups[-1]["folded"] == result.connected_pairs
    assert sum(g["dropped"] for g in groups) == 4  # fig1's sim-dropped pairs
    # No stage boundaries: run_end reports the seconds of every phase.
    assert tracer.select("stage_start") == []
    (end,) = tracer.select("run_end")
    assert list(end["phases"]) == list(PHASES)


def test_streaming_stage_rejects_single_frame(fig1):
    with pytest.raises(ValueError):
        detect(AnalysisContext(fig1), frames=1)


def test_streaming_pipeline_runs_standalone(fig1):
    """detect() on a bare context is a complete run."""
    result = detect(AnalysisContext(fig1))
    assert result.pair_records() == _run(fig1).pair_records()


def test_streaming_rejects_unknown_hazard_mode(fig1):
    with pytest.raises(ValueError):
        _run(fig1, hazard_check="sideways")
