"""Experiment A1 — ablations of the pipeline's design choices.

The paper's speed comes from stage layering (cheap simulation first,
implication second, search last) plus optional static learning and the
backtrack limit.  Each ablation here quantifies one choice:

* random simulation on/off (Table 2's premise),
* static learning on/off (used by the paper on the hardest circuits),
* backtrack-limit sweep (how the work splits between the ATPG search and
  the SAT tier that decides what it aborts on),
* simulation word count (patterns per round).
"""

from __future__ import annotations


import pytest

from repro.core.detector import DetectorOptions, detect_multi_cycle_pairs
from repro.reporting.tables import format_table

from conftest import PROFILE, record_report
from repro.bench_gen.suite import suite

_CIRCUITS = suite(PROFILE)
_IDS = [c.name for c in _CIRCUITS]
_ABLATION_CIRCUIT = _CIRCUITS[-1]  # largest in profile


@pytest.mark.parametrize("use_sim", [True, False], ids=["sim", "nosim"])
def test_random_sim_ablation(benchmark, use_sim):
    options = DetectorOptions(use_random_sim=use_sim)
    result = benchmark(detect_multi_cycle_pairs, _ABLATION_CIRCUIT, options)
    assert result.connected_pairs > 0


@pytest.mark.parametrize("learning", [False, True], ids=["plain", "learned"])
def test_static_learning_ablation(benchmark, learning):
    options = DetectorOptions(static_learning=learning)
    result = benchmark(detect_multi_cycle_pairs, _ABLATION_CIRCUIT, options)
    if learning:
        assert result.learned_implications >= 0


@pytest.mark.parametrize("limit", [0, 5, 50, 500])
def test_backtrack_limit_sweep(benchmark, limit):
    options = DetectorOptions(backtrack_limit=limit)
    result = benchmark(detect_multi_cycle_pairs, _ABLATION_CIRCUIT, options)
    # The SAT tier settles whatever the search aborts on, at every limit.
    assert result.connected_pairs > 0
    assert not result.undecided_pairs


@pytest.mark.parametrize("words", [1, 4, 16])
def test_sim_words_sweep(benchmark, words):
    options = DetectorOptions(sim_words=words)
    result = benchmark(detect_multi_cycle_pairs, _ABLATION_CIRCUIT, options)
    assert result.connected_pairs > 0


def test_ablation_invariants_and_report(benchmark, bench_circuits):
    """Verdicts must be identical across all ablation settings; only the
    cost and the undecided set may move."""
    rows = []
    references = benchmark.pedantic(
        lambda: [detect_multi_cycle_pairs(c) for c in bench_circuits],
        rounds=1, iterations=1,
    )
    for circuit, reference in zip(bench_circuits, references):
        variants = {
            "baseline": reference,
            "no-sim": detect_multi_cycle_pairs(
                circuit, DetectorOptions(use_random_sim=False)
            ),
            "learned": detect_multi_cycle_pairs(
                circuit, DetectorOptions(static_learning=True)
            ),
        }
        for name, variant in variants.items():
            if name != "baseline":
                assert (variant.multi_cycle_pair_names()
                        == reference.multi_cycle_pair_names()), (
                    f"{name} changed verdicts on {circuit.name}"
                )
        rows.append([
            circuit.name,
            len(reference.multi_cycle_pairs),
            variants["baseline"].total_seconds,
            variants["no-sim"].total_seconds,
            variants["learned"].total_seconds,
        ])
    record_report(format_table(
        "Ablation A1: verdict-preserving variants (CPU seconds)",
        ["circuit", "MC-pair", "baseline", "no-sim", "learned"],
        rows,
        ["All variants classify every pair identically."],
    ))
