"""Per-pair reference detection: the differential oracle of the executor.

Runs the paper's flow stage by stage over a materialized pair list, with
no launch groups, units, packing or workers: every connected pair
(:func:`connected_ff_pairs`), one random-filter pass over the list, one
``decide`` call per survivor, and one ``check_pairs`` call per
multi-cycle pair.  The production fold (:func:`repro.core.pipeline.detect`)
must produce the same records, counters and hazard outcomes.
"""

from __future__ import annotations

from repro.circuit.topology import connected_ff_pairs
from repro.core.deciders import create_decider
from repro.core.pipeline import (
    AnalysisContext,
    DetectorOptions,
    hazard_flagged,
    make_hazard_checker,
)
from repro.core.random_filter import random_filter, random_filter_k
from repro.core.result import (
    Classification,
    DetectionResult,
    PairResult,
    Stage,
    StageStats,
)


def reference_detect(circuit, options=None, frames=2, decider=None):
    options = options or DetectorOptions()
    ctx = AnalysisContext(circuit, options)
    pairs = connected_ff_pairs(circuit, options.include_self_loops)
    connected = len(pairs)
    results: list[PairResult] = []
    if options.use_random_sim and pairs:
        kw = dict(words=options.sim_words, max_rounds=options.sim_max_rounds,
                  seed=options.sim_seed, round_batch=options.sim_round_batch)
        report = (random_filter(circuit, pairs, **kw) if frames == 2
                  else random_filter_k(circuit, pairs, frames, **kw))
        results += [PairResult(p, Classification.SINGLE_CYCLE, Stage.SIMULATION)
                    for p in report.dropped_pairs]
        pairs = report.survivors
    decider = decider or create_decider(options.search_engine)
    decider.prepare(ctx)
    results += [decider.decide(pair) for pair in pairs]
    results.sort(key=lambda r: (r.pair.source, r.pair.sink))
    stats = {stage: StageStats() for stage in Stage}
    for r in results:
        counts = stats[r.stage]
        if r.classification is Classification.MULTI_CYCLE:
            counts.multi_cycle += 1
        elif r.classification is Classification.SINGLE_CYCLE:
            counts.single_cycle += 1
        else:
            counts.undecided += 1
    mode = options.hazard_check
    multi = [r for r in results if r.is_multi_cycle] if mode != "off" else []
    flagged, verdicts, checker = [], [], None
    for r in multi:
        checker = checker or make_hazard_checker(ctx, mode)
        checked = checker.check_pairs([r])
        verdicts += checked if mode == "exact" else []
        flagged += hazard_flagged(mode, checked)
    exact = None
    if mode == "exact":
        from repro.analysis.hazard_exact import empty_exact_summary

        exact = checker.summary() if checker else empty_exact_summary()
    return DetectionResult(
        circuit, connected, results, stats, 0.0,
        learned_implications=getattr(decider, "learned_implications", 0),
        engine=decider.name,
        disagreements=list(getattr(decider, "disagreements", [])),
        hazard_mode=mode, hazard_checked=len(multi),
        hazard_flagged=len(flagged), hazard_flagged_pairs=flagged,
        hazard_verdicts=verdicts,
        hazard_exact=exact,
    )
