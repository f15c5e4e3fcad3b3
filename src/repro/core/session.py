"""Shared-launch decision sessions: one engine, many FF pairs.

The MC condition of every case ``(a, b)`` for a pair ``(FF_i, FF_j)``
starts from the same *launch* assumption ``FF_i(t)=a, FF_i(t+1)=¬a`` —
identical for every pair sharing the launching FF.  The paper's literal
per-pair walk (the ``PairAnalyzer`` reference in
``tests/oracles/pair_analysis.py``) re-derives its implications from
scratch four times per pair; a
:class:`DecisionSession` instead walks the surviving pairs in *launch
runs* (consecutive pairs with the same source, which is how
:func:`~repro.circuit.topology.connected_ff_pairs` orders them), pushes
each launch assumption once per ``(FF_i, a)``, keeps the implied trail
segment on the engine, and per pair/case only replays the capture-side
assumption ``FF_j(t+1)=b``.  A contradiction at the launch level settles
both captures of *every* pair under that launcher at once.

Why the results are identical to fresh per-case derivation: the
implication rules are monotone functions of the current value state, so
the closure of a set of assumptions (and whether it contradicts) does
not depend on the order they are posted in, and the unjustified set is a
function of the final values (a gate is re-examined whenever its
neighborhood changes, so its last examination sees the final state).
Splitting the premise into launch prefix + capture suffix therefore
reaches the same fixpoint the one-shot ``assume_all`` did, and every
downstream search starts from an identical state — verdicts, decision
and backtrack counts, and witnesses all match byte for byte.  The
property tests in ``tests/core/test_session.py`` pin this down against
the fresh-engine oracle.

The session runs on the O(1)-checkpoint array engine of
:mod:`repro.atpg.implication` and is what the ``dalg``/``podem``/
``scoap`` deciders build in ``prepare()``; the parallel decision stage
shards whole launch runs so the prefix reuse survives in workers.

**The decision ladder.**  A case implication leaves open climbs
implication → ATPG search (``backtrack_limit`` backtracks; a zero
budget skips it) → SAT.  The SAT tier is one assumption solve on a
:class:`~repro.sat.tseitin.ConeEncoder` the session grows lazily: only
the fanin cones of ``FF_i@t``, ``FF_i@t+1``, ``FF_j@t+1`` and
``FF_j@t+2`` are encoded, and the solve decides only the case's own
cone variables, under a :data:`SAT_CONFLICT_LIMIT` budget.  UNSAT
proves the case stable (or contradicted, when implication had already
forced ``FF_j(t+2) = ¬b``); SAT is a violation with a model witness;
running out of conflicts leaves the pair UNDECIDED.

Records never depend on solve history.  The shared solver carries
clauses learned on earlier cases, which changes how fast it answers and
which model it finds, never whether a case is satisfiable.  So an UNSAT
answer is recorded without solver counters, and a SAT or budget answer
is re-solved on a fresh encoder over the case's own cone, whose answer
(and witness) is a function of that cone alone.  Records are then the
same for every worker count, unit size, packed mode and incremental
run — unless a history-warmed solve proves UNSAT a case a fresh solve
could not prove within the budget, which the budget's margin over the
conflicts cases need in practice (see docs/algorithms.md) keeps out of
reach.  Solving every case on a fresh encoder would need no such rule,
but it re-encodes each case's cones: on a syn6000 netlist that more
than doubles the SAT tier's time, which is why the session keeps one
shared solver.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

import numpy as np

from repro.circuit.csr import csr_arrays
from repro.circuit.timeframe import TimeFrameExpansion
from repro.circuit.topology import FFPair
from repro.logic.values import BINARY, X
from repro.atpg.implication import ImplicationEngine, LearnedTable
from repro.atpg.justify import SearchStatus, justify
from repro.core.result import (
    CaseOutcome,
    CaseResult,
    Classification,
    PairResult,
    Stage,
)

if TYPE_CHECKING:
    from repro.sat.tseitin import ConeEncoder

#: available backtrack-search engines (paper §4.5 compares these styles)
SEARCH_ENGINES = ("dalg", "podem")

#: ``packed`` modes accepted by :class:`DecisionSession` (and the CLI).
PACKED_MODES = ("auto", "on", "off")

#: ``packed="auto"`` enables lane packing at this many expanded
#: combinational nodes.  Below it the per-closure bookkeeping of the
#: packed engine rivals what the scalar cases cost outright; above it
#: the shared closure wins and keeps winning as circuits grow.
PACKED_AUTO_MIN_NODES = 160

#: conflict budget of one SAT-tier solve.  A case that exhausts it on
#: the shared solver and again on a fresh one stays ABORTED and its pair
#: UNDECIDED.  Far above what the benchmark workloads need per case.
SAT_CONFLICT_LIMIT = 20_000

#: a packed-closure case key: ``(pair index in the group, a, b)``.
CaseKey = tuple[int, int, int]


class PackedPass(NamedTuple):
    """What the packed closure learned about one group's cases."""

    #: cases it settled (contradiction or implied-stable), by key.
    resolved: dict[CaseKey, CaseResult]
    #: open cases whose closure forced ``FF_j(t+2) = ¬b``.
    forced: set[CaseKey]


def launch_runs(pairs: Sequence[FFPair]) -> list[tuple[int, int]]:
    """Half-open ``[start, end)`` runs of consecutive same-source pairs.

    ``connected_ff_pairs`` emits pairs sorted by ``(source, sink)``, and
    the random filter preserves that order, so in the pipeline each
    launching FF appears as exactly one run.  Arbitrary orderings are
    still handled correctly — scattered repeats of a source simply form
    several runs and share less.
    """
    runs: list[tuple[int, int]] = []
    index = 0
    total = len(pairs)
    while index < total:
        end = index + 1
        source = pairs[index].source
        while end < total and pairs[end].source == source:
            end += 1
        runs.append((index, end))
        index = end
    return runs


class DecisionSession:
    """Implication/ATPG/SAT decisions over one expansion, launch-prefix cached.

    Built once per expanded circuit (per process); :meth:`decide_group`
    settles a list of pairs and returns ``(PairResult, seconds)`` per
    pair in input order.  The defaults are the detector's
    (``DetectorOptions.backtrack_limit`` and ``packed_implication``), so
    a session built directly runs the same ladder the detector does.
    ``share_prefix=False`` disables the launch cache (each case
    re-derives the full three-assumption premise, the pre-session
    behaviour) — an ablation switch, reached through
    ``DetectorOptions.launch_prefix`` / ``--no-launch-prefix``.

    ``packed`` ("auto"/"on"/"off", via ``--packed-implication``) runs
    the group's cases through the bit-parallel closure of
    :mod:`repro.atpg.packed_implication` first: up to 64 cases per
    uint64 word share one implication fixpoint, and every case it
    proves contradicted or implied-stable skips the scalar engine
    entirely.  A case the closure leaves open goes straight to the SAT
    tier when ``backtrack_limit`` is 0, and to the scalar engine's
    search otherwise, so verdicts and ``pair_records`` are
    byte-identical in every mode; "auto" enables packing at
    :data:`PACKED_AUTO_MIN_NODES` expanded nodes.
    """

    def __init__(
        self,
        expansion: TimeFrameExpansion,
        *,
        backtrack_limit: int = 0,
        learned: LearnedTable | None = None,
        search_engine: str = "dalg",
        scoap_guidance: bool = False,
        share_prefix: bool = True,
        packed: str = "auto",
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if expansion.frames < 2:
            raise ValueError("pair decisions need at least a 2-frame expansion")
        if search_engine not in SEARCH_ENGINES:
            raise ValueError(f"unknown search engine {search_engine!r}")
        if packed not in PACKED_MODES:
            raise ValueError(f"unknown packed mode {packed!r}")
        self.expansion = expansion
        self.backtrack_limit = backtrack_limit
        self.share_prefix = share_prefix
        self.packed_mode = packed
        self.packed_enabled = packed == "on" or (
            packed == "auto"
            and expansion.comb.num_nodes >= PACKED_AUTO_MIN_NODES
        )
        self._learned = learned
        self._packed_engine = None
        self._cone: ConeEncoder | None = None
        self.clock = clock
        if search_engine == "podem":
            from repro.atpg.podem import podem_justify

            self._search = podem_justify
        elif scoap_guidance:
            from repro.atpg.scoap import compute_scoap, make_choice_sorter

            sorter = make_choice_sorter(compute_scoap(expansion.comb))

            def guided(engine, limit):
                return justify(engine, limit, choice_sorter=sorter)

            self._search = guided
        else:
            self._search = justify
        self.engine = ImplicationEngine(expansion.comb, learned=learned)
        # Session-lifetime observability counters (the decision_session
        # trace event and reporting totals read these via stats()).
        self.pairs_decided = 0
        self.prefix_hits = 0
        self.prefix_misses = 0
        self.launch_conflicts = 0
        self.trail_high_water = 0
        self.packed_lanes = 0
        self.packed_resolved = 0
        self.packed_fallbacks = 0
        self.packed_us = 0
        self.sat_solves = 0
        self.sat_refuted = 0
        self.sat_witnessed = 0
        self.sat_aborted = 0

    def stats(self) -> dict[str, int]:
        """Counter snapshot for the ``decision_session`` summary event.

        The packed counters appear only when lane packing is enabled, so
        the default-off snapshot (and the reports built from it) is
        unchanged.  Packing shifts work between counters — lanes the
        packed closure settles never touch the scalar engine, so
        ``implications`` and the prefix counters drop while the case
        records stay byte-identical; the packed block is what accounts
        for the difference.  The ``sat_*`` counters count SAT-tier cases
        by recorded answer (refuted, witnessed, aborted); like the
        records they do not depend on solve history.
        """
        stats = {
            "pairs": self.pairs_decided,
            "prefix_hits": self.prefix_hits,
            "prefix_misses": self.prefix_misses,
            "launch_conflicts": self.launch_conflicts,
            "implications": self.engine.implications,
            "trail_high_water": self.trail_high_water,
            "sat_solves": self.sat_solves,
            "sat_refuted": self.sat_refuted,
            "sat_witnessed": self.sat_witnessed,
            "sat_aborted": self.sat_aborted,
        }
        if self.packed_enabled:
            packed = self._packed_engine
            stats["packed_lanes"] = self.packed_lanes
            stats["packed_resolved"] = self.packed_resolved
            stats["packed_fallbacks"] = self.packed_fallbacks
            stats["packed_closures"] = packed.closures if packed else 0
            stats["packed_visits"] = packed.visits if packed else 0
            stats["packed_us"] = self.packed_us
        return stats

    # ------------------------------------------------------------------
    # Deciding.
    # ------------------------------------------------------------------
    def decide(self, pair: FFPair) -> PairResult:
        """Settle one pair (single-pair group; prefix still pushed once)."""
        return self.decide_group([pair])[0][0]

    def decide_group(
        self, pairs: Sequence[FFPair]
    ) -> list[tuple[PairResult, float]]:
        """Settle ``pairs`` in order; returns ``(result, seconds)`` each."""
        out: list[tuple[PairResult, float] | None] = [None] * len(pairs)
        packed: PackedPass | None = None
        packed_share = 0.0
        if self.packed_enabled and pairs:
            started = self.clock()
            packed = self._packed_resolve(pairs)
            packed_share = (self.clock() - started) / len(pairs)
        if self.share_prefix:
            for start, end in launch_runs(pairs):
                self._decide_run(pairs, start, end, out, packed)
        else:
            for index, pair in enumerate(pairs):
                out[index] = self._decide_fresh(pair, index, packed)
        self.pairs_decided += len(pairs)
        if packed_share:
            # The shared closure's cost is attributed evenly — per-pair
            # seconds stay meaningful and the group total is exact.
            for index, entry in enumerate(out):
                if entry is not None:
                    out[index] = (entry[0], entry[1] + packed_share)
        return out  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Packed pre-pass.
    # ------------------------------------------------------------------
    def _packed_resolve(self, pairs: Sequence[FFPair]) -> PackedPass:
        """Settle search-free cases of ``pairs`` in packed closures.

        Every pair contributes its four ``(a, b)`` cases as lanes of a
        :class:`~repro.atpg.packed_implication.PackedImplicationEngine`
        closure (chunked at the engine's lane capacity).  A lane whose
        premise conflicts is a ``CONTRADICTION``; a lane whose closure
        forces the target ``FF_j(t+2)`` to ``b`` — or leaves it X but
        contradicts on the stability probe ``FF_j(t+2) = 1-b`` — is
        ``IMPLIED_STABLE``.  Exactly those outcomes carry no search
        effort in the scalar path, so the returned records are
        byte-identical to what the fallback would have produced.  Every
        other lane is open; the ones whose closure forced the target to
        ``1-b`` are listed in ``forced``, which is what the scalar
        engine's own closure would have told the SAT tier.
        """
        from repro.atpg.packed_implication import (
            MAX_LANES,
            PackedImplicationEngine,
        )

        started = self.clock()
        engine = self._packed_engine
        if engine is None:
            engine = PackedImplicationEngine(
                self.expansion.comb, learned=self._learned
            )
            self._packed_engine = engine
        expansion = self.expansion
        ff_at = expansion.ff_at
        resolved: dict[CaseKey, CaseResult] = {}
        forced: set[CaseKey] = set()
        chunk = MAX_LANES // 4
        for chunk_start in range(0, len(pairs), chunk):
            block = pairs[chunk_start:chunk_start + chunk]
            lanes = len(block) * 4
            nodes = np.empty((lanes, 3), dtype=np.intp)
            values = np.empty((lanes, 3), dtype=np.uint8)
            targets = np.empty(lanes, dtype=np.intp)
            lane = 0
            for pair in block:
                source_index = expansion.ff_index(pair.source)
                sink_index = expansion.ff_index(pair.sink)
                ffi_t = ff_at[0][source_index]
                ffi_t1 = ff_at[1][source_index]
                ffj_t1 = ff_at[1][sink_index]
                ffj_t2 = ff_at[2][sink_index]
                for a in BINARY:
                    for b in BINARY:
                        nodes[lane] = (ffi_t, ffi_t1, ffj_t1)
                        values[lane] = (a, 1 - a, b)
                        targets[lane] = ffj_t2
                        lane += 1
            engine.close_matrix(nodes, values)
            lane_ids = np.arange(lanes)
            conflicted = engine.conflict_lanes(lane_ids)
            known, value = engine.read_nodes(targets, lane_ids)
            open_lanes = np.flatnonzero(~conflicted & (known == 0))
            probe_stable = np.zeros(lanes, dtype=bool)
            if len(open_lanes):
                engine.extend(
                    (int(l), int(targets[l]), 1 - (int(l) & 1))
                    for l in open_lanes
                )
                probe_stable[open_lanes] = engine.conflict_lanes(open_lanes)
            for lane in range(lanes):
                a, b = (lane >> 1) & 1, lane & 1
                key = (chunk_start + (lane >> 2), a, b)
                if conflicted[lane]:
                    outcome = CaseOutcome.CONTRADICTION
                elif known[lane]:
                    if value[lane] != b:
                        forced.add(key)  # implied unstable: search required
                        continue
                    outcome = CaseOutcome.IMPLIED_STABLE
                elif probe_stable[lane]:
                    outcome = CaseOutcome.IMPLIED_STABLE
                else:
                    continue  # target free both ways: search required
                resolved[key] = CaseResult(a, b, outcome)
            self.packed_lanes += lanes
        self.packed_resolved += len(resolved)
        self.packed_fallbacks += 4 * len(pairs) - len(resolved)
        self.packed_us += int((self.clock() - started) * 1e6)
        return PackedPass(resolved, forced)

    def _case_nodes(self, pair: FFPair) -> tuple[int, int, int, int]:
        """``(FF_i@t, FF_i@t+1, FF_j@t+1, FF_j@t+2)`` expanded node ids."""
        expansion = self.expansion
        source_index = expansion.ff_index(pair.source)
        sink_index = expansion.ff_index(pair.sink)
        return (
            expansion.ff_at[0][source_index],
            expansion.ff_at[1][source_index],
            expansion.ff_at[1][sink_index],
            expansion.ff_at[2][sink_index],
        )

    def _packed_case(
        self,
        packed: PackedPass | None,
        key: CaseKey,
        nodes: tuple[int, int, int, int],
    ) -> tuple[CaseResult, bool] | None:
        """The packed closure's answer for one case, if it settles it.

        ``(case, via_sat)`` for a case the closure resolved, or — at a
        zero backtrack budget, where no scalar search would run — for an
        open case, decided by the SAT tier without touching the scalar
        engine.  ``None`` sends the case to the scalar engine.
        """
        if packed is None:
            return None
        case = packed.resolved.get(key)
        if case is not None:
            return case, False
        if self.backtrack_limit > 0:
            return None
        _, a, b = key
        return self._sat_case(nodes, a, b, key in packed.forced), True

    def _decide_run(
        self,
        pairs: Sequence[FFPair],
        start: int,
        end: int,
        out: list,
        packed: PackedPass | None = None,
    ) -> None:
        """Settle one same-source run, sharing the launch prefixes.

        Per-pair case order stays ``(0,0),(0,1),(1,0),(1,1)`` with the
        usual short-circuit on VIOLATED/ABORTED; the rounds over ``a``
        are interleaved across the run's pairs so each prefix is pushed
        exactly once.  The prefix propagation is timed (and its
        implications counted) inside the first unsettled pair's block.

        ``packed`` (the packed pre-pass) supplies finished case records
        keyed by ``(pair index, a, b)``; the prefix push is lazy — it
        happens at the first case that needs the scalar engine, so a
        round the packed closure and the SAT tier settle never touches
        it.
        """
        engine = self.engine
        clock = self.clock
        count = end - start
        nodes = [self._case_nodes(pairs[start + i]) for i in range(count)]
        ffi_t, ffi_t1 = nodes[0][0], nodes[0][1]

        cases: list[list[CaseResult]] = [[] for _ in range(count)]
        verdict: list[tuple[Classification, Stage] | None] = [None] * count
        used_search = [False] * count
        used_sat = [False] * count
        seconds = [0.0] * count
        implications = [0] * count
        hits = [0] * count
        misses = [0] * count

        for a in BINARY:
            prefix_ok: bool | None = None
            mark = None
            for i in range(count):
                if verdict[i] is not None:
                    continue
                started = clock()
                posted_before = engine.implications
                prefix_counted = False
                for b in BINARY:
                    settled = self._packed_case(packed, (start + i, a, b), nodes[i])
                    if settled is None:
                        if prefix_ok is None:
                            mark = engine.checkpoint()
                            prefix_ok = engine.assume_all(
                                [(ffi_t, a), (ffi_t1, 1 - a)]
                            )
                            self.prefix_misses += 1
                            misses[i] += 1
                            if not prefix_ok:
                                self.launch_conflicts += 1
                            self._note_high_water()
                            prefix_counted = True
                        elif not prefix_counted:
                            self.prefix_hits += 1
                            hits[i] += 1
                            prefix_counted = True
                        if not prefix_ok:
                            # The launch assumption itself is impossible:
                            # the capture case is contradicted outright.
                            settled = (
                                CaseResult(a, b, CaseOutcome.CONTRADICTION),
                                False,
                            )
                        else:
                            settled = self._capture_case(nodes[i], a, b)
                    case, via_sat = settled
                    cases[i].append(case)
                    used_search[i] = used_search[i] or bool(case.decisions)
                    used_sat[i] = used_sat[i] or via_sat
                    verdict[i] = _case_verdict(case, via_sat)
                    if verdict[i] is not None:
                        break
                implications[i] += engine.implications - posted_before
                seconds[i] += clock() - started
            if mark is not None:
                engine.backtrack(mark)

        for i in range(count):
            result = PairResult(
                pairs[start + i],
                *_pair_verdict(verdict[i], used_search[i], used_sat[i]),
                cases[i],
                metrics={
                    "implications": implications[i],
                    "prefix_hits": hits[i],
                    "prefix_misses": misses[i],
                },
            )
            out[start + i] = (result, seconds[i])

    def _decide_fresh(
        self,
        pair: FFPair,
        index: int = 0,
        packed: PackedPass | None = None,
    ) -> tuple[PairResult, float]:
        """Full-premise path (``share_prefix=False``): the pre-session flow."""
        engine = self.engine
        started = self.clock()
        posted_before = engine.implications
        nodes = self._case_nodes(pair)

        cases: list[CaseResult] = []
        verdict: tuple[Classification, Stage] | None = None
        used_search = used_sat = False
        for a in BINARY:
            for b in BINARY:
                settled = self._packed_case(packed, (index, a, b), nodes)
                if settled is None:
                    settled = self._premise_case(nodes, a, b)
                case, via_sat = settled
                cases.append(case)
                used_search = used_search or bool(case.decisions)
                used_sat = used_sat or via_sat
                verdict = _case_verdict(case, via_sat)
                if verdict is not None:
                    break
            if verdict is not None:
                break
        result = PairResult(
            pair,
            *_pair_verdict(verdict, used_search, used_sat),
            cases,
            metrics={
                "implications": engine.implications - posted_before,
                "prefix_hits": 0,
                "prefix_misses": 0,
            },
        )
        return result, self.clock() - started

    # ------------------------------------------------------------------
    # Case analysis.  Each returns ``(case, via_sat)``.
    # ------------------------------------------------------------------
    def _capture_case(
        self, nodes: tuple[int, int, int, int], a: int, b: int
    ) -> tuple[CaseResult, bool]:
        """One case on top of an already-propagated launch prefix."""
        engine = self.engine
        mark = engine.checkpoint()
        try:
            if not engine.assume(nodes[2], b):
                return CaseResult(a, b, CaseOutcome.CONTRADICTION), False
            self._note_high_water()
            return self._case_tail(nodes, a, b)
        finally:
            engine.backtrack(mark)

    def _premise_case(
        self, nodes: tuple[int, int, int, int], a: int, b: int
    ) -> tuple[CaseResult, bool]:
        """One case deriving the full three-assumption premise from scratch."""
        engine = self.engine
        mark = engine.checkpoint()
        try:
            ffi_t, ffi_t1, ffj_t1, _ = nodes
            premise = [(ffi_t, a), (ffi_t1, 1 - a), (ffj_t1, b)]
            if not engine.assume_all(premise):
                return CaseResult(a, b, CaseOutcome.CONTRADICTION), False
            self._note_high_water()
            return self._case_tail(nodes, a, b)
        finally:
            engine.backtrack(mark)

    def _case_tail(
        self, nodes: tuple[int, int, int, int], a: int, b: int
    ) -> tuple[CaseResult, bool]:
        """Shared post-premise logic: implied value checks, then the ladder.

        Mirrors the reference ``PairAnalyzer._analyze_case``, including
        one refinement over the paper's Step 4.1.3: when implication
        derives ``FF_j(t+2) = ¬b`` the paper declares the pair
        single-cycle at once, but that needs the premise to be
        justifiable, so the search (or the SAT tier) confirms it — an
        unjustifiable premise counts as a contradiction.
        """
        engine = self.engine
        ffj_t2 = nodes[3]
        implied = engine.value(ffj_t2)
        if implied == b:
            return CaseResult(a, b, CaseOutcome.IMPLIED_STABLE), False
        forced = implied == 1 - b
        if not forced and not engine.assume(ffj_t2, 1 - b):
            return CaseResult(a, b, CaseOutcome.IMPLIED_STABLE), False
        if self.backtrack_limit <= 0:
            return self._sat_case(nodes, a, b, forced), True
        result = self._search(engine, self.backtrack_limit)
        if result.status is SearchStatus.SAT:
            return CaseResult(
                a, b, CaseOutcome.VIOLATED,
                result.decisions, result.backtracks, result.witness,
            ), False
        if result.status is SearchStatus.UNSAT:
            outcome = (
                CaseOutcome.CONTRADICTION if forced
                else CaseOutcome.PROVED_STABLE
            )
            return CaseResult(
                a, b, outcome, result.decisions, result.backtracks
            ), False
        # The backtrack budget ran out: escalate, keeping the search's
        # (deterministic) effort on the record.
        return self._sat_case(
            nodes, a, b, forced, result.decisions, result.backtracks
        ), True

    def _sat_case(
        self,
        nodes: tuple[int, int, int, int],
        a: int,
        b: int,
        forced: bool,
        decisions: int = 0,
        backtracks: int = 0,
    ) -> CaseResult:
        """Decide one case by an assumption solve over its cones.

        The premise ``FF_i(t)=a, FF_i(t+1)=¬a, FF_j(t+1)=b`` plus the
        violation ``FF_j(t+2)=¬b``: UNSAT settles the case (stable, or
        contradicted when ``forced``), SAT is a violation.  A SAT or
        budget answer of the shared solver is re-solved on a fresh
        encoder over this case's cones alone, and that answer is the
        one recorded (see the module docstring).
        """
        from repro.sat.solver import SolveStatus
        from repro.sat.tseitin import ConeEncoder

        values = (a, 1 - a, b, 1 - b)
        cone = self._cone
        if cone is None:
            cone = self._cone = ConeEncoder(self.expansion.comb)
        self.sat_solves += 1
        status = cone.solver.solve(
            [cone.lit(n, v) for n, v in zip(nodes, values)],
            conflict_limit=SAT_CONFLICT_LIMIT,
            scope=cone.cone_vars(nodes),
        )
        if status is not SolveStatus.UNSAT:
            cone = ConeEncoder(self.expansion.comb)
            status = cone.solver.solve(
                [cone.lit(n, v) for n, v in zip(nodes, values)],
                conflict_limit=SAT_CONFLICT_LIMIT,
            )
        if status is SolveStatus.UNSAT:
            self.sat_refuted += 1
            outcome = (
                CaseOutcome.CONTRADICTION if forced
                else CaseOutcome.PROVED_STABLE
            )
            return CaseResult(a, b, outcome, decisions, backtracks)
        if status is SolveStatus.SAT:
            self.sat_witnessed += 1
            # Shaped like an ATPG witness: every expanded input, X where
            # the case's cones do not reach.
            model = cone.input_values()
            witness = {
                node: model.get(node, X)
                for node in csr_arrays(self.expansion.comb).inputs
            }
            return CaseResult(
                a, b, CaseOutcome.VIOLATED, decisions, backtracks, witness
            )
        self.sat_aborted += 1
        return CaseResult(a, b, CaseOutcome.ABORTED, decisions, backtracks)

    def _note_high_water(self) -> None:
        depth = self.engine.assignment.num_assigned()
        if depth > self.trail_high_water:
            self.trail_high_water = depth


def _case_verdict(
    case: CaseResult, via_sat: bool
) -> tuple[Classification, Stage] | None:
    """The pair verdict one case forces, or ``None`` to go on."""
    if case.outcome is CaseOutcome.VIOLATED:
        if via_sat:
            return Classification.SINGLE_CYCLE, Stage.SAT
        stage = Stage.ATPG if case.decisions else Stage.IMPLICATION
        return Classification.SINGLE_CYCLE, stage
    if case.outcome is CaseOutcome.ABORTED:
        # Only the SAT tier aborts: an aborted search escalates to it.
        return Classification.UNDECIDED, Stage.SAT
    return None


def _pair_verdict(
    verdict: tuple[Classification, Stage] | None,
    used_search: bool,
    used_sat: bool,
) -> tuple[Classification, Stage]:
    """``(classification, stage)`` of a pair from its settled cases."""
    if verdict is not None:
        return verdict
    if used_sat:
        return Classification.MULTI_CYCLE, Stage.SAT
    if used_search:
        return Classification.MULTI_CYCLE, Stage.ATPG
    return Classification.MULTI_CYCLE, Stage.IMPLICATION
