"""A from-scratch CDCL SAT solver (the substrate for the baseline of [9]).

The paper compares against Nakamura et al.'s SAT-based multi-cycle path
detector; no SAT solver may be imported here, so this module implements a
complete conflict-driven clause-learning solver:

* two-literal watching for unit propagation,
* 1-UIP conflict analysis with clause learning and non-chronological
  backjumping,
* VSIDS-style variable activities with exponential decay,
* phase saving and Luby-sequence restarts,
* incremental solving under assumptions (used to share one CNF of the
  2-frame expansion across all FF pairs),
* scoped solves that decide only a given set of variables and stop once
  it is assigned (the decision session's cone queries).

Literals follow the DIMACS convention: variable ``v >= 1``, literal ``+v``
or ``-v``.

The decision order is a lazy max-activity heap of ``(-activity, var)``
entries; entries at an outdated activity, or of assigned variables, are
skipped when popped.  The heap keeps one invariant: *every unassigned
variable has an entry at its current activity*.  A per-variable record
(``_queued``) names the activity of the variable's newest unpopped
entry, so backtracking pushes a variable only when no such entry is
left, and the heap is rebuilt from the activities once it holds more
than two entries per variable.  Neither changes a decision:
``_decide`` returns the smallest ``(-activity, var)`` among unassigned
variables at their current activity, the invariant guarantees such an
entry for every unassigned variable however many stale ones sit beside
it, and ``var`` breaks every tie.  So the heap no longer grows with the
number of incremental solves (the exact hazard check runs thousands of
assumption solves that end in the assumption prefix), and the search —
decisions, conflicts, learned clauses, models and :class:`SolverStats`
— is the same as with one push per unassignment.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import Enum


class SolveStatus(Enum):
    """Solver verdict (UNKNOWN only under a conflict limit)."""

    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


_UNASSIGNED = -1


def _luby(index: int) -> int:
    """The reluctant-doubling (Luby) sequence 1 1 2 1 1 2 4 ... (0-indexed)."""
    size = 1
    exponent = 0
    while size < index + 1:
        exponent += 1
        size = 2 * size + 1
    while size - 1 != index:
        size = (size - 1) // 2
        exponent -= 1
        index %= size
    return 1 << exponent


@dataclass
class SolverStats:
    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0
    restarts: int = 0
    learned_clauses: int = 0


class CdclSolver:
    """Conflict-driven clause-learning solver over DIMACS-style literals."""

    def __init__(self) -> None:
        self.num_vars = 0
        # Internal-literal clauses; a slot becomes None when a database
        # reduction deletes the learned clause living there.
        self.clauses: list[list[int] | None] = []
        self.watches: list[list[int]] = []          # internal lit -> clause ids
        self.values: list[int] = []                 # per var: 0/1/_UNASSIGNED
        self.levels: list[int] = []
        self.reasons: list[int] = []                # clause id or -1
        self.trail: list[int] = []                  # internal literals
        self.trail_lim: list[int] = []
        self.activity: list[float] = []
        self.phase: list[int] = []
        self.var_inc = 1.0
        self.var_decay = 0.95
        # Learned-clause bookkeeping for database reduction.
        self.is_learned: list[bool] = []
        self.clause_activity: list[float] = []
        self.clause_inc = 1.0
        self.max_learned = 4000
        self.stats = SolverStats()
        self._unsat = False
        self._qhead = 0
        # Lazy max-activity heap of (-activity, var); stale entries are
        # skipped at pop time (MiniSat-style order heap).
        self._order: list[tuple[float, int]] = []
        # Per var: the activity of its newest unpopped heap entry, or -1.0
        # when it has none (see the module docstring).
        self._queued: list[float] = []
        # Conflict-analysis marks, all zero between conflicts.
        self._seen = bytearray()

    # ------------------------------------------------------------------
    # Encoding helpers: external literal <-> internal literal.
    # ------------------------------------------------------------------
    @staticmethod
    def _lit(ext: int) -> int:
        var = abs(ext) - 1
        return 2 * var + (1 if ext < 0 else 0)

    @staticmethod
    def _ext(lit: int) -> int:
        var = lit // 2 + 1
        return -var if lit & 1 else var

    def new_var(self) -> int:
        """Allocate a fresh variable; returns its (positive) DIMACS index."""
        self.num_vars += 1
        self.values.append(_UNASSIGNED)
        self.levels.append(0)
        self.reasons.append(-1)
        self.activity.append(0.0)
        self.phase.append(0)
        self.watches.append([])
        self.watches.append([])
        self._seen.append(0)
        self._queued.append(0.0)
        heapq.heappush(self._order, (0.0, self.num_vars - 1))
        return self.num_vars

    def _ensure_vars(self, max_var: int) -> None:
        while self.num_vars < max_var:
            self.new_var()

    # ------------------------------------------------------------------
    # Clause management.
    # ------------------------------------------------------------------
    def add_clause(self, ext_clause: list[int]) -> bool:
        """Add a clause (at decision level 0); returns False if root-UNSAT."""
        if self._unsat:
            return False
        self._cancel_until(0)
        if ext_clause:
            self._ensure_vars(max(map(abs, ext_clause)))
        values = self.values
        seen: set[int] = set()
        clause: list[int] = []
        for ext in ext_clause:
            lit = 2 * ext - 2 if ext > 0 else -2 * ext - 1  # self._lit(ext)
            if lit ^ 1 in seen:
                return True  # tautology
            if lit in seen:
                continue
            seen.add(lit)
            value = values[lit >> 1]
            if value != _UNASSIGNED:
                # Back at level 0, every assigned variable is a root one.
                if value ^ (lit & 1):
                    return True  # already satisfied at root
                continue  # falsified at root: drop literal
            clause.append(lit)
        if not clause:
            self._unsat = True
            return False
        if len(clause) == 1:
            if not self._enqueue(clause[0], -1):
                self._unsat = True
                return False
            conflict = self._propagate()
            if conflict != -1:
                self._unsat = True
                return False
            return True
        clause_id = len(self.clauses)
        self.clauses.append(clause)
        self.is_learned.append(False)
        self.clause_activity.append(0.0)
        self.watches[clause[0] ^ 1].append(clause_id)
        self.watches[clause[1] ^ 1].append(clause_id)
        return True

    # ------------------------------------------------------------------
    # Assignment primitives.
    # ------------------------------------------------------------------
    def _lit_value(self, lit: int) -> int:
        value = self.values[lit // 2]
        if value == _UNASSIGNED:
            return _UNASSIGNED
        return value ^ (lit & 1)

    def _enqueue(self, lit: int, reason: int) -> bool:
        value = self._lit_value(lit)
        if value == 0:
            return False
        if value == 1:
            return True
        var = lit // 2
        self.values[var] = 1 ^ (lit & 1)
        self.levels[var] = len(self.trail_lim)
        self.reasons[var] = reason
        self.trail.append(lit)
        return True

    def _propagate(self) -> int:
        """Unit propagation; returns a conflicting clause id or -1."""
        trail = self.trail
        values = self.values
        levels = self.levels
        reasons = self.reasons
        watches = self.watches
        clauses = self.clauses
        level = len(self.trail_lim)
        head = self._qhead
        conflict = -1
        while head < len(trail):
            lit = trail[head]
            head += 1
            # Enqueuing ``lit`` falsifies ``lit ^ 1``; clauses watching that
            # literal are registered under ``watches[(lit ^ 1) ^ 1]``.
            false_lit = lit ^ 1
            watch_list = watches[lit]
            new_watch_list: list[int] = []
            keep = new_watch_list.append
            for i, clause_id in enumerate(watch_list):
                clause = clauses[clause_id]
                if clause is None:
                    continue  # deleted by a database reduction
                # Normalise: make clause[1] the false literal.
                if clause[0] == false_lit:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                value = values[first // 2]
                if value != _UNASSIGNED:
                    value ^= first & 1
                    if value == 1:
                        keep(clause_id)
                        continue
                for k in range(2, len(clause)):
                    other = clause[k]
                    other_value = values[other // 2]
                    if other_value == _UNASSIGNED or other_value ^ (other & 1):
                        clause[1], clause[k] = other, clause[1]
                        watches[other ^ 1].append(clause_id)
                        break
                else:
                    keep(clause_id)
                    if value == 0:
                        # Conflict: keep the remaining watchers and stop.
                        new_watch_list.extend(watch_list[i + 1:])
                        conflict = clause_id
                        break
                    var = first // 2
                    values[var] = 1 ^ (first & 1)
                    levels[var] = level
                    reasons[var] = clause_id
                    trail.append(first)
            watches[lit] = new_watch_list
            if conflict != -1:
                break
        self.stats.propagations += head - self._qhead
        self._qhead = len(trail) if conflict != -1 else head
        return conflict

    # ------------------------------------------------------------------
    # Conflict analysis (first UIP).
    # ------------------------------------------------------------------
    def _bump_var(self, var: int) -> None:
        activity = self.activity
        activity[var] += self.var_inc
        if activity[var] > 1e100:
            for v in range(self.num_vars):
                activity[v] *= 1e-100
            self.var_inc *= 1e-100
            self._rebuild_order()
        else:
            heapq.heappush(self._order, (-activity[var], var))
            self._queued[var] = activity[var]
            if len(self._order) > 2 * self.num_vars:
                self._rebuild_order()

    def _rebuild_order(self) -> None:
        """One fresh heap entry per variable, at its current activity."""
        self._order = [(-a, v) for v, a in enumerate(self.activity)]
        heapq.heapify(self._order)
        self._queued = list(self.activity)

    def _analyze(self, conflict: int) -> tuple[list[int], int]:
        """Return (learned clause, backjump level); clause[0] is the UIP."""
        learned: list[int] = [0]  # placeholder for the asserting literal
        seen = self._seen
        levels = self.levels
        trail = self.trail
        counter = 0
        lit = -1
        index = len(trail) - 1
        reason = conflict
        current_level = len(self.trail_lim)

        while True:
            # Reason clauses keep their asserted literal at position 0, so
            # resolution skips it; the conflict clause contributes all lits.
            clause = self.clauses[reason]
            assert clause is not None  # reasons are locked against deletion
            if self.is_learned[reason]:
                self._bump_clause(reason)
            for k in range(0 if lit == -1 else 1, len(clause)):
                q = clause[k]
                var = q // 2
                if not seen[var] and levels[var] > 0:
                    seen[var] = 1
                    self._bump_var(var)
                    if levels[var] >= current_level:
                        counter += 1
                    else:
                        learned.append(q)
            # Find the next literal to resolve on.
            while not seen[trail[index] // 2]:
                index -= 1
            lit = trail[index]
            index -= 1
            var = lit // 2
            seen[var] = 0
            counter -= 1
            if counter == 0:
                break
            reason = self.reasons[var]

        learned[0] = lit ^ 1
        # Only the lower-level literals are still marked.
        for q in learned[1:]:
            seen[q // 2] = 0
        if len(learned) == 1:
            return learned, 0
        # Backjump to the second-highest level in the clause.
        max_k = 1
        for k in range(2, len(learned)):
            if levels[learned[k] // 2] > levels[learned[max_k] // 2]:
                max_k = k
        learned[1], learned[max_k] = learned[max_k], learned[1]
        return learned, levels[learned[1] // 2]

    def _bump_clause(self, clause_id: int) -> None:
        self.clause_activity[clause_id] += self.clause_inc
        if self.clause_activity[clause_id] > 1e100:
            for cid in range(len(self.clauses)):
                self.clause_activity[cid] *= 1e-100
            self.clause_inc *= 1e-100

    def _reduce_db(self) -> None:
        """Drop the less active half of the learned clauses.

        Binary clauses and clauses currently acting as a reason are kept.
        Deleted slots become ``None``; stale watch entries are skipped and
        garbage-collected during propagation.
        """
        locked = {self.reasons[lit // 2] for lit in self.trail}
        candidates = [
            cid
            for cid, clause in enumerate(self.clauses)
            if clause is not None
            and self.is_learned[cid]
            and len(clause) > 2
            and cid not in locked
        ]
        if not candidates:
            return
        candidates.sort(key=lambda cid: self.clause_activity[cid])
        for cid in candidates[: len(candidates) // 2]:
            self.clauses[cid] = None

    def _num_learned(self) -> int:
        return sum(
            1
            for cid, clause in enumerate(self.clauses)
            if clause is not None and self.is_learned[cid]
        )

    def _cancel_until(self, level: int) -> None:
        trail_lim = self.trail_lim
        if len(trail_lim) <= level:
            return
        trail = self.trail
        bound = trail_lim[level]
        values = self.values
        phase = self.phase
        reasons = self.reasons
        activity = self.activity
        queued = self._queued
        order = self._order
        push = heapq.heappush
        for index in range(len(trail) - 1, bound - 1, -1):
            var = trail[index] // 2
            phase[var] = values[var]
            values[var] = _UNASSIGNED
            reasons[var] = -1
            if queued[var] != activity[var]:
                push(order, (-activity[var], var))
                queued[var] = activity[var]
        del trail[bound:]
        del trail_lim[level:]
        self._qhead = len(trail)
        if len(order) > 2 * self.num_vars:
            self._rebuild_order()

    # ------------------------------------------------------------------
    # Decisions.
    # ------------------------------------------------------------------
    def _decide(self) -> int:
        """Pick an unassigned variable by activity; -1 when all assigned."""
        order = self._order
        values = self.values
        activity = self.activity
        while order:
            negated_activity, var = heapq.heappop(order)
            if -negated_activity == activity[var]:
                self._queued[var] = -1.0
                if values[var] == _UNASSIGNED:
                    return 2 * var + (1 if self.phase[var] == 0 else 0)
        # Heap exhausted: by the heap invariant every variable is assigned.
        return -1

    def _decide_in(self, scope: list[int]) -> int:
        """Like :meth:`_decide`, over the internal variables ``scope`` only.

        A linear scan for the most active unassigned variable (the first
        in ``scope`` order among equals); the order heap is not touched,
        so its invariant holds for later unscoped solves.
        """
        values = self.values
        activity = self.activity
        best = -1
        best_activity = -1.0
        for var in scope:
            if values[var] == _UNASSIGNED and activity[var] > best_activity:
                best = var
                best_activity = activity[var]
        if best < 0:
            return -1
        return 2 * best + (1 if self.phase[best] == 0 else 0)

    # ------------------------------------------------------------------
    # Main loop.
    # ------------------------------------------------------------------
    def solve(
        self,
        assumptions: list[int] | None = None,
        conflict_limit: int | None = None,
        scope: list[int] | None = None,
    ) -> SolveStatus:
        """Decide satisfiability under ``assumptions`` (DIMACS literals).

        ``scope`` (DIMACS variables) restricts decisions to those
        variables and answers SAT as soon as they are all assigned with
        no conflict, leaving the rest unassigned.  That is sound only
        when every such assignment extends to a model — e.g. when the
        scope is a fanin-closed set of Tseitin-encoded circuit nodes
        holding every assumption (:meth:`repro.sat.tseitin.ConeEncoder.
        cone_vars`): the nodes outside it then take their simulated
        values.  The model is the scope's values only.
        """
        if self._unsat:
            return SolveStatus.UNSAT
        self._cancel_until(0)
        conflict = self._propagate()
        if conflict != -1:
            self._unsat = True
            return SolveStatus.UNSAT

        assumption_lits: list[int] = []
        if assumptions:
            self._ensure_vars(max(abs(ext) for ext in assumptions))
            assumption_lits = [2 * abs(ext) - 2 + (ext < 0) for ext in assumptions]
        num_assumptions = len(assumption_lits)
        scope_vars = None if scope is None else [var - 1 for var in scope]
        trail = self.trail
        trail_lim = self.trail_lim
        values = self.values

        restart_count = 0
        conflicts_until_restart = 32 * _luby(restart_count)
        conflicts_since_restart = 0
        total_conflicts = 0

        while True:
            conflict = self._propagate()
            if conflict != -1:
                self.stats.conflicts += 1
                total_conflicts += 1
                conflicts_since_restart += 1
                if conflict_limit is not None and total_conflicts > conflict_limit:
                    self._cancel_until(0)
                    return SolveStatus.UNKNOWN
                if len(trail_lim) <= num_assumptions:
                    # Conflict inside (or below) the assumption prefix.
                    self._cancel_until(0)
                    return SolveStatus.UNSAT
                learned, backjump = self._analyze(conflict)
                backjump = max(backjump, num_assumptions)
                self._cancel_until(backjump)
                if len(learned) == 1:
                    self._cancel_until(0)
                    if not self._enqueue(learned[0], -1):
                        self._unsat = True
                        return SolveStatus.UNSAT
                    if self._propagate() != -1:
                        self._unsat = True
                        return SolveStatus.UNSAT
                    # Re-establish the assumption prefix from scratch.
                    if not self._apply_assumptions(assumption_lits):
                        return SolveStatus.UNSAT
                else:
                    clause_id = len(self.clauses)
                    self.clauses.append(learned)
                    self.is_learned.append(True)
                    self.clause_activity.append(self.clause_inc)
                    self.watches[learned[0] ^ 1].append(clause_id)
                    self.watches[learned[1] ^ 1].append(clause_id)
                    self.stats.learned_clauses += 1
                    self._enqueue(learned[0], clause_id)
                self.var_inc /= self.var_decay
                self.clause_inc /= 0.999
                if (self.stats.learned_clauses % 64 == 0
                        and self._num_learned() > self.max_learned):
                    self._reduce_db()
                continue

            if conflicts_since_restart >= conflicts_until_restart:
                self.stats.restarts += 1
                restart_count += 1
                conflicts_since_restart = 0
                conflicts_until_restart = 32 * _luby(restart_count)
                self._cancel_until(num_assumptions)
                continue

            level = len(trail_lim)
            if level < num_assumptions:
                lit = assumption_lits[level]
                var = lit // 2
                value = values[var]
                if value != _UNASSIGNED and value ^ (lit & 1) == 0:
                    self._cancel_until(0)
                    return SolveStatus.UNSAT
                trail_lim.append(len(trail))
                if value == _UNASSIGNED:
                    values[var] = 1 ^ (lit & 1)
                    self.levels[var] = level + 1
                    self.reasons[var] = -1
                    trail.append(lit)
                continue

            if scope_vars is None:
                decision = self._decide()
            else:
                decision = self._decide_in(scope_vars)
            if decision == -1:
                return SolveStatus.SAT
            self.stats.decisions += 1
            trail_lim.append(len(trail))
            self._enqueue(decision, -1)

    def _apply_assumptions(self, assumption_lits: list[int]) -> bool:
        for lit in assumption_lits:
            value = self._lit_value(lit)
            if value == 0:
                self._cancel_until(0)
                return False
            self.trail_lim.append(len(self.trail))
            if value == _UNASSIGNED:
                self._enqueue(lit, -1)
            if self._propagate() != -1:
                self._cancel_until(0)
                return False
        return True

    # ------------------------------------------------------------------
    # Model access.
    # ------------------------------------------------------------------
    def model_value(self, var: int) -> int | None:
        """Value of DIMACS variable ``var`` in the last SAT model."""
        if var > self.num_vars:
            return None
        value = self.values[var - 1]
        return None if value == _UNASSIGNED else value

    def model(self) -> dict[int, int]:
        """The last model as ``{var: 0/1}`` (unassigned vars omitted)."""
        return {
            v + 1: self.values[v]
            for v in range(self.num_vars)
            if self.values[v] != _UNASSIGNED
        }
