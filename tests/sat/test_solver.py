"""Differential and unit tests for the CDCL solver."""

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit.timeframe import expand
from repro.core.ternary_hazard import ternary_eval
from repro.sat.solver import CdclSolver, SolveStatus
from repro.sat.tseitin import encode_circuit

from tests.oracles.solver_reference import ReferenceCdclSolver
from tests.strategies import random_sequential_circuit


def _brute_sat(num_vars, clauses):
    for bits in itertools.product((0, 1), repeat=num_vars):
        if all(
            any(bits[abs(l) - 1] == (1 if l > 0 else 0) for l in clause)
            for clause in clauses
        ):
            return True
    return False


def _random_cnf(seed):
    rng = random.Random(seed)
    num_vars = rng.randint(1, 9)
    clauses = [
        [rng.choice([1, -1]) * rng.randint(1, num_vars)
         for _ in range(rng.randint(1, 3))]
        for _ in range(rng.randint(1, 30))
    ]
    return num_vars, clauses


@given(st.integers(min_value=0, max_value=10_000_000))
def test_solver_matches_brute_force(seed):
    num_vars, clauses = _random_cnf(seed)
    solver = CdclSolver()
    ok = all(solver.add_clause(clause) for clause in clauses)
    status = solver.solve() if ok else SolveStatus.UNSAT
    expected = _brute_sat(num_vars, clauses)
    assert (status is SolveStatus.SAT) == expected
    if status is SolveStatus.SAT:
        model = solver.model()
        for clause in clauses:
            assert any(
                model.get(abs(l), 0) == (1 if l > 0 else 0) for l in clause
            ), "model does not satisfy a clause"


def test_empty_clause_is_unsat():
    solver = CdclSolver()
    assert not solver.add_clause([])
    assert solver.solve() is SolveStatus.UNSAT


def test_unit_clauses_propagate_at_root():
    solver = CdclSolver()
    assert solver.add_clause([1])
    assert solver.add_clause([-1, 2])
    assert solver.solve() is SolveStatus.SAT
    assert solver.model_value(1) == 1
    assert solver.model_value(2) == 1


def test_contradictory_units():
    solver = CdclSolver()
    assert solver.add_clause([3])
    assert not solver.add_clause([-3])


def test_tautology_ignored():
    solver = CdclSolver()
    assert solver.add_clause([1, -1])
    assert solver.solve() is SolveStatus.SAT


def test_duplicate_literals_collapse():
    solver = CdclSolver()
    assert solver.add_clause([2, 2, 2])
    assert solver.solve() is SolveStatus.SAT
    assert solver.model_value(2) == 1


def test_assumptions_flip_result():
    solver = CdclSolver()
    for clause in ([1, 2], [-1, 3], [-2, 3]):
        solver.add_clause(clause)
    assert solver.solve([-3]) is SolveStatus.UNSAT
    assert solver.solve([3]) is SolveStatus.SAT
    assert solver.solve() is SolveStatus.SAT


def test_assumptions_are_honoured_in_model():
    solver = CdclSolver()
    solver.add_clause([1, 2, 3])
    assert solver.solve([-1, -2]) is SolveStatus.SAT
    assert solver.model_value(1) == 0
    assert solver.model_value(2) == 0
    assert solver.model_value(3) == 1


def test_incremental_reuse_many_assumption_sets():
    """The incremental pattern mc_sat relies on."""
    solver = CdclSolver()
    # x_i -> x_{i+1} chain.
    for i in range(1, 20):
        solver.add_clause([-i, i + 1])
    solver.add_clause([-20, -21])
    for _ in range(3):
        assert solver.solve([1]) is SolveStatus.SAT
        assert solver.solve([1, 21]) is SolveStatus.UNSAT
        assert solver.solve([21]) is SolveStatus.SAT


def test_pigeonhole_unsat():
    def pigeonhole(pigeons, holes):
        clauses = []
        def var(p, h):
            return p * holes + h + 1
        for p in range(pigeons):
            clauses.append([var(p, h) for h in range(holes)])
        for h in range(holes):
            for p1 in range(pigeons):
                for p2 in range(p1 + 1, pigeons):
                    clauses.append([-var(p1, h), -var(p2, h)])
        return clauses

    solver = CdclSolver()
    for clause in pigeonhole(5, 4):
        solver.add_clause(clause)
    assert solver.solve() is SolveStatus.UNSAT
    assert solver.stats.conflicts > 0
    assert solver.stats.learned_clauses > 0


def test_conflict_limit_yields_unknown():
    def pigeonhole_clauses():
        clauses = []
        def var(p, h):
            return p * 7 + h + 1
        for p in range(8):
            clauses.append([var(p, h) for h in range(7)])
        for h in range(7):
            for p1 in range(8):
                for p2 in range(p1 + 1, 8):
                    clauses.append([-var(p1, h), -var(p2, h)])
        return clauses

    solver = CdclSolver()
    for clause in pigeonhole_clauses():
        solver.add_clause(clause)
    assert solver.solve(conflict_limit=5) is SolveStatus.UNKNOWN


def test_restarts_happen_on_hard_instances():
    rng = random.Random(42)
    solver = CdclSolver()
    num_vars = 40
    for _ in range(170):  # near the 3-SAT phase transition
        clause = [rng.choice([1, -1]) * rng.randint(1, num_vars) for _ in range(3)]
        solver.add_clause(clause)
    solver.solve()
    assert solver.stats.decisions > 0


def test_model_value_of_unknown_var():
    solver = CdclSolver()
    solver.add_clause([1])
    solver.solve()
    assert solver.model_value(99) is None


def test_solve_after_unsat_stays_unsat():
    solver = CdclSolver()
    solver.add_clause([1])
    assert not solver.add_clause([-1])
    assert solver.solve() is SolveStatus.UNSAT
    assert solver.solve([2]) is SolveStatus.UNSAT


def _pigeonhole(pigeons, holes):
    clauses = []

    def var(p, h):
        return p * holes + h + 1

    for p in range(pigeons):
        clauses.append([var(p, h) for h in range(holes)])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append([-var(p1, h), -var(p2, h)])
    return clauses


def test_database_reduction_preserves_unsat():
    """php(8,7) forces thousands of conflicts; with a tiny learned-clause
    budget the reduction path must fire without breaking the proof."""
    solver = CdclSolver()
    solver.max_learned = 500
    for clause in _pigeonhole(8, 7):
        solver.add_clause(clause)
    assert solver.solve() is SolveStatus.UNSAT
    assert any(clause is None for clause in solver.clauses), (
        "expected the reduction to delete learned clauses"
    )


def test_database_reduction_preserves_sat_models():
    """Aggressive reduction on a satisfiable chain instance."""
    solver = CdclSolver()
    solver.max_learned = 1
    num_vars = 30
    for i in range(1, num_vars):
        solver.add_clause([-i, i + 1])
    solver.add_clause([1])
    assert solver.solve() is SolveStatus.SAT
    assert all(solver.model_value(v) == 1 for v in range(1, num_vars + 1))


def test_reduce_db_keeps_binary_drops_cold_ternary():
    solver = CdclSolver()
    solver.add_clause([1, 2])        # binary: always kept
    solver.add_clause([1, 2, 3])     # cold ternary: dropped
    solver.add_clause([1, 3, 4])     # warm ternary: kept (upper half)
    for cid in range(3):
        solver.is_learned[cid] = True
    solver.clause_activity[2] = 5.0
    solver._reduce_db()
    assert solver.clauses[0] is not None
    assert solver.clauses[1] is None
    assert solver.clauses[2] is not None


# ----------------------------------------------------------------------
# Differential against the reference solver: identical searches.
# ----------------------------------------------------------------------
def _assert_same_state(solver, oracle):
    assert solver.num_vars == oracle.num_vars
    assert solver.values == oracle.values
    assert solver.phase == oracle.phase
    assert solver.stats == oracle.stats


def _run_script(solvers, clauses, steps):
    """Feed both solvers the same clauses and calls, comparing after each."""
    solver, oracle = solvers
    for clause in clauses:
        assert solver.add_clause(clause) == oracle.add_clause(clause)
        _assert_same_state(solver, oracle)
    for step in steps:
        if step[0] == "add":
            assert solver.add_clause(step[1]) == oracle.add_clause(step[1])
        else:
            _, assumptions, limit = step
            status = solver.solve(assumptions, conflict_limit=limit)
            assert status is oracle.solve(assumptions, conflict_limit=limit)
        _assert_same_state(solver, oracle)


def _solver_pair(var_inc=1.0, max_learned=4000):
    pair = (CdclSolver(), ReferenceCdclSolver())
    for s in pair:
        s.var_inc = var_inc
        s.max_learned = max_learned
    return pair


@st.composite
def _solver_scripts(draw):
    num_vars = draw(st.integers(min_value=1, max_value=12))
    # Assumptions may name variables no clause has allocated yet.
    lits = st.integers(min_value=1, max_value=num_vars + 2).flatmap(
        lambda v: st.sampled_from([v, -v])
    )
    clause = st.lists(lits, min_size=1, max_size=4)
    solve = st.tuples(
        st.just("solve"),
        st.lists(lits, max_size=5),
        st.sampled_from([None, None, 0, 1, 3, 20]),
    )
    add = st.tuples(st.just("add"), clause)
    clauses = draw(st.lists(clause, min_size=1, max_size=45))
    steps = draw(st.lists(st.one_of(solve, solve, add), min_size=1, max_size=12))
    # A huge bump increment reaches the activity rescale; a tiny
    # learned-clause budget reaches the database reduction.
    var_inc = draw(st.sampled_from([1.0, 1.0, 1e99]))
    max_learned = draw(st.sampled_from([4000, 2]))
    return clauses, steps, var_inc, max_learned


@settings(max_examples=150)
@given(_solver_scripts())
def test_solver_matches_reference_search(script):
    """Status, values, saved phases and stats match after every call."""
    clauses, steps, var_inc, max_learned = script
    _run_script(_solver_pair(var_inc, max_learned), clauses, steps)


def test_solver_matches_reference_on_hard_incremental_instances():
    """Near-threshold 3-SAT under assumptions: restarts, rescales, reductions."""
    for seed in range(6):
        rng = random.Random(seed)
        num_vars = 100
        clauses = [
            [rng.choice([1, -1]) * rng.randint(1, num_vars) for _ in range(3)]
            for _ in range(426)
        ]
        steps = []
        for _ in range(25):
            assumptions = [
                rng.choice([1, -1]) * rng.randint(1, num_vars)
                for _ in range(rng.randint(0, 4))
            ]
            steps.append(("solve", assumptions, rng.choice([None, 30, 200])))
        pair = _solver_pair(
            var_inc=1e95 if seed % 2 else 1.0, max_learned=60
        )
        _run_script(pair, clauses, steps)
        assert pair[0].stats.restarts > 0
        assert None in pair[0].clauses


def test_order_heap_stays_bounded_over_prefix_unsat_solves():
    """2,000 solves that end UNSAT inside the assumption prefix.

    Every solve backtracks the whole prefix; the order heap must keep
    at most two entries per variable instead of growing per solve.
    """
    circuit = random_sequential_circuit(3, max_inputs=4, max_dffs=4, max_gates=14)
    comb = expand(circuit, frames=2).comb
    encoding = encode_circuit(comb)
    solver = encoding.solver
    target = comb.topo_order()[-1]
    rng = random.Random(0)
    for _ in range(2000):
        vector = {node: rng.randint(0, 1) for node in comb.inputs}
        wrong = 1 - ternary_eval(comb, vector)[target]
        assumptions = [encoding.lit(target, wrong)] + [
            encoding.lit(node, bit) for node, bit in vector.items()
        ]
        assert solver.solve(assumptions) is SolveStatus.UNSAT
    assert solver.stats.decisions == 0
    assert len(solver._order) <= 2 * solver.num_vars
