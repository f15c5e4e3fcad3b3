"""Micro-benchmarks of the substrates (solver, BDDs, simulators, engine).

Not a paper table — these keep the building blocks honest so regressions
in the core pipeline can be attributed: CDCL propagation throughput, BDD
construction, bit-parallel simulation rate, implication fixpoint cost and
the justification search.
"""

from __future__ import annotations

import random

import numpy as np

from repro.bdd.bdd import BddManager
from repro.bdd.traversal import build_node_bdds
from repro.circuit.library import fig1_circuit
from repro.circuit.timeframe import expand
from repro.logic.bitsim import BitSimulator
from repro.atpg.implication import ImplicationEngine
from repro.atpg.justify import justify
from repro.atpg.learning import learn_static_implications
from repro.sat.solver import CdclSolver, SolveStatus
from repro.sat.tseitin import encode_circuit

from conftest import PROFILE
from repro.bench_gen.suite import suite

_CIRCUIT = suite(PROFILE)[-1]


def test_bitsim_throughput(benchmark):
    sim = BitSimulator(_CIRCUIT, words=8)
    rng = np.random.default_rng(0)
    sim.randomize_sources(rng)

    def one_round():
        sim.comb_eval()
        sim.clock()

    benchmark(one_round)


def test_implication_fixpoint(benchmark):
    expansion = expand(_CIRCUIT, 2)
    engine = ImplicationEngine(expansion.comb)
    dffs = _CIRCUIT.dffs
    i = expansion.ff_index(dffs[0])

    def one_run():
        mark = engine.checkpoint()
        engine.assume_all([
            (expansion.ff_at[0][i], 0),
            (expansion.ff_at[1][i], 1),
        ])
        engine.backtrack(mark)

    benchmark(one_run)


def test_justification_search(benchmark):
    expansion = expand(fig1_circuit(), 2)
    engine = ImplicationEngine(expansion.comb)
    target = expansion.ff_at[2][1]  # FF2(t+2)

    def search():
        mark = engine.checkpoint()
        if engine.assume(target, 1):
            justify(engine, backtrack_limit=1000)
        engine.backtrack(mark)

    benchmark(search)


def test_static_learning_cost(benchmark):
    expansion = expand(fig1_circuit(), 2)
    learned = benchmark(learn_static_implications, expansion.comb)
    assert isinstance(learned, dict)


def test_cdcl_random3sat(benchmark):
    rng = random.Random(7)
    num_vars = 60
    clauses = [
        [rng.choice([1, -1]) * rng.randint(1, num_vars) for _ in range(3)]
        for _ in range(240)
    ]

    def solve_fresh():
        solver = CdclSolver()
        for clause in clauses:
            solver.add_clause(clause)
        return solver.solve()

    status = benchmark(solve_fresh)
    assert status in (SolveStatus.SAT, SolveStatus.UNSAT)


def test_tseitin_encoding_cost(benchmark):
    expansion = expand(_CIRCUIT, 2)
    encoding = benchmark(encode_circuit, expansion.comb)
    assert encoding.solver.num_vars >= expansion.comb.num_nodes


def test_bdd_build_cost(benchmark):
    circuit = fig1_circuit()
    expansion = expand(circuit, 2)

    def build():
        manager = BddManager()
        var_of = {}
        index = 0
        for node in expansion.ff_at[0]:
            var_of[node] = index
            index += 1
        for frame in expansion.pi_at:
            for node in frame:
                var_of[node] = index
                index += 1
        return build_node_bdds(expansion.comb, manager, var_of)

    bdds = benchmark(build)
    assert len(bdds) == expansion.comb.num_nodes


def test_scoap_cost(benchmark):
    from repro.atpg.scoap import compute_scoap

    scoap = benchmark(compute_scoap, _CIRCUIT)
    assert len(scoap.cc0) == _CIRCUIT.num_nodes
