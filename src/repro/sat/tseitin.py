"""Tseitin encoding of combinational circuits into CNF.

Every encoded circuit node gets one SAT variable; each gate contributes the
clauses of its input/output consistency constraint.  Two entry points:

* :func:`encode_circuit` encodes every node at once.  The SAT-based
  baseline (:mod:`repro.sat.mc_sat`) uses it to encode the 2-time-frame
  expansion once and query it per FF pair under assumptions.
* :class:`ConeEncoder` encodes lazily: only the fanin cones of the root
  nodes asked for, grown as new roots arrive.  The decision session's SAT
  tier (:mod:`repro.core.session`) keeps one per session and asks, per
  case, for the cones of ``FF_i@t``, ``FF_i@t+1``, ``FF_j@t+1`` and
  ``FF_j@t+2`` — a few hundred nodes of an expansion of thousands.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.circuit.gates import GateType
from repro.circuit.netlist import Circuit
from repro.sat.solver import CdclSolver


@dataclass
class CircuitEncoding:
    """CNF encoding of one combinational circuit."""

    circuit: Circuit
    solver: CdclSolver
    #: SAT variable (DIMACS index) per circuit node id.
    var_of: list[int]

    def lit(self, node: int, value: int) -> int:
        """Literal asserting ``node == value``."""
        var = self.var_of[node]
        return var if value else -var


def _encode_and(solver: CdclSolver, out: int, ins: list[int], invert: bool) -> None:
    """``out = AND(ins)`` (or NAND when ``invert``)."""
    out_lit = -out if invert else out
    for i in ins:
        solver.add_clause([-out_lit, i])
    solver.add_clause([out_lit] + [-i for i in ins])


def _encode_or(solver: CdclSolver, out: int, ins: list[int], invert: bool) -> None:
    """``out = OR(ins)`` (or NOR when ``invert``)."""
    out_lit = -out if invert else out
    for i in ins:
        solver.add_clause([out_lit, -i])
    solver.add_clause([-out_lit] + list(ins))


def _encode_xor2(solver: CdclSolver, out: int, a: int, b: int) -> None:
    """``out = a XOR b``."""
    solver.add_clause([-out, a, b])
    solver.add_clause([-out, -a, -b])
    solver.add_clause([out, -a, b])
    solver.add_clause([out, a, -b])


def _encode_eq(solver: CdclSolver, a: int, b: int, invert: bool = False) -> None:
    """``a == b`` (or ``a == !b`` when ``invert``)."""
    b_lit = -b if invert else b
    solver.add_clause([-a, b_lit])
    solver.add_clause([a, -b_lit])


def _encode_mux(solver: CdclSolver, out: int, select: int, d0: int, d1: int) -> None:
    """``out = select ? d1 : d0``."""
    solver.add_clause([select, -out, d0])
    solver.add_clause([select, out, -d0])
    solver.add_clause([-select, -out, d1])
    solver.add_clause([-select, out, -d1])


def _encode_gate(
    solver: CdclSolver, gate_type: GateType, out: int, ins: Sequence[int]
) -> None:
    """Clauses of ``out = gate_type(ins)``; INPUT nodes get none."""
    if gate_type == GateType.INPUT:
        return
    if gate_type == GateType.DFF:
        raise ValueError("Tseitin encoding expects a combinational circuit")
    if gate_type == GateType.CONST0:
        solver.add_clause([-out])
    elif gate_type == GateType.CONST1:
        solver.add_clause([out])
    elif gate_type in (GateType.BUF, GateType.OUTPUT):
        _encode_eq(solver, out, ins[0])
    elif gate_type == GateType.NOT:
        _encode_eq(solver, out, ins[0], invert=True)
    elif gate_type == GateType.AND:
        _encode_and(solver, out, list(ins), invert=False)
    elif gate_type == GateType.NAND:
        _encode_and(solver, out, list(ins), invert=True)
    elif gate_type == GateType.OR:
        _encode_or(solver, out, list(ins), invert=False)
    elif gate_type == GateType.NOR:
        _encode_or(solver, out, list(ins), invert=True)
    elif gate_type in (GateType.XOR, GateType.XNOR):
        acc = ins[0]
        for operand in ins[1:]:
            fresh = solver.new_var()
            _encode_xor2(solver, fresh, acc, operand)
            acc = fresh
        _encode_eq(solver, out, acc, invert=gate_type == GateType.XNOR)
    elif gate_type == GateType.MUX:
        _encode_mux(solver, out, ins[0], ins[1], ins[2])
    else:  # pragma: no cover - defensive
        raise ValueError(f"unhandled gate type {gate_type}")


def encode_circuit(circuit: Circuit, solver: CdclSolver | None = None) -> CircuitEncoding:
    """Encode every node of a combinational circuit into ``solver``.

    The circuit must be combinational (e.g. a time-frame expansion); DFF
    nodes are rejected.
    """
    solver = solver or CdclSolver()
    var_of = [0] * circuit.num_nodes
    for node in range(circuit.num_nodes):
        var_of[node] = solver.new_var()

    for node in range(circuit.num_nodes):
        _encode_gate(
            solver,
            circuit.types[node],
            var_of[node],
            [var_of[f] for f in circuit.fanins[node]],
        )

    return CircuitEncoding(circuit, solver, var_of)


class ConeEncoder:
    """Lazy Tseitin encoding of the fanin cones of requested root nodes.

    :meth:`lit` encodes the cone of its node on first use, so one solver
    grows with the roots asked for and never holds a gate outside them.
    Adding a gate's clauses only defines a fresh variable, so clauses the
    solver learned on earlier queries stay valid as the cone grows.

    Nodes are encoded depth-first from each root, fanins in order, and a
    node's variable is allocated when its last fanin is done.  Two
    encoders asked for the same roots in the same order therefore build
    the same CNF, variable for variable, and a fresh encoder's answers
    depend only on its roots — never on which node ids the circuit gave
    the gates.
    """

    def __init__(self, circuit: Circuit, solver: CdclSolver | None = None) -> None:
        self.circuit = circuit
        self.solver = solver or CdclSolver()
        #: SAT variable per encoded node id.
        self.var_of: dict[int, int] = {}
        #: encoded INPUT nodes, in encoding order.
        self.inputs: list[int] = []

    def encode(self, roots: Iterable[int]) -> None:
        """Encode the fanin cones of ``roots`` (already encoded nodes are kept)."""
        var_of = self.var_of
        types = self.circuit.types
        fanins = self.circuit.fanins
        solver = self.solver
        for root in roots:
            stack = [root]
            while stack:
                node = stack[-1]
                if node in var_of:
                    stack.pop()
                    continue
                pending = [f for f in fanins[node] if f not in var_of]
                if pending:
                    stack.extend(reversed(pending))
                    continue
                stack.pop()
                out = solver.new_var()
                var_of[node] = out
                gate_type = types[node]
                if gate_type == GateType.INPUT:
                    self.inputs.append(node)
                _encode_gate(
                    solver, gate_type, out, [var_of[f] for f in fanins[node]]
                )

    def cone_vars(self, roots: Sequence[int]) -> list[int]:
        """Sorted variables of the fanin cones of ``roots`` (encoding them).

        The scope :meth:`CdclSolver.solve` may restrict a query on these
        roots to: every assignment of these variables that propagates
        without conflict extends to a model, because every node outside
        them is free to take the value its fanins give it.
        """
        self.encode(roots)
        var_of = self.var_of
        fanins = self.circuit.fanins
        seen: set[int] = set()
        stack = list(roots)
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(fanins[node])
        return sorted(var_of[node] for node in seen)

    def lit(self, node: int, value: int) -> int:
        """Literal asserting ``node == value``, encoding its cone if needed."""
        var = self.var_of.get(node)
        if var is None:
            self.encode((node,))
            var = self.var_of[node]
        return var if value else -var

    def input_values(self) -> dict[int, int]:
        """Encoded INPUT nodes' values in the solver's last SAT model."""
        model_value = self.solver.model_value
        return {
            node: int(model_value(self.var_of[node]) or 0)
            for node in self.inputs
        }
