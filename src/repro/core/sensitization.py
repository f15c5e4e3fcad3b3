"""Static (co-)sensitization path search (Section 5.2/5.3).

A static hazard can invalidate a detected multi-cycle FF pair: even though
the sink's settled value is stable, the source transition may glitch
through to the sink's data input during the relaxed cycle.  The paper
detects this delay-independently by asking whether some path from the
source (at time t+1, entering the second time frame) to the sink's data
input (at time t+2) is

* **statically sensitizable** — an input vector sets every side input
  along the path to its non-controlling value (Section 5.2; optimistic:
  a sensitizable path is not always statically sensitizable, and surviving
  pairs may still depend on one another), or
* **statically co-sensitizable** — for every gate on the path with a
  controlled value the on-input presents the controlling value
  (Section 5.3; safe: every sensitizable path is statically
  co-sensitizable).

The search walks forward from the source, assuming the per-gate side-input
constraints through the shared implication engine (contradictions prune
whole path families), and confirms each complete path with the
justification search so that only genuinely satisfiable vectors count.

Before the walk, the search computes the *open corridor*: the nodes that
lie on some source-to-target walk whose every edge is still open under
the values the engine holds on entry.  An edge ``via -> gate`` is open
when one of its extension options has no node already at the opposite
value.  Values only accumulate along a walk, so an edge closed at the
root stays closed on every branch below it, and no found path can leave
the corridor.  Confining the walk to the corridor therefore keeps the
walk order and the first found path; it only skips dead branches, so the
``max_attempts`` budget counts attempts inside the corridor.  An empty
corridor ends the search before any attempt.

Co-sensitization through a native MUX also reads the *X-cone*: the
source and every allowed node forward-reachable from it, i.e. every node
that may carry the source's X.  ``MUX(X, X, d)`` is X whatever values
the select and ``d`` settle at, so when the select lies in the X-cone a
data input passes the X with no constraint on the select (see
``docs/hazards.md`` for the argument that the bound stays safe).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.circuit.gates import CONTROLLING, GateType
from repro.logic.values import ONE, ZERO
from repro.atpg.implication import ImplicationEngine
from repro.atpg.justify import SearchStatus, justify


class SensitizationMode(Enum):
    """Which delay-independent condition the path search enforces."""

    STATIC_SENSITIZATION = "sensitize"
    STATIC_CO_SENSITIZATION = "co-sensitize"


def mode_from_flag(flag: str) -> SensitizationMode:
    """Map a CLI/option spelling to a :class:`SensitizationMode`.

    Accepts the enum values plus the hyphen-less ``cosensitize`` used by
    ``--hazard-check`` (where ``ternary`` and ``off`` are not path-search
    modes and are handled by the caller).
    """
    normalized = flag.replace("-", "").lower()
    if normalized == "sensitize":
        return SensitizationMode.STATIC_SENSITIZATION
    if normalized == "cosensitize":
        return SensitizationMode.STATIC_CO_SENSITIZATION
    raise ValueError(f"unknown sensitization mode {flag!r}")


class PathSearchOutcome(Enum):
    """Result of a sensitizable-path search."""

    FOUND = "found"
    NONE = "none"
    #: resource limit hit; callers must treat this conservatively
    UNKNOWN = "unknown"


@dataclass
class PathSearchResult:
    outcome: PathSearchOutcome
    #: node ids of a found path, source first (when FOUND)
    path: list[int] | None = None
    attempts: int = 0
    #: True when no open corridor joined source and target
    corridor_empty: bool = False


def source_cone(
    engine: ImplicationEngine,
    source: int,
    allowed: frozenset[int] | set[int],
) -> frozenset[int]:
    """``source`` and the ``allowed`` nodes forward-reachable from it."""
    fanouts = engine.fanouts
    seen = {source}
    stack = [source]
    while stack:
        for gate in fanouts[stack.pop()]:
            if gate in allowed and gate not in seen:
                seen.add(gate)
                stack.append(gate)
    return frozenset(seen)


def _extension_options(
    engine: ImplicationEngine,
    gate: int,
    via: int,
    mode: SensitizationMode,
    x_cone: frozenset[int] | set[int] = frozenset(),
) -> list[list[tuple[int, int]]] | None:
    """Ways to extend a path into ``gate`` through fanin ``via``.

    Each option is a list of (node, value) assumptions; ``None`` means the
    gate imposes no constraint (buffers, inverters, parity gates).
    ``x_cone`` holds the nodes that may carry the source's X; only the
    co-sensitization MUX rule reads it.
    """
    gate_type = engine.types[gate]
    fanins = engine.fanins[gate]

    if gate_type in CONTROLLING:
        controlling, _ = CONTROLLING[gate_type]
        side_inputs = [f for f in fanins if f != via]
        if mode is SensitizationMode.STATIC_SENSITIZATION:
            # Every side input must settle at the non-controlling value.
            return [[(f, 1 - controlling) for f in side_inputs]]
        # Co-sensitization: either the gate is controlled and the on-input
        # carries the controlling value, or the gate is non-controlled
        # (every input non-controlling).
        return [
            [(via, controlling)],
            [(f, 1 - controlling) for f in fanins],
        ]

    if gate_type == GateType.MUX:
        select, d0, d1 = fanins
        if (
            mode is SensitizationMode.STATIC_CO_SENSITIZATION
            and via in (d0, d1)
            and select in x_cone
        ):
            # MUX(X, X, d) is X: an X select lets either data input's X
            # through, whatever value the select settles at.
            return None
        options: list[list[tuple[int, int]]] = []
        if via == select:
            # The select only matters when the data inputs differ.
            options.append([(d0, ZERO), (d1, ONE)])
            options.append([(d0, ONE), (d1, ZERO)])
        if via == d0:
            options.append([(select, ZERO)])
        if via == d1:
            options.append([(select, ONE)])
        return options

    # BUF / NOT / OUTPUT / XOR / XNOR: no side constraint either way.
    return None


def _edge_open(
    values: bytearray, options: list[list[tuple[int, int]]] | None
) -> bool:
    """Whether some option of an edge has no node at the opposite value."""
    if options is None:
        return True
    return any(
        all(values[node] != 1 - value for node, value in option)
        for option in options
    )


def open_corridor(
    engine: ImplicationEngine,
    source: int,
    target: int,
    allowed: frozenset[int] | set[int],
    mode: SensitizationMode,
    reach: frozenset[int] | set[int],
    x_cone: frozenset[int] | set[int] = frozenset(),
) -> set[int]:
    """Nodes on some ``source -> target`` walk of open edges.

    Every gate of the walk lies in ``reach`` and ``allowed``, and every
    edge is open under the engine's current values (see the module
    docstring).  The set is empty when no such walk exists.
    """
    values = engine.assignment.values
    fanouts = engine.fanouts
    # Forward from the source, keeping each reached gate's open in-edges.
    preds: dict[int, list[int]] = {source: []}
    stack = [source]
    while stack:
        node = stack.pop()
        for gate in fanouts[node]:
            if gate not in reach or gate not in allowed:
                continue
            if not _edge_open(
                values, _extension_options(engine, gate, node, mode, x_cone)
            ):
                continue
            if gate in preds:
                preds[gate].append(node)
            else:
                preds[gate] = [node]
                stack.append(gate)
    if target not in preds:
        return set()
    # Backward from the target over those open in-edges.
    corridor = {target}
    stack = [target]
    while stack:
        for via in preds[stack.pop()]:
            if via not in corridor:
                corridor.add(via)
                stack.append(via)
    return corridor


def find_sensitizable_path(
    engine: ImplicationEngine,
    source: int,
    target: int,
    allowed: frozenset[int] | set[int],
    mode: SensitizationMode,
    backtrack_limit: int = 50,
    max_attempts: int = 5000,
    reach: frozenset[int] | set[int] | None = None,
    x_cone: frozenset[int] | set[int] | None = None,
) -> PathSearchResult:
    """Search for a statically (co-)sensitizable path ``source -> target``.

    ``allowed`` restricts intermediate/target nodes (used to confine the
    walk to one time frame of an expansion).  The engine may already carry
    context assumptions (the MC case premise); it is restored before
    returning.  A FOUND result is backed by a justification-verified input
    vector.  ``reach`` may pass a cached fanin cone of ``target``; it
    needs only ``target``, the cone's ``allowed`` nodes and their fanins.
    The walk is confined to the open corridor inside ``reach``, and
    ``max_attempts`` counts the gate attempts made inside it.  ``x_cone``
    may pass a cached :func:`source_cone` of ``source`` over ``allowed``;
    only co-sensitization reads it.
    """
    if reach is None:
        reach = engine.circuit.transitive_fanin([target])
    if source not in reach:
        return PathSearchResult(PathSearchOutcome.NONE)
    if x_cone is None:
        x_cone = (
            source_cone(engine, source, allowed)
            if mode is SensitizationMode.STATIC_CO_SENSITIZATION
            else frozenset()
        )
    reach = open_corridor(engine, source, target, allowed, mode, reach, x_cone)
    if not reach:
        return PathSearchResult(PathSearchOutcome.NONE, corridor_empty=True)

    outer_mark = engine.checkpoint()
    attempts = 0
    saw_unknown = False

    def walk(node: int, path: list[int]) -> PathSearchOutcome:
        nonlocal attempts, saw_unknown
        if node == target:
            result = justify(engine, backtrack_limit)
            if result.status is SearchStatus.SAT:
                return PathSearchOutcome.FOUND
            if result.status is SearchStatus.ABORTED:
                saw_unknown = True
            return PathSearchOutcome.NONE
        for gate in engine.fanouts[node]:
            if gate not in reach or gate not in allowed or gate in path:
                continue
            attempts += 1
            if attempts > max_attempts:
                saw_unknown = True
                return PathSearchOutcome.NONE
            options = _extension_options(engine, gate, node, mode, x_cone)
            if options is None:
                options = [[]]
            for option in options:
                mark = engine.checkpoint()
                if engine.assume_all(option):
                    path.append(gate)
                    outcome = walk(gate, path)
                    if outcome is PathSearchOutcome.FOUND:
                        return outcome
                    path.pop()
                engine.backtrack(mark)
        return PathSearchOutcome.NONE

    path: list[int] = [source]
    outcome = walk(source, path)
    if outcome is PathSearchOutcome.FOUND:
        found = list(path)
        engine.backtrack(outer_mark)
        return PathSearchResult(PathSearchOutcome.FOUND, found, attempts)
    engine.backtrack(outer_mark)
    if saw_unknown:
        return PathSearchResult(PathSearchOutcome.UNKNOWN, None, attempts)
    return PathSearchResult(PathSearchOutcome.NONE, None, attempts)
