"""Control flow graphs and the fixpoint solver.

A graph has node 1 as the unique entry (no predecessors); every other node
is reachable from the entry and is either a function point, an ``Assign`` or
``NonDet`` statement with one predecessor, or a ``Confluence`` point with two
predecessors. One synchronous step recomputes every node from the previous
state vector: the entry is pinned to the finest partition, function points
apply their statement to the predecessor value, confluences meet their two
predecessor values.

The solver computes the greatest fixpoint of that step by synchronous
(Jacobi) iteration from the all-``TOP`` vector, and can retain its full
iterate history; the fixpoint is the per-point equivalence analysis answer.

The Jacobi iteration is incremental: a node's value at step l + 1 depends
only on its predecessors' values at step l, so a node none of whose
predecessors changed at step l keeps its value object, and only the
successors of the nodes that changed are recomputed. Every iterate is still
exactly the full synchronous step's iterate.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import Union

from .congruence import LatticeElem, TOP, bottom, is_top, meet
from .errors import GraphError, IterationLimitError
from .terms import TermUniverse
from .transfer import Assign, NonDet, apply_statement


@dataclass(frozen=True)
class Entry:
    pass


@dataclass(frozen=True)
class Confluence:
    pass


NodeKind = Union[Entry, Assign, NonDet, Confluence]
# the number of predecessors each node kind takes
ARITY = {Entry: 0, Assign: 1, NonDet: 1, Confluence: 2}


@dataclass(frozen=True)
class FlowGraph:
    n: int
    kinds: tuple[NodeKind, ...]
    preds: tuple[tuple[int, ...], ...]

    def kind(self, k: int) -> NodeKind:
        return self.kinds[k - 1]

    def pred(self, k: int) -> tuple[int, ...]:
        return self.preds[k - 1]

    @cached_property
    def succs(self) -> tuple[tuple[int, ...], ...]:
        """Each node's successors, ascending, read once from ``preds``: a
        node is appended to its predecessors' lists in node order, twice to
        a predecessor it names twice."""
        out: list[list[int]] = [[] for _ in range(self.n)]
        for k, ps in enumerate(self.preds, start=1):
            for p in ps:
                out[p - 1].append(k)
        return tuple(map(tuple, out))

    def succ(self, k: int) -> tuple[int, ...]:
        return self.succs[k - 1]


def validate_graph(
    kinds: Mapping[int, NodeKind], preds: Mapping[int, Sequence[int]]
) -> FlowGraph:
    """Check the structural rules and return an immutable graph.

    Node ids and predecessors are plain ``int``s (a ``bool`` is not one),
    ``preds`` is a mapping and each predecessor list is a sequence; anything
    else raises ``GraphError``.
    """
    for k in kinds:
        if type(k) is not int:
            raise GraphError(f"node id {k!r} is not an int")
    ids = sorted(kinds)
    n = len(ids)
    if n == 0:
        raise GraphError("empty graph: node 1 (entry) is required")
    if ids != list(range(1, n + 1)):
        # n distinct ints other than 1..n leave at least one of 1..n out
        missing = next(k for k in range(1, n + 1) if k not in kinds)
        raise GraphError(f"node ids must be 1..{n} without gaps, but node {missing} is missing")
    if not isinstance(preds, Mapping):
        raise GraphError(f"predecessors {preds!r} are not a mapping")
    for k in preds:
        if type(k) is not int or k not in kinds:
            raise GraphError(f"predecessors given for unknown node {k!r}")

    if not isinstance(kinds[1], Entry):
        raise GraphError("node 1 must be the entry point", node=1)

    pred_tuples: list[tuple[int, ...]] = []
    for k in range(1, n + 1):
        kind = kinds[k]
        ps = preds.get(k, ())
        if not isinstance(ps, Sequence):
            raise GraphError(f"node {k} has predecessors {ps!r}, not a sequence", node=k)
        arity = ARITY.get(type(kind))
        if arity is None:
            raise GraphError(f"node {k} has unknown kind {kind!r}", node=k)
        for p in ps:
            if type(p) is not int or not 1 <= p <= n:
                raise GraphError(f"node {k} references missing predecessor {p!r}", node=k)
        if k > 1 and isinstance(kind, Entry):
            raise GraphError(f"node {k} declared entry; only node 1 may be", node=k)
        if len(ps) != arity:
            raise GraphError(
                f"{type(kind).__name__} node {k} needs {arity} predecessor(s), got {len(ps)}",
                node=k,
            )
        pred_tuples.append(tuple(ps))

    graph = FlowGraph(n=n, kinds=tuple(kinds[k] for k in range(1, n + 1)), preds=tuple(pred_tuples))

    succs = graph.succs
    reached = {1}
    frontier = [1]
    while frontier:
        node = frontier.pop()
        for s in succs[node - 1]:
            if s not in reached:
                reached.add(s)
                frontier.append(s)
    unreachable = [k for k in range(1, n + 1) if k not in reached]
    if unreachable:
        raise GraphError(
            f"node {unreachable[0]} is not reachable from the entry", node=unreachable[0]
        )
    return graph


def composite_step(
    state: tuple[LatticeElem, ...],
    graph: FlowGraph,
    universe: TermUniverse,
    nodes: Iterable[int] | None = None,
) -> tuple[LatticeElem, ...]:
    """One synchronous update from the previous state.

    Recomputes every node, or only ``nodes`` when given; every other node
    keeps its value from ``state``.
    """
    out = list(state)
    for k in range(1, graph.n + 1) if nodes is None else nodes:
        kind = graph.kinds[k - 1]
        if isinstance(kind, Entry):
            out[k - 1] = bottom(universe)
        elif isinstance(kind, Confluence):
            i, j = graph.preds[k - 1]
            out[k - 1] = meet(state[i - 1], state[j - 1])
        else:
            (j,) = graph.preds[k - 1]
            out[k - 1] = apply_statement(state[j - 1], kind)
    return tuple(out)


@dataclass
class SolveResult:
    state: tuple[LatticeElem, ...]
    iterations: int
    trace: list[tuple[LatticeElem, ...]] | None = None


def default_iteration_limit(graph: FlowGraph, universe: TermUniverse) -> int:
    # Each coordinate descends strictly at most |U| + 1 times (TOP plus one step
    # per lost class; len(universe) is |U| = m + m²), so this is never reached.
    return graph.n * (len(universe) + 1) + 1


def solve(graph: FlowGraph, universe: TermUniverse, *, trace: bool = False) -> SolveResult:
    """Synchronous iteration from the all-``TOP`` vector to the fixpoint.

    The first step recomputes every node; each later step recomputes only
    the successors of the nodes whose value changed in the step before.
    That is exact, not an approximation: a node's next value is a function
    of its predecessors' current values alone, so if none of them changed,
    recomputing it would give back its current value. The entry has no
    predecessors and changes once, from ``TOP`` to the finest partition.

    ``iterations`` counts the steps needed to first reach the fixpoint value;
    with ``trace`` on, ``result.trace[l]`` is the l-th iterate
    (``result.trace[0]`` all ``TOP``) and the last two entries are equal.
    """
    limit = default_iteration_limit(graph, universe)
    state: tuple[LatticeElem, ...] = (TOP,) * graph.n
    iterates = [state] if trace else None
    nodes: Sequence[int] = range(1, graph.n + 1)
    for step in range(1, limit + 1):
        nxt = composite_step(state, graph, universe, nodes)
        if iterates is not None:
            iterates.append(nxt)
        changed = [k for k in nodes if nxt[k - 1] is not state[k - 1] and nxt[k - 1] != state[k - 1]]
        if not changed:
            assert not any(is_top(v) for v in nxt)
            return SolveResult(state=nxt, iterations=step - 1, trace=iterates)
        nodes = sorted({s for k in changed for s in graph.succ(k)})
        state = nxt
    raise IterationLimitError(f"no fixpoint within {limit} iterations")
