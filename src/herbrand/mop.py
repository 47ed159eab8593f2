"""Meet-over-all-paths reference computation.

This module recomputes the per-node analysis values along explicit program
paths, independently of the fixpoint solver, and checks the two
characterizations against each other:

  * the bounded-length path meet at every node and length equals the
    corresponding synchronous iterate of the solver, and
  * once the path meets stop changing from one length bound to the next,
    they equal the solver's fixpoint exactly.

``mop_table`` enumerates the paths breadth-first and carries each path's
congruence along, one edge at a time. A path's state is its end node and its
congruence. Each node keys its states' records by value, and every path in
one state refers to that record, which lists its successor states' records
on its first expansion, so each statement transfers each of its input values
once. The frontier still holds one entry per path: each path is met into its
node's value and counts against the path cap. The walk ends when the paths
run out, once the row for the length bound is written, or at the first level
that reaches no new state: from there on every path ends in a state already
met, so the meet over all paths (Steffen 1990, p. 393) is reached, even on a
program with a loop. ``verify_mop_mfp`` compares the table's rows with the
solver's iterates. The literal definitions, which rebuild every path from
scratch, live with the tests and cross-check ``mop_table`` there.
"""

from __future__ import annotations

from .congruence import LatticeElem, TOP, bottom, meet
from .dataflow import Confluence, FlowGraph, solve
from .errors import PathLimitError
from .terms import Frozen, TermUniverse
from .transfer import apply_statement

DEFAULT_PATH_CAP = 10**6

# The old name of ``solve``, kept only because the benchmark's tracer test
# (``perfbench/test_perfbench.py``) looks up ``herbrand.mop.solve_jacobi``.
solve_jacobi = solve


def mop_table(
    graph: FlowGraph,
    universe: TermUniverse,
    max_len: int,
    cap: int = DEFAULT_PATH_CAP,
) -> list[tuple[LatticeElem, ...]]:
    """Bounded path meets for every node: ``table[l][k - 1]`` covers paths
    of length below ``l``. The table stops one row after the paths run out,
    or after the first level whose expansion reaches no new (node, value)
    state, as every later row would repeat that row, so ``table[-1]`` is the
    row for ``max_len`` and stands for every row past the end.

    Each level meets every path's value into its end node's running meet.
    Unless that row is the one for ``max_len``, the level's paths are then
    expanded, and ``PathLimitError`` is raised when the next level holds
    more than ``cap`` paths and reaches a new state: a level that reaches
    none is never met, so it is not counted. Paths that share a state share
    its record and its value object, so a running meet already set to a
    path's value meets it in one identity test."""
    kinds = graph.kinds
    succ = graph.succ
    cum: list[LatticeElem] = [TOP] * graph.n
    rows: list[tuple[LatticeElem, ...]] = [tuple(cum)]
    # one record [node, value, successor records or None] per path state,
    # each node's records keyed by their values
    states: list[dict[LatticeElem, list]] = [{} for _ in range(graph.n)]
    frontier: list[list] = [[1, bottom(universe), None]]
    for _ in range(max_len):
        for end, value, _ in frontier:
            cum[end - 1] = meet(cum[end - 1], value)
        rows.append(tuple(cum))
        if not frontier or len(rows) > max_len:
            break
        nxt: list[list] = []
        fresh = False
        for state in frontier:
            # one succ call per path, after all of the level's meets:
            # perfbench's tracer pairs the two to count distinct states
            targets = succ(state[0])
            out = state[2]
            if out is None:
                # a state's first expansion; a statement node has one
                # predecessor, so it transfers each of its input values once
                value = state[1]
                out = state[2] = []
                for s in targets:
                    kind = kinds[s - 1]
                    step = value
                    if type(kind) is not Confluence:
                        step = apply_statement(value, kind)
                    record = states[s - 1].get(step)
                    if record is None:
                        record = states[s - 1][step] = [s, step, None]
                        fresh = True
                    out.append(record)
            nxt += out
        # a level that reaches no new state ends the walk unmet and is not
        # counted against the cap: every path of ``nxt`` ends in a state
        # already met and expanded, and so do all of their extensions, so
        # no later row can change
        if fresh and len(nxt) > cap:
            raise PathLimitError(f"more than {cap} paths of one length")
        frontier = nxt if fresh else []
    return rows


def _row(rows: list[tuple[LatticeElem, ...]], l: int) -> tuple[LatticeElem, ...]:
    # the path table and the solver's trace stop once their rows repeat
    return rows[l] if l < len(rows) else rows[-1]


def stabilized(rows: list[tuple[LatticeElem, ...]]) -> bool:
    """Whether the last two rows of ``mop_table`` are equal; the running
    path meet only descends, so then the last row is the meet of all."""
    return len(rows) >= 2 and rows[-2] == rows[-1]


class VerifyReport(Frozen):
    """What ``verify_mop_mfp`` found: its fields are set once, and its two
    lists are built before it is."""

    _fields = ("node_count", "max_len", "stabilized", "checks", "iterate_mismatches", "fixpoint_mismatches")

    def __init__(
        self,
        node_count: int,
        max_len: int,
        stabilized: bool,
        checks: int = 0,
        iterate_mismatches: list[tuple[int, int]] | None = None,
        fixpoint_mismatches: list[int] | None = None,
    ) -> None:
        self.__dict__.update(
            node_count=node_count,
            max_len=max_len,
            stabilized=stabilized,
            checks=checks,
            iterate_mismatches=[] if iterate_mismatches is None else iterate_mismatches,
            fixpoint_mismatches=[] if fixpoint_mismatches is None else fixpoint_mismatches,
        )

    @property
    def ok(self) -> bool:
        return not self.iterate_mismatches and not self.fixpoint_mismatches


def verify_mop_mfp(
    graph: FlowGraph,
    universe: TermUniverse,
    max_len: int,
    cap: int = DEFAULT_PATH_CAP,
) -> VerifyReport:
    """Compare the path-meet table against the solver, length by length.

    Every (node, length) pair up to ``max_len`` is checked for exact
    partition equality; if the table stabilizes within the bound, the
    stabilized values are additionally checked against the fixpoint.
    """
    rows = mop_table(graph, universe, max_len, cap)
    solved = solve(graph, universe, trace=True)
    trace = solved.trace
    assert trace is not None
    # from length ``last`` on, both tables repeat their last rows, which
    # are compared once and stand for every remaining length
    last = max(len(rows), len(trace)) - 1
    mismatches = []
    for l in range(min(max_len, last) + 1):
        row, iterate = _row(rows, l), _row(trace, l)
        for k in range(1, graph.n + 1):
            if row[k - 1] != iterate[k - 1]:
                mismatches.append((k, l))
    at_last = [k for k, l in mismatches if l == last]
    # the tail is walked only when it lists something, so an agreeing
    # report takes no time per length past both ends
    if at_last:
        mismatches += [(k, l) for l in range(last + 1, max_len + 1) for k in at_last]
    done = stabilized(rows)
    fixpoint = [k for k in range(1, graph.n + 1) if rows[-1][k - 1] != solved.state[k - 1]] if done else []
    return VerifyReport(graph.n, max_len, done, graph.n * max(max_len + 1, 0), mismatches, fixpoint)
