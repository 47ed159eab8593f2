"""Meet-over-all-paths reference computation.

This module recomputes the per-node analysis values along explicit program
paths, independently of the fixpoint solver, and checks the two
characterizations against each other:

  * the bounded-length path meet at every node and length equals the
    corresponding synchronous iterate of the solver, and
  * once the path meets stop changing from one length bound to the next,
    they equal the solver's fixpoint exactly.

``mop_table`` enumerates the paths breadth-first and carries each path's
congruence along, extending it one edge at a time and memoizing repeated
(node, value) steps; ``verify_mop_mfp`` compares its rows with the solver's
iterates. The literal definitions, which rebuild every path from scratch,
live with the tests and cross-check ``mop_table`` there.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .congruence import LatticeElem, Partition, TOP, bottom, meet, partitions_equal
from .dataflow import FlowGraph, Function, solve, states_equal
from .errors import PathLimitError
from .terms import TermUniverse
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
    of length below ``l``, for every ``l`` up to ``max_len``."""
    n = graph.n
    cum: list[LatticeElem] = [TOP] * n
    rows: list[tuple[LatticeElem, ...]] = [tuple(cum)]
    frontier: list[tuple[int, Partition]] = [(1, bottom(universe))]
    step_memo: dict[tuple[int, Partition], Partition] = {}
    for _ in range(max_len):
        for end, value in frontier:
            cum[end - 1] = meet(cum[end - 1], value)
        rows.append(tuple(cum))
        nxt: list[tuple[int, Partition]] = []
        for end, value in frontier:
            for s in graph.succ(end):
                key = (s, value)
                out = step_memo.get(key)
                if out is None:
                    kind = graph.kind(s)
                    if isinstance(kind, Function):
                        applied = apply_statement(value, kind.stmt)
                        assert isinstance(applied, Partition)
                        out = applied
                    else:
                        out = value
                    step_memo[key] = out
                nxt.append((s, out))
        if len(nxt) > cap:
            raise PathLimitError(f"more than {cap} paths of one length")
        frontier = nxt
    return rows


@dataclass
class VerifyReport:
    node_count: int
    max_len: int
    stabilized: bool
    checks: int = 0
    iterate_mismatches: list[tuple[int, int]] = field(default_factory=list)
    fixpoint_mismatches: list[int] = field(default_factory=list)

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

    def iterate(l: int) -> tuple[LatticeElem, ...]:
        # past stabilization every further iterate equals the fixpoint
        return trace[l] if l < len(trace) else trace[-1]

    report = VerifyReport(
        node_count=graph.n,
        max_len=max_len,
        stabilized=max_len >= 1 and states_equal(rows[max_len - 1], rows[max_len]),
    )
    for l in range(max_len + 1):
        for k in range(1, graph.n + 1):
            report.checks += 1
            if not partitions_equal(rows[l][k - 1], iterate(l)[k - 1]):
                report.iterate_mismatches.append((k, l))
    if report.stabilized:
        for k in range(1, graph.n + 1):
            if not partitions_equal(rows[max_len][k - 1], solved.state[k - 1]):
                report.fixpoint_mismatches.append(k)
    return report
