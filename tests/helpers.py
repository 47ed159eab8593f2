"""Shared fixtures-in-code: program loading, hand-built partitions, the
term-level, fixpoint and path-level reference oracles, and the seeded random
generators used by property and acceptance tests."""

from __future__ import annotations

import random
from pathlib import Path

from herbrand import (
    Assign,
    Atom,
    AtomRef,
    Base,
    FlowGraph,
    Function,
    LatticeElem,
    NonDet,
    Partition,
    PathLimitError,
    SelfReferenceError,
    SolveResult,
    Sum,
    TOP,
    Term,
    TermUniverse,
    apply_statement,
    bottom,
    build_universe,
    format_term,
    get_class,
    is_top,
    meet,
    meet_all,
    mop_table,
    occurs,
    parse_program,
    parse_term,
    partitions_equal,
    states_equal,
    substitute,
    term_value,
)
from herbrand.dataflow import default_iteration_limit
from herbrand.mop import DEFAULT_PATH_CAP

ROOT = Path(__file__).resolve().parent.parent
PROGRAMS_DIR = ROOT / "programs"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

CORPUS_FILES = [
    "straight_line.dfg",
    "diamond.dfg",
    "loop.dfg",
    "nested_loop.dfg",
    "nondet_copy.dfg",
    "nondet_branch.dfg",
    "self_confluence.dfg",
    "compound_rhs.dfg",
]


def program_text(name: str) -> str:
    return (PROGRAMS_DIR / name).read_text(encoding="utf-8")


def load_program(name: str):
    return parse_program(program_text(name))


def make_partition(universe: TermUniverse, groups: list[list[str]]) -> Partition:
    """Partition with the given classes (term texts); everything else singleton."""
    labels: list[object] = list(range(len(universe.terms)))
    for gi, group in enumerate(groups):
        for text in group:
            pos = universe.index[parse_term(text, universe)]
            labels[pos] = ("group", gi)
    return Partition(universe, tuple(labels))


def cls(p: Partition, text: str) -> set[str]:
    """Formatted member set of the class of the given term."""
    return {format_term(t) for t in get_class(parse_term(text, p.universe), p)}


# ---------------------------------------------------------------------------
# term-level reference semantics (test oracles for the index-level transfers)
# ---------------------------------------------------------------------------


def reference_assign_transfer(elem: LatticeElem, y: Atom, beta: Term) -> LatticeElem:
    """``y := beta`` by inverse substitution on ``Term`` trees.

    Every universe term mentioning ``y`` is keyed by the class value of its
    image under ``[beta/y]``; every other term keeps its class. Inputs are
    not validated beyond the self-reference check.
    """
    if is_top(elem):
        return elem
    assert isinstance(elem, Partition)
    if occurs(beta, y):
        raise SelfReferenceError(f"{y.name!r} occurs in its own right-hand side")
    keys = []
    for pos, t in enumerate(elem.universe.terms):
        if occurs(t, y):
            keys.append(term_value(substitute(t, y, beta), elem))
        else:
            keys.append(Base(elem.labels[pos]))
    return Partition(elem.universe, tuple(keys))


def nondet_definitional(elem: LatticeElem, y: Atom, betas) -> LatticeElem:
    """Reference semantics of ``y := *`` over an explicit substitution sample.

    Two terms stay together iff they are equivalent under ``elem`` and remain
    equivalent after substituting each ``beta``.
    """
    if is_top(elem):
        return elem
    assert isinstance(elem, Partition)
    betas = tuple(betas)
    for beta in betas:
        if occurs(beta, y):
            raise SelfReferenceError(f"sample substitution for {y.name!r} mentions it")
    keys = []
    for t in elem.universe.terms:
        keys.append(
            (
                term_value(t, elem),
                tuple(term_value(substitute(t, y, beta), elem) for beta in betas),
            )
        )
    return Partition(elem.universe, tuple(keys))


def y_free_universe_terms(universe: TermUniverse, y: Atom) -> list[Term]:
    """Universe terms in which ``y`` does not occur."""
    return [t for t in universe.terms if not occurs(t, y)]


# ---------------------------------------------------------------------------
# fixpoint reference (test oracle for ``solve``)
# ---------------------------------------------------------------------------


def reference_round_robin(graph: FlowGraph, universe: TermUniverse) -> SolveResult:
    """In-place ascending-id sweeps until a full sweep changes nothing.

    A chaotic-iteration oracle for the synchronous solver: node 1 is pinned
    to the finest partition and every other node is recomputed from current
    values, so updates within a sweep are visible at once. Any fair update
    order reaches the same greatest fixpoint. ``iterations`` counts full
    sweeps.
    """
    limit = default_iteration_limit(graph, universe)
    state: list[LatticeElem] = [TOP] * graph.n
    state[0] = bottom(universe)
    for sweep in range(1, limit + 1):
        changed = False
        for k in range(2, graph.n + 1):
            kind = graph.kind(k)
            if isinstance(kind, Function):
                (j,) = graph.pred(k)
                new = apply_statement(state[j - 1], kind.stmt)
            else:
                i, j = graph.pred(k)
                new = meet(state[i - 1], state[j - 1])
            if not partitions_equal(state[k - 1], new):
                changed = True
            state[k - 1] = new
        if not changed:
            assert not any(is_top(v) for v in state)
            return SolveResult(state=tuple(state), iterations=sweep)
    raise AssertionError(f"no fixpoint within {limit} sweeps")


# ---------------------------------------------------------------------------
# path-level reference semantics (test oracles for ``mop_table``)
# ---------------------------------------------------------------------------

Path = tuple[int, ...]


def enum_paths(graph: FlowGraph, k: int, bound: int, cap: int = DEFAULT_PATH_CAP) -> list[Path]:
    """All paths from the entry to ``k`` of length strictly below ``bound``.

    Paths are produced breadth-first by length, lexicographically within a
    length. Vertices may repeat (paths traverse loops).
    """
    result: list[Path] = []
    if bound <= 0:
        return result
    frontier: list[Path] = [(1,)]
    if k == 1:
        result.append((1,))
    for _ in range(1, bound):
        nxt: list[Path] = []
        for path in frontier:
            for s in graph.succ(path[-1]):
                nxt.append(path + (s,))
        if len(nxt) > cap:
            raise PathLimitError(f"more than {cap} paths of one length")
        frontier = nxt
        result.extend(p for p in frontier if p[-1] == k)
        if len(result) > cap:
            raise PathLimitError(f"more than {cap} paths to node {k}")
        if not frontier:
            break
    return result


def path_congruence(path: Path, graph: FlowGraph, universe: TermUniverse) -> Partition:
    """Fold the statements along ``path`` starting from the finest partition.

    Function points apply their statement; confluence points copy the value.
    """
    elem: LatticeElem = bottom(universe)
    for v in path[1:]:
        kind = graph.kind(v)
        if isinstance(kind, Function):
            elem = apply_statement(elem, kind.stmt)
    assert isinstance(elem, Partition)
    return elem


def m_l(
    graph: FlowGraph,
    universe: TermUniverse,
    k: int,
    length: int,
    cap: int = DEFAULT_PATH_CAP,
) -> LatticeElem:
    """Meet of the path congruences over all paths to ``k`` shorter than ``length``."""
    paths = enum_paths(graph, k, length, cap)
    return meet_all(path_congruence(p, graph, universe) for p in paths)


def mop(
    graph: FlowGraph,
    universe: TermUniverse,
    k: int,
    max_len: int,
    cap: int = DEFAULT_PATH_CAP,
) -> tuple[LatticeElem, bool]:
    """Meet over all bounded path meets at ``k``, and whether the whole
    table already stabilized (in which case the value is exact)."""
    rows = mop_table(graph, universe, max_len, cap)
    value = meet_all(row[k - 1] for row in rows)
    stabilized = max_len >= 1 and states_equal(rows[max_len - 1], rows[max_len])
    return value, stabilized


# ---------------------------------------------------------------------------
# seeded random generation
# ---------------------------------------------------------------------------

# every pool stays within 6 atoms including the two reserved constants
UNIVERSE_POOLS: list[tuple[list[str], list[str]]] = [
    (["x", "y"], []),
    (["x"], ["a"]),
    (["x", "y"], ["a"]),
    (["x", "y"], ["a", "b"]),
    (["x", "y", "z"], ["a"]),
]


def rand_universe(rng: random.Random) -> TermUniverse:
    variables, constants = rng.choice(UNIVERSE_POOLS)
    return build_universe(variables, constants)


def rand_rhs(universe: TermUniverse, rng: random.Random, avoid: Atom):
    pool = [a for a in universe.variables + universe.constants if a != avoid]
    if not pool:
        return None
    if rng.random() < 0.5:
        return AtomRef(rng.choice(pool))
    return Sum(AtomRef(rng.choice(pool)), AtomRef(rng.choice(pool)))


def rand_statement(universe: TermUniverse, rng: random.Random):
    target = rng.choice(universe.variables)
    if rng.random() < 0.25:
        return NonDet(target)
    rhs = rand_rhs(universe, rng, target)
    if rhs is None:
        return NonDet(target)
    return Assign(target, rhs)


def rand_partition(universe: TermUniverse, rng: random.Random, steps: int | None = None) -> Partition:
    """A partition generated by random statements and meets from the finest one."""
    if steps is None:
        steps = rng.randrange(0, 8)
    pool = [bottom(universe)]
    current = pool[0]
    for _ in range(steps):
        if rng.random() < 0.3 and len(pool) > 1:
            current = meet(current, rng.choice(pool))
        else:
            current = apply_statement(current, rand_statement(universe, rng))
        pool.append(current)
    return current


def rand_program_text(rng: random.Random, max_nodes: int = 8, min_nodes: int = 2) -> str:
    """A random valid program: ids are contiguous, every node reachable,
    back edges arise from confluence second-predecessors."""
    variables = ["x", "y", "z"][: rng.randrange(1, 4)]
    constants = ["a", "b"][: rng.randrange(0, 3)]
    n = rng.randrange(min_nodes, max_nodes + 1)
    lines = ["vars " + " ".join(variables)]
    if constants:
        lines.append("consts " + " ".join(constants))
    lines.append("node 1 entry")
    for k in range(2, n + 1):
        primary = rng.randrange(1, k)
        if k >= 3 and rng.random() < 0.3:
            secondary = rng.randrange(1, n + 1)
            lines.append(f"node {k} confluence pred {primary} {secondary}")
            continue
        target = rng.choice(variables)
        atoms = [a for a in variables + constants if a != target]
        if not atoms or rng.random() < 0.25:
            lines.append(f"node {k} nondet {target} pred {primary}")
        elif rng.random() < 0.5:
            lines.append(f"node {k} assign {target} := {rng.choice(atoms)} pred {primary}")
        else:
            lhs, rhs = rng.choice(atoms), rng.choice(atoms)
            lines.append(f"node {k} assign {target} := {lhs} + {rhs} pred {primary}")
    return "\n".join(lines) + "\n"


def random_corpus(count: int, seed: int = 20260810) -> list[tuple[str, str]]:
    out = []
    for i in range(count):
        rng = random.Random(seed + i)
        out.append((f"random_{i:02d}", rand_program_text(rng)))
    return out


def full_corpus(random_count: int = 14) -> list[tuple[str, str]]:
    """Named program texts: every checked-in file plus generated ones."""
    named = [(name, program_text(name)) for name in CORPUS_FILES]
    return named + random_corpus(random_count)
