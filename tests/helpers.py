"""Shared fixtures-in-code: program loading, hand-built partitions, the
label-grid reference representation and its kernels, the term-level,
congruence-axiom, lattice, fixpoint, path-level and report reference
oracles, and the seeded random generators used by property and acceptance
tests."""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import chain, product
from pathlib import Path
from typing import Iterable

from herbrand import (
    Assign,
    Atom,
    DeclarationError,
    FlowGraph,
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
    mop_table,
    occurs,
    parse_program,
    parse_term,
    solve,
)
from herbrand.cli import main as cli_main
from herbrand.dataflow import default_iteration_limit
from herbrand.mop import DEFAULT_PATH_CAP, VerifyReport
from herbrand.report import _Render, verify_lines
from herbrand.terms import VARIABLE

ROOT = Path(__file__).resolve().parent.parent
PROGRAMS_DIR = ROOT / "programs"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
CLI_DIGESTS = GOLDEN_DIR / "cli_digests.json"

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
    """The least congruence with the given classes (term texts): the atoms
    of a group share a class, which the group's one pair, if any, defines;
    every other atom is a singleton."""
    keys: list[object] = list(range(len(universe.atoms)))
    pairs = {}
    for gi, group in enumerate(groups):
        for text in group:
            t = parse_term(text, universe)
            if isinstance(t, Sum):
                pairs[("group", gi)] = t
            else:
                keys[universe.index[t]] = ("group", gi)
    defs = [(key, keys[universe.index[t.left]], keys[universe.index[t.right]]) for key, t in pairs.items()]
    return Partition(universe, keys, defs)


def counting_inits(monkeypatch) -> list[int]:
    """Counts ``Partition.__init__`` calls from here on in ``built[0]``."""
    built, init = [0], Partition.__init__

    def counting_init(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Partition, "__init__", counting_init)
    return built


def make_grid(universe: TermUniverse, groups: list[list[str]]) -> GridPartition:
    """Grid partition with the given classes (term texts); everything else
    singleton. Congruence or not."""
    labels: list[object] = list(range(len(universe.terms)))
    for gi, group in enumerate(groups):
        for text in group:
            pos = grid_index(universe)[parse_term(text, universe)]
            labels[pos] = ("group", gi)
    return GridPartition(universe, tuple(labels))


@lru_cache(maxsize=256)
def universe_pairs(universe: TermUniverse) -> tuple[tuple[Sum, ...], ...]:
    """The m × m table of atom pairs: ``[i][j]`` is atom i + atom j, the
    same object as in ``universe.terms``."""
    terms, m = universe.terms, len(universe.atoms)
    return tuple(terms[m + i * m : m + (i + 1) * m] for i in range(m))


def dense(p: Partition) -> tuple[list[int], list[tuple[int, int] | None]]:
    """``p`` in first-occurrence numbering: each atom's class number, the
    rank of its representative label, and per atom class its definition
    (l, r) over those numbers or ``None``."""
    rank = {c: n for n, c in enumerate(dict.fromkeys(p.atoms))}
    defs: list[tuple[int, int] | None] = [None] * len(rank)
    for c, l, r in p.defs:
        defs[rank[c]] = (rank[l], rank[r])
    return [rank[c] for c in p.atoms], defs


def members(p: Partition, count: int, least: int = 1) -> tuple[list[tuple[int, ...]], list[tuple[int, int, int]]]:
    """The classes of ``p`` as index data over its first-occurrence numbers
    (``dense``): the atom groups, where group c holds the indices below
    ``count`` of atom class c's atoms and a last, empty group is the group
    of label -1; and one label triple ``(c, l, r)`` per listed class, in
    label order. An atom class c is listed as
    ``(c, l, r)`` over its definition (l, r), or ``(c, -1, -1)`` without
    one; each undefined operand class pair (l, r), in lexicographic order,
    as ``(-1, l, r)``. A class's members are the atoms of group c and the
    pairs over group l × group r, and a class with fewer than ``least`` (1
    or 2) of them is left out."""
    labels, defs = dense(p)
    atoms: list[list[int]] = [[] for _ in range(len(defs) + 1)]
    for i, c in zip(range(count), labels):
        atoms[c].append(i)
    groups = list(map(tuple, atoms))
    sizes = list(map(len, groups))
    labeled = enumerate(pair or (-1, -1) for pair in defs)
    out = [(c, l, r) for c, (l, r) in labeled if sizes[c] + sizes[l] * sizes[r] >= least]
    # an undefined operand class pair (l, r) has |l| * |r| counted members,
    # so below ``least`` a one-atom l needs an r of two or more
    shown = [c for c, size in enumerate(sizes) if size]
    shared = [c for c in shown if sizes[c] > 1]
    defined = set(defs)
    out += [(-1, l, r) for l in shown for r in (shown if sizes[l] >= least else shared) if (l, r) not in defined]
    return groups, out


def classes(p: Partition) -> list[list[Term]]:
    """Class member lists of ``p`` over the universe terms, ordered by class
    label, members in term order: a class's atoms, then its pairs row by
    row, expanded from the atom groups and label triples of ``members``."""
    atoms, pairs = p.universe.atoms, universe_pairs(p.universe)
    groups, labels = members(p, len(atoms))
    return [[atoms[i] for i in groups[c]] + [pairs[i][j] for i in groups[l] for j in groups[r]] for c, l, r in labels]


def num_classes(p: Partition) -> int:
    """The class count of ``p``, from its labels and definitions alone: k
    atom classes and k² operand class pairs, less the defined pairs, which
    lie in atom classes."""
    k = len(set(p.atoms))
    return k + k * k - len(p.defs)


def cls(p: Partition | GridPartition, text: str) -> set[str]:
    """Formatted member set of the class of the given term; a grid lists it
    through its own member lists."""
    t = parse_term(text, p.universe)
    members = p.classes()[p.class_of(t)] if isinstance(p, GridPartition) else get_class(t, p)
    return {format_term(s) for s in members}


# ---------------------------------------------------------------------------
# the label grid (the reference representation: one label per universe term,
# atom i at position i and pair (i, j) at m + i*m + j) and its kernels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridPartition:
    """A partition of the universe terms, one canonical label per term.

    ``labels[i]`` is the class of ``universe.terms[i]``. The constructor
    accepts any hashable grouping keys and renumbers them densely in first
    occurrence order. Any partition is admitted, congruence or not.
    """

    universe: TermUniverse
    labels: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.labels) != len(self.universe.terms):
            raise ValueError(f"expected {len(self.universe.terms)} labels, got {len(self.labels)}")
        ids = {key: i for i, key in enumerate(dict.fromkeys(self.labels))}
        object.__setattr__(self, "labels", tuple(map(ids.__getitem__, self.labels)))

    @property
    def num_classes(self) -> int:
        return max(self.labels, default=-1) + 1

    def class_of(self, t: Term) -> int:
        return self.labels[grid_index(self.universe)[t]]

    def classes(self) -> list[list[Term]]:
        """Class member lists, ordered by class label, members in term order."""
        out: list[list[Term]] = [[] for _ in range(self.num_classes)]
        for t, lab in zip(self.universe.terms, self.labels):
            out[lab].append(t)
        return out

    def pair_classes(self) -> dict[tuple[int, int], int]:
        """``(class(l), class(r)) -> class(l+r)`` over the universe pairs.

        Functional by C2; otherwise the last pair in row-major order wins.
        """
        m = len(self.universe.atoms)
        atom_labels = self.labels[:m]
        return dict(zip(product(atom_labels, atom_labels), self.labels[m:]))


@lru_cache(maxsize=256)
def grid_index(universe: TermUniverse) -> dict[Term, int]:
    """Each universe term's grid position: atom i at i, pair (i, j) at
    m + i*m + j, the order of ``universe.terms``."""
    return {t: pos for pos, t in enumerate(universe.terms)}


@lru_cache(maxsize=256)  # the report reference expands each node's value
def grid(elem):
    """The grid of a lattice value: a ``Partition`` is expanded through
    ``class_of`` (the ``term_value`` fold) over the universe terms, not
    through ``Partition.members``, so the references built on the grid do
    not check the class lister against itself; ``TOP`` and a grid are
    returned as they are."""
    if not isinstance(elem, Partition):
        return elem
    return GridPartition(elem.universe, tuple(map(elem.class_of, elem.universe.terms)))


def grid_term_value(t: Term, g: GridPartition):
    """Class value of a term of any depth under ``g``: an ``int`` label, or
    the pair of the operand values of a sum that no universe pair matches."""
    pos = grid_index(g.universe).get(t)
    if pos is not None:
        return g.labels[pos]
    if isinstance(t, Atom):
        raise DeclarationError(f"undeclared atom {t.name!r}")
    pair = (grid_term_value(t.left, g), grid_term_value(t.right, g))
    return g.pair_classes().get(pair, pair)


def grid_refines(l1, l2) -> bool:
    """True iff every class of ``l1`` is contained in a class of ``l2``."""
    if is_top(l2):
        return True
    if is_top(l1):
        return False
    a, b = l1.labels, l2.labels
    # map each class of l1 to a class of l2 it meets; l1 refines l2 exactly
    # when that map sends every position to its own l2 label
    image = dict(zip(a, b))
    return tuple(map(image.__getitem__, a)) == b


def grid_meet(l1, l2):
    """Pairwise nonempty class intersections; ``l1`` itself when it already
    refines ``l2``."""
    if is_top(l1):
        return l2
    if is_top(l2):
        return l1
    if grid_refines(l1, l2):
        return l1
    return GridPartition(l1.universe, tuple(zip(l1.labels, l2.labels)))


def grid_assign_transfer(g, y: Atom, beta: Term):
    """``y := beta`` on the grid, for a declared variable ``y`` and a
    ``y``-free universe term ``beta``.

    Only the ``2m`` positions mentioning ``y`` change: each takes the class
    of its image under ``[beta/y]``. For an atom ``b`` the image is another
    universe position; for a pair ``beta`` the image of ``y+j`` or ``i+y`` is
    a depth-2 term, whose key is the universe class with the same operand
    classes, if any, else the operand class pair.
    """
    if is_top(g):
        return g
    universe = g.universe
    index = grid_index(universe)
    yi, bpos = index[y], index[beta]
    labels = g.labels
    m = len(universe.atoms)
    row = m + yi * m
    keys: list[object] = list(labels)
    if bpos < m:
        brow = m + bpos * m
        keys[yi] = labels[bpos]
        keys[row : row + m] = labels[brow : brow + m]
        keys[m + yi :: m] = labels[m + bpos :: m]
        keys[row + yi] = labels[brow + bpos]
    else:
        cb = labels[bpos]
        pair_classes = g.pair_classes()
        operands = list(labels[:m])
        operands[yi] = cb
        row_pairs = [(cb, c) for c in operands]
        column_pairs = [(c, cb) for c in operands]
        keys[yi] = cb
        keys[row : row + m] = [pair_classes.get(pair, pair) for pair in row_pairs]
        keys[m + yi :: m] = [pair_classes.get(pair, pair) for pair in column_pairs]
    return GridPartition(universe, tuple(keys))


# ---------------------------------------------------------------------------
# term-level reference semantics (test oracles for the index-level transfers)
# ---------------------------------------------------------------------------


def substitute(t: Term, x: Atom, alpha: Term) -> Term:
    """Replace every occurrence of the variable ``x`` in ``t`` by ``alpha``."""
    if x.kind != VARIABLE:
        raise ValueError(f"substitution target {x.name!r} is not a variable")
    if isinstance(t, Atom):
        return alpha if t == x else t
    assert isinstance(t, Sum)
    if not occurs(t, x):
        return t
    return Sum(substitute(t.left, x, alpha), substitute(t.right, x, alpha))


def depth(t: Term) -> int:
    if isinstance(t, Atom):
        return 0
    assert isinstance(t, Sum)
    return 1 + max(depth(t.left), depth(t.right))


def reference_assign_transfer(elem: LatticeElem, y: Atom, beta: Term) -> LatticeElem:
    """``y := beta`` by inverse substitution on ``Term`` trees, on the grid.

    Every universe term mentioning ``y`` is keyed by the class value of its
    image under ``[beta/y]``; every other term keeps its class. Inputs are
    not validated beyond the self-reference check.
    """
    g = grid(elem)
    if is_top(g):
        return g
    if occurs(beta, y):
        raise SelfReferenceError(f"{y.name!r} occurs in its own right-hand side")
    keys = []
    for pos, t in enumerate(g.universe.terms):
        if occurs(t, y):
            keys.append(grid_term_value(substitute(t, y, beta), g))
        else:
            keys.append(g.labels[pos])
    return GridPartition(g.universe, tuple(keys))


def nondet_definitional(elem: LatticeElem, y: Atom, betas) -> LatticeElem:
    """Reference semantics of ``y := *`` over an explicit substitution
    sample, on the grid.

    Two terms stay together iff they are equivalent under ``elem`` and remain
    equivalent after substituting each ``beta``.
    """
    g = grid(elem)
    if is_top(g):
        return g
    betas = tuple(betas)
    for beta in betas:
        if occurs(beta, y):
            raise SelfReferenceError(f"sample substitution for {y.name!r} mentions it")
    keys = []
    for t in g.universe.terms:
        keys.append(
            (
                grid_term_value(t, g),
                tuple(grid_term_value(substitute(t, y, beta), g) for beta in betas),
            )
        )
    return GridPartition(g.universe, tuple(keys))


def y_free_universe_terms(universe: TermUniverse, y: Atom) -> list[Term]:
    """Universe terms in which ``y`` does not occur."""
    return [t for t in universe.terms if not occurs(t, y)]


# ---------------------------------------------------------------------------
# congruence axioms (the diagnostic checker for C1, C2 and C3)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    axiom: str
    witness: tuple[Term, ...]
    detail: str


def congruence_violations(p) -> list[Violation]:
    """Check axioms C1, C2, C3 over the whole universe; empty means valid."""
    p = grid(p)
    u = p.universe
    m = len(u.atoms)
    out: list[Violation] = []

    # C1: a class may hold at most one constant.
    const_in_class: dict[int, Term] = {}
    for i, atom in enumerate(u.atoms):
        if atom.kind == VARIABLE:
            continue
        t = u.terms[i]
        other = const_in_class.setdefault(p.labels[i], t)
        if other is not t:
            out.append(Violation("C1", (other, t), "distinct constants share a class"))

    # C2 forward: equal operand classes force equal compound classes.
    # C2 backward: a compound class determines its operand class pattern.
    by_key: dict[tuple[int, int], tuple[Term, int]] = {}
    by_label: dict[int, tuple[Term, tuple[int, int]]] = {}
    for pos in range(m, len(u.terms)):
        i, j = divmod(pos - m, m)
        key = (p.labels[i], p.labels[j])
        t = u.terms[pos]
        lab = p.labels[pos]
        prev = by_key.setdefault(key, (t, lab))
        if prev[1] != lab:
            out.append(
                Violation(
                    "C2",
                    (prev[0], t),
                    "operand classes match but compounds are in distinct classes",
                )
            )
        prev_l = by_label.setdefault(lab, (t, key))
        if prev_l[1] != key:
            out.append(
                Violation(
                    "C2",
                    (prev_l[0], t),
                    "compounds share a class but operand classes differ",
                )
            )

    # C3: besides the constant itself, only variables may join a constant's class.
    const_labels = {p.labels[i]: u.terms[i] for i, a in enumerate(u.atoms) if a.kind != VARIABLE}
    for pos in range(m, len(u.terms)):
        c = const_labels.get(p.labels[pos])
        if c is not None:
            out.append(
                Violation("C3", (c, u.terms[pos]), "compound term congruent to a constant")
            )
    return out


def is_congruence(p) -> bool:
    return not congruence_violations(p)


# ---------------------------------------------------------------------------
# lattice reference (test oracles for ``meet`` and ``refines``)
# ---------------------------------------------------------------------------


def reference_refines(l1: LatticeElem, l2: LatticeElem) -> bool:
    """True iff every class of ``l1`` lies inside one class of ``l2``, by a
    position-by-position scan of the grids that records where each class of
    ``l1`` goes."""
    l1, l2 = grid(l1), grid(l2)
    if is_top(l2):
        return True
    if is_top(l1):
        return False
    assert l1.universe is l2.universe
    image: dict[int, int] = {}
    for a, b in zip(l1.labels, l2.labels):
        if image.setdefault(a, b) != b:
            return False
    return True


def reference_meet(l1: LatticeElem, l2: LatticeElem) -> LatticeElem:
    """The product of two partitions' grids: one class per distinct label pair."""
    l1, l2 = grid(l1), grid(l2)
    if is_top(l1):
        return l2
    if is_top(l2):
        return l1
    assert l1.universe is l2.universe
    pair_ids: dict[tuple[int, int], int] = {}
    labels = [pair_ids.setdefault(pair, len(pair_ids)) for pair in zip(l1.labels, l2.labels)]
    return GridPartition(l1.universe, tuple(labels))


def meet_all(elems: Iterable[LatticeElem]) -> LatticeElem:
    """Fold of ``meet``; the empty collection yields ``TOP``."""
    return reduce(meet, elems, TOP)


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
            if isinstance(kind, (Assign, NonDet)):
                (j,) = graph.pred(k)
                new = apply_statement(state[j - 1], kind)
            else:
                i, j = graph.pred(k)
                new = meet(state[i - 1], state[j - 1])
            if state[k - 1] != new:
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
        if isinstance(kind, (Assign, NonDet)):
            elem = apply_statement(elem, kind)
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
    stabilized = max_len >= 1 and rows[-2] == rows[-1]
    return value, stabilized


# ---------------------------------------------------------------------------
# report reference (test oracle for the renderer: one dict per node, grouped
# position by position, encoded by ``json.dumps``)
# ---------------------------------------------------------------------------


def visible_classes(elem: LatticeElem, full: bool = False) -> list[list[str]] | None:
    """The renderer's class lists for one node, or ``None`` for a ``TOP``
    node."""
    return None if is_top(elem) else [row[2] for row in _Render("text", full).rows(elem)]


def render_verify(report: VerifyReport, fmt: str = "text") -> str:
    """The whole ``verify`` report as one string, joined from
    ``verify_lines``."""
    return "".join(verify_lines(report, fmt))


def reference_visible_classes(elem: LatticeElem, full: bool = False) -> list[list[str]] | None:
    """Class lists for one node, or ``None`` for a ``TOP`` node.

    The reserved constants are the last atoms of the universe, so unless
    ``full`` is set only the atoms below index ``k`` and the pairs of such
    atoms are visible; only the kept classes are formatted.
    """
    elem = grid(elem)
    if is_top(elem):
        return None
    universe = elem.universe
    labels = elem.labels
    if full:
        positions: Iterable[int] = range(len(labels))
    else:
        m = len(universe.atoms)
        k = m - len(universe.reserved)
        pair_rows = (range(m + i * m, m + i * m + k) for i in range(k))
        positions = chain(range(k), *pair_rows)
    members: dict[int, list[int]] = {}
    for pos in positions:
        members.setdefault(labels[pos], []).append(pos)
    terms = universe.terms
    rows = [
        sorted(format_term(terms[pos]) for pos in group)
        for group in members.values()
        if full or len(group) > 1
    ]
    rows.sort()
    return rows


def reference_point_entries(state: Iterable[LatticeElem], full: bool = False) -> list[dict]:
    points = []
    for node_id, elem in enumerate(state, start=1):
        rows = reference_visible_classes(elem, full)
        if rows is None:
            points.append({"id": node_id, "status": "top"})
        else:
            points.append({"id": node_id, "status": "partition", "classes": rows})
    return points


def reference_points_text(points: list[dict], indent: str = "") -> list[str]:
    lines = []
    for point in points:
        lines.append(f"{indent}node {point['id']}: {point['status']}")
        for row in point.get("classes", ()):
            lines.append(f"{indent}  [" + ", ".join(row) + "]")
    return lines


def reference_emit_report(
    state: Iterable[LatticeElem],
    iterations: int,
    fmt: str = "text",
    full: bool = False,
    trace: list[tuple[LatticeElem, ...]] | None = None,
) -> str:
    """The ``analyze`` report."""
    points = reference_point_entries(state, full)
    if fmt == "json":
        payload: dict = {"solver": "jacobi", "iterations": iterations, "points": points}
        if trace is not None:
            payload["trace"] = [
                {"iteration": l, "points": reference_point_entries(row, full)}
                for l, row in enumerate(trace)
            ]
        return json.dumps(payload, indent=2) + "\n"
    lines = ["solver: jacobi", f"iterations: {iterations}"]
    lines.extend(reference_points_text(points))
    if trace is not None:
        for l, row in enumerate(trace):
            lines.append(f"iterate {l}:")
            lines.extend(reference_points_text(reference_point_entries(row, full), indent="  "))
    return "\n".join(lines) + "\n"


def reference_mop_report(
    graph: FlowGraph,
    universe: TermUniverse,
    max_len: int,
    fmt: str = "text",
    full: bool = False,
) -> str:
    """The ``mop`` report."""
    rows = mop_table(graph, universe, max_len)
    stabilized = max_len >= 1 and rows[-2] == rows[-1]
    points = reference_point_entries(rows[-1], full)
    if fmt == "json":
        payload = {"solver": "mop", "max_len": max_len, "stabilized": stabilized, "points": points}
        return json.dumps(payload, indent=2) + "\n"
    lines = ["solver: mop", f"max_len: {max_len}", f"stabilized: {'yes' if stabilized else 'no'}"]
    lines.extend(reference_points_text(points))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# command line digests (the recorded bytes of every corpus program under
# every subcommand; ``golden/record_cli_digests.py`` rewrites the table)
# ---------------------------------------------------------------------------


def cli_commands() -> list[list[str]]:
    """Every command of the digest table, naming the program by file name."""
    commands = []
    for name in CORPUS_FILES:
        commands.append(["check", name])
        for fmt in ("text", "json"):
            for flags in ([], ["--full"], ["--trace"], ["--full", "--trace"]):
                commands.append(["analyze", name, "--format", fmt, *flags])
            for max_len in ("0", "1", "5", "12"):
                for flags in ([], ["--full"]):
                    commands.append(["mop", name, "--max-len", max_len, "--format", fmt, *flags])
            commands.append(["verify", name, "--max-len", "10", "--format", fmt])
    return commands


def cli_digest_table() -> dict[str, dict]:
    """Run every command through ``cli.main`` in-process; each command line
    maps to the SHA-256 of its stdout and stderr and to its exit code."""
    table = {}
    for command, name, *rest in cli_commands():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli_main([command, str(PROGRAMS_DIR / name), *rest])
        table[" ".join([command, name, *rest])] = {
            "stdout": hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(),
            "stderr": hashlib.sha256(err.getvalue().encode("utf-8")).hexdigest(),
            "exit": code,
        }
    return table


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
        return rng.choice(pool)
    return Sum(rng.choice(pool), rng.choice(pool))


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


def large_looping_programs(number: int = 8, seed: int = 4242) -> list[tuple[str, TermUniverse, FlowGraph]]:
    """Seeded random programs of 21 to 40 nodes, each closing a loop, parsed."""
    out = []
    for i in range(number):
        text = rand_program_text(random.Random(seed + i), max_nodes=40, min_nodes=21)
        universe, graph = parse_program(text)
        assert graph.n > 20
        # a predecessor at or after the node closes a loop
        assert any(p >= k for k in range(1, graph.n + 1) for p in graph.pred(k)), i
        out.append((f"large_{i}", universe, graph))
    return out


def iterate_values() -> list[Partition]:
    """Every distinct non-``TOP`` value among the solver's iterates on
    ``full_corpus()`` and ``large_looping_programs()``."""
    programs = [(name, *parse_program(text)) for name, text in full_corpus()]
    values: dict[Partition, None] = {}
    for _, universe, graph in programs + large_looping_programs():
        for row in solve(graph, universe, trace=True).trace:
            values.update((p, None) for p in row if not is_top(p))
    return list(values)
