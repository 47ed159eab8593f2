"""An oracle that shares no code with the analyzer.

Every path to a node runs the program's variables as hash-consed free terms:
each variable starts as an opaque symbol of its own, a constant is itself,
``y := e`` sets ``y`` to the free term of ``e``, and ``y := *`` sets ``y`` to
a symbol that appears nowhere else. Two terms are Herbrand-equivalent at a
node exactly when their free terms are equal on every path to it. On an
acyclic program the paths are finite, so the oracle is exact there.

From ``herbrand`` this file uses only ``parse_program`` (its statements and
its universe's term list), ``solve``, ``term_value`` and the term types; the
path walk, the free terms and the class comparison are its own.
"""

from itertools import combinations

import pytest

from herbrand import Assign, Atom, NonDet, Sum, parse_program, solve, term_value
from helpers import full_corpus
from test_acceptance import DEPTH_ONE_MISSES


def is_acyclic(graph) -> bool:
    # a node is placed once all of its predecessors are; a cycle leaves
    # its nodes unplaced
    placed: set[int] = set()
    grew = True
    while grew:
        ready = {k for k in range(1, graph.n + 1) if k not in placed and set(graph.preds[k - 1]) <= placed}
        placed |= ready
        grew = bool(ready)
    return len(placed) == graph.n


def text(t) -> str:
    if isinstance(t, Atom):
        return t.name
    parts = [text(side) if isinstance(side, Atom) else f"({text(side)})" for side in (t.left, t.right)]
    return "+".join(parts)


def checked_terms(universe) -> list:
    """The universe terms, then every depth-2 sum of two universe terms."""
    terms = list(universe.terms)
    return terms + [Sum(l, r) for l in terms for r in terms if isinstance(l, Sum) or isinstance(r, Sum)]


def free_term_keys(graph, terms: list) -> dict[int, list[tuple]]:
    """Per node, each term's tuple of free terms over all paths to it, with
    hash-consing making every distinct free term one int. ``terms`` holds
    every atom and every right-hand side, and the operands of each of its
    sums come before the sum."""
    ids: dict[tuple, int] = {}

    def cons(key: tuple) -> int:
        return ids.setdefault(key, len(ids))

    # an atom's name, or the positions of a sum's operands
    position = {t: i for i, t in enumerate(terms)}
    plan = [t.name if isinstance(t, Atom) else (position[t.left], position[t.right]) for t in terms]

    def evaluate(store: dict) -> list[int]:
        row: list[int] = []
        for step in plan:
            row.append(cons(("+", row[step[0]], row[step[1]])) if type(step) is tuple else store[step])
        return row

    succs: dict[int, list[int]] = {k: [] for k in range(1, graph.n + 1)}
    for k in range(1, graph.n + 1):
        for p in graph.preds[k - 1]:
            succs[p].append(k)
    columns: dict[int, list[list[int]]] = {k: [] for k in range(1, graph.n + 1)}
    # a variable starts as its own symbol; a constant is itself
    start = {t.name: cons((t.kind, t.name)) for t in terms if isinstance(t, Atom)}
    todo = [(1, start, evaluate(start))]
    while todo:
        k, store, row = todo.pop()
        kind = graph.kinds[k - 1]
        if isinstance(kind, (Assign, NonDet)):
            store = dict(store)
            # ``y := *`` makes a symbol that appears nowhere else
            value = row[position[kind.rhs]] if isinstance(kind, Assign) else cons(("fresh", len(ids)))
            store[kind.target.name] = value
            row = evaluate(store)
        columns[k].append(row)
        todo += [(s, store, row) for s in succs[k]]
    return {k: list(zip(*paths)) for k, paths in columns.items()}


def disagreements(terms: list, outer: list, inner: list) -> list[tuple]:
    """The pairs of terms with equal ``outer`` labels and unequal ``inner``
    ones."""
    groups: dict = {}
    for t, o, i in zip(terms, outer, inner):
        groups.setdefault(o, {}).setdefault(i, []).append(t)
    return [(a, b) for split in groups.values() for xs, ys in combinations(split.values(), 2) for a in xs for b in ys]


def compare(graph, universe):
    """Per node, over the universe and depth-2 terms: the pairs that the
    analysis joins but the oracle separates, those that the oracle joins but
    the analysis separates, and each term's free terms."""
    terms = checked_terms(universe)
    state = solve(graph, universe).state
    keys = free_term_keys(graph, terms)
    for k in range(1, graph.n + 1):
        values = [term_value(t, state[k - 1]) for t in terms]
        yield k, disagreements(terms, values, keys[k]), disagreements(terms, keys[k], values), dict(zip(terms, keys[k]))


ACYCLIC = [
    (name, universe, graph)
    for name, program in full_corpus()
    for universe, graph in [parse_program(program)]
    if is_acyclic(graph)
]


def test_the_corpus_has_nineteen_acyclic_programs():
    assert len(ACYCLIC) == 19


@pytest.mark.parametrize("name, universe, graph", ACYCLIC, ids=[name for name, _, _ in ACYCLIC])
def test_analysis_is_sound_and_complete_against_free_terms(name, universe, graph):
    # sound on universe and depth-2 terms, complete on universe terms
    depth_one = set(universe.terms)
    for k, unsound, missed, _ in compare(graph, universe):
        assert unsound == [], (name, k)
        assert [(a, b) for a, b in missed if a in depth_one and b in depth_one] == [], (name, k)


def oracle_only(graph, universe) -> dict[int, list[tuple[str, str]]]:
    """The oracle-only pairs at each node, leaving out a pair of sums whose
    left operands and right operands are each joined by the oracle: that
    pair follows from a shorter one."""
    found = {}
    for k, unsound, missed, key in compare(graph, universe):
        assert unsound == []
        pairs = sorted(
            tuple(sorted((text(a), text(b))))
            for a, b in missed
            if not (
                isinstance(a, Sum) and isinstance(b, Sum)
                and key[a.left] == key[b.left] and key[a.right] == key[b.right]
            )
        )
        if pairs:
            found[k] = pairs
    return found


def test_oracle_pins_the_documented_depth_one_misses():
    found = {}
    for name, (program, *_) in sorted(DEPTH_ONE_MISSES.items()):
        universe, graph = parse_program(program)
        found[name] = oracle_only(graph, universe)
    assert found == {
        "diamond": {6: [("(a+b)+c", "z")]},
        "kill": {4: [("(a+b)+c", "z")], 5: [("(a+b)+c", "z"), ("y+c", "z")]},
    }
