import random
import re
import string
import tracemalloc

import pytest

from herbrand import (
    Atom,
    DeclarationError,
    ParseError,
    Sum,
    TermUniverse,
    bottom,
    build_universe,
    emit_report,
    format_term,
    get_class,
    is_top,
    mop_table,
    occurs,
    parse_term,
    solve,
    term_value,
    verify_mop_mfp,
)
from herbrand.terms import CONSTANT, MAX_SUM_DEPTH, MAX_TERM_DEPTH, RESERVED, RESERVED_NAMES, VARIABLE
from helpers import CORPUS_FILES, depth, load_program, substitute, universe_pairs, written


@pytest.fixture
def universe():
    return build_universe(["x", "y"], ["a", "b"])


def test_substitute_replaces_the_variable_itself(universe):
    y = universe.resolve("y")
    ab = parse_term("a+b", universe)
    assert substitute(y, y, ab) == ab


def test_substitute_recurses_into_sums(universe):
    y = universe.resolve("y")
    assert substitute(parse_term("x+y", universe), y, universe.resolve("a")) == parse_term(
        "x+a", universe
    )


def test_substitute_ignores_terms_without_the_variable(universe):
    y = universe.resolve("y")
    b = parse_term("b", universe)
    assert substitute(b, y, universe.resolve("a")) == b


def test_substitute_rejects_constant_targets(universe):
    with pytest.raises(ValueError):
        substitute(parse_term("x", universe), universe.resolve("a"), parse_term("b", universe))


def test_occurs(universe):
    x = universe.resolve("x")
    y = universe.resolve("y")
    assert occurs(parse_term("x+y", universe), x)
    assert not occurs(parse_term("a+b", universe), x)
    assert occurs(y, y)


def _rand_term(universe, rng, max_depth):
    if max_depth == 0 or rng.random() < 0.4:
        return rng.choice(universe.atoms[:4])
    return Sum(_rand_term(universe, rng, max_depth - 1), _rand_term(universe, rng, max_depth - 1))


def test_substitution_depth_bound_and_identity(universe):
    rng = random.Random(7)
    x = universe.resolve("x")
    for _ in range(300):
        t = _rand_term(universe, rng, 3)
        alpha = _rand_term(universe, rng, 2)
        result = substitute(t, x, alpha)
        assert depth(result) <= depth(t) + depth(alpha)
        if not occurs(t, x):
            assert result == t


def test_universe_sizes():
    u = build_universe(["x", "y"], ["a"])
    assert len(u.atoms) == 5
    assert len(u.terms) == 30
    empty = build_universe([], [])
    assert len(empty.atoms) == 2
    assert len(empty.terms) == 6
    assert len(build_universe(["x"], ["a", "b"]).terms) == 30


def test_universe_order_is_deterministic():
    u1 = build_universe(["x", "y"], ["a"])
    u2 = build_universe(["x", "y"], ["a"])
    assert [a.name for a in u1.atoms] == [a.name for a in u2.atoms]
    assert [format_term(t) for t in u1.terms] == [format_term(t) for t in u2.terms]
    assert list(u1.index.values()) == sorted(u1.index.values())


def test_universe_atom_order_follows_declarations():
    u = build_universe(["y", "x"], ["b", "a"])
    assert [a.name for a in u.atoms] == ["y", "x", "b", "a", "$nd1", "$nd2"]


def test_universe_rejects_duplicate_names():
    with pytest.raises(DeclarationError):
        build_universe(["x", "x"], [])
    with pytest.raises(DeclarationError):
        build_universe(["x"], ["x"])


def test_universe_rejects_bad_identifiers():
    with pytest.raises(DeclarationError):
        build_universe(["1x"], [])
    with pytest.raises(DeclarationError):
        build_universe([""], [])
    with pytest.raises(DeclarationError):
        build_universe(["$nd1"], [])


@pytest.mark.parametrize("name", ["a!", "v1$", 'a"b', "a\nnode 9: top", "$nd2"])
def test_universe_rejects_a_name_outside_the_name_rule(name):
    # no name that a report would have to escape, or that would forge a line
    # of a text report, can reach a universe, as a variable or a constant
    message = f"^invalid identifier {re.escape(repr(name))}$"
    with pytest.raises(DeclarationError, match=message):
        build_universe(["x", name], ["a"])
    with pytest.raises(DeclarationError, match=message):
        build_universe(["x"], ["a", name])
    # names are checked in declaration order, each for its spelling first
    with pytest.raises(DeclarationError, match=message):
        build_universe([name, name], [])
    with pytest.raises(DeclarationError, match="^duplicate declaration of 'x'$"):
        build_universe(["x", "x", name], [])
    with pytest.raises(DeclarationError, match="^duplicate declaration of 'x'$"):
        build_universe(["x"], ["x", name])


def test_a_universe_has_one_constructor_over_its_declared_names():
    assert build_universe is TermUniverse
    atoms = (Atom(VARIABLE, "x"), Atom(RESERVED, "$nd1"), Atom(RESERVED, "$nd2"))
    with pytest.raises(TypeError):
        TermUniverse(
            variables=atoms[:1],
            constants=(),
            reserved=atoms[1:],
            atoms=atoms,
            index={atom: i for i, atom in enumerate(atoms)},
            by_name={atom.name: atom for atom in atoms},
        )


def test_a_universe_derives_every_field_from_its_names():
    rng = random.Random(61)
    first = string.ascii_letters + "_"
    for _ in range(50):
        drawn = ("".join([rng.choice(first), *rng.choices(first + string.digits, k=rng.randrange(4))]) for _ in range(8))
        names = list(dict.fromkeys(drawn))[: rng.randrange(9)]
        k = rng.randrange(len(names) + 1)
        u = build_universe(names[:k], names[k:])
        assert [(a.kind, a.name) for a in u.variables] == [(VARIABLE, n) for n in names[:k]]
        assert [(a.kind, a.name) for a in u.constants] == [(CONSTANT, n) for n in names[k:]]
        assert [(a.kind, a.name) for a in u.reserved] == [(RESERVED, n) for n in RESERVED_NAMES]
        assert u.atoms == u.variables + u.constants + u.reserved
        assert u.index == {a: i for i, a in enumerate(u.atoms)}
        assert u.by_name == {a.name: a for a in u.atoms}
        assert len(u) == len(u.atoms) * (len(u.atoms) + 1)


def test_parse_term_accepts_atoms_and_flat_sums(universe):
    assert parse_term("x+a", universe) == Sum(
        universe.resolve("x"), universe.resolve("a")
    )
    assert parse_term(" x + a ", universe) == parse_term("x+a", universe)
    assert parse_term("b", universe) == universe.resolve("b")


def test_universe_terms_are_its_own_atoms_and_sums_of_them(universe):
    m = len(universe.atoms)
    for i, atom in enumerate(universe.atoms):
        assert universe.terms[i] is atom
    for pos in range(m, len(universe.terms)):
        i, j = divmod(pos - m, m)
        pair = universe.terms[pos]
        assert pair.left is universe.atoms[i] and pair.right is universe.atoms[j]
        # the terms are the atoms and then the rows of the pair table, the same objects
        assert pair is universe_pairs(universe)[i][j]
    rows = universe_pairs(universe)
    assert len(rows) == m and all(len(row) == m for row in rows)
    assert parse_term("x", universe) == universe.resolve("x")


def test_parse_term_errors(universe):
    with pytest.raises(ParseError):
        parse_term("x+", universe)
    with pytest.raises(ParseError):
        parse_term("x+a+b", universe)
    with pytest.raises(ParseError):
        parse_term("$nd1", universe)
    with pytest.raises(DeclarationError):
        parse_term("q", universe)
    # only blanks and tabs, the program format's separators, surround an atom
    for text in ["x\u00a0", "x\n+a", "\u2003x", "x +\u00a0a", "x\r", "x+a\n"]:
        with pytest.raises(ParseError, match="invalid atom"):
            parse_term(text, universe)


def test_format_parenthesizes_nested_sums(universe):
    a = universe.resolve("a")
    b = universe.resolve("b")
    c = universe.resolve("x")
    assert format_term(Sum(Sum(a, b), c)) == "(a+b)+x"
    assert format_term(Sum(a, Sum(b, c))) == "a+(b+x)"


def test_parse_format_roundtrip(universe):
    for text in ["x", "a", "x+y", "a+b", "y+y"]:
        assert format_term(parse_term(text, universe)) == text
    assert format_term(parse_term(" x + a ", universe)) == format_term(parse_term("\tx\t+\ta\t", universe)) == "x+a"
    for t in universe.terms:
        text = format_term(t)
        if "$" in text:
            continue  # reserved constants are deliberately unparseable
        assert parse_term(text, universe) == t


def test_parse_term_reads_what_format_term_writes(universe):
    rng = random.Random(4)
    terms = [_rand_term(universe, rng, rng.randint(0, 4)) for _ in range(400)]
    assert max(map(depth, terms)) == 4
    for t in terms:
        assert parse_term(format_term(t), universe) == t
        spaced = format_term(t).replace("+", " + ").replace("(", "( \t").replace(")", "\t )")
        assert parse_term(spaced, universe) == t
    x, a = universe.resolve("x"), universe.resolve("a")
    assert parse_term("(x+a)+y", universe) == Sum(Sum(x, a), universe.resolve("y"))
    assert parse_term("(x+a)", universe) == parse_term("((x))+((a))", universe) == Sum(x, a)


def test_parse_term_errors_past_one_level(universe):
    cases = [
        ("a+b+x", ParseError, "expression 'a+b+x' nests more than one '+'"),
        (" (a+b)+x+y ", ParseError, "expression '(a+b)+x+y' nests more than one '+'"),
        ("(a+b+x)+y", ParseError, "expression 'a+b+x' nests more than one '+'"),
        ("(a+b", ParseError, "unbalanced parentheses in '(a+b'"),
        ("a)+(b", ParseError, "unbalanced parentheses in 'a)+(b'"),
        ("(a)(b)", ParseError, "unbalanced parentheses in 'a)(b'"),
        ("()+a", ParseError, "malformed expression ''"),
        ("(a+)+b", ParseError, "malformed expression 'a+'"),
        ("x(a)", ParseError, "invalid atom 'x(a)'"),
        ("(a+\u00a0b)", ParseError, "invalid atom '\\xa0b'"),
        ("(a+q)+x", DeclarationError, "undeclared name 'q'"),
    ]
    for text, error, message in cases:
        with pytest.raises(error) as info:
            parse_term(text, universe)
        assert str(info.value) == message, text


def test_parse_term_bounds_its_nesting(universe):
    x, a = universe.resolve("x"), universe.resolve("a")
    deepest = x
    for _ in range(MAX_TERM_DEPTH + 1):
        deepest = Sum(deepest, a)
    text = format_term(deepest)
    assert text.startswith("(" * MAX_TERM_DEPTH + "x+a)")
    parsed = parse_term(text, universe)
    assert parsed == deepest
    assert term_value(parsed, bottom(universe)) == term_value(deepest, bottom(universe))
    assert parse_term("(" * MAX_TERM_DEPTH + "x" + ")" * MAX_TERM_DEPTH, universe) == x
    # one level more, or far more, is a ParseError and never a RecursionError
    message = f"expression nests parentheses more than {MAX_TERM_DEPTH} deep"
    for n in (MAX_TERM_DEPTH + 1, 900, 3000):
        with pytest.raises(ParseError) as info:
            parse_term("(" * n + "x" + ")" * n, universe)
        assert str(info.value) == message
    with pytest.raises(ParseError, match=message):
        parse_term(f"({text})+a", universe)


def test_sum_bounds_its_depth(universe):
    # the deepest parsed term, 100 parenthesised sums under a top-level one,
    # is exactly as deep as a Sum may be
    x, y, a = (universe.resolve(name) for name in ("x", "y", "a"))
    text = "x+(" * MAX_TERM_DEPTH + "x+a" + ")" * MAX_TERM_DEPTH
    assert parse_term(text, universe).depth == MAX_SUM_DEPTH == MAX_TERM_DEPTH + 1
    p = bottom(universe)
    for left in (True, False):
        term = x
        for _ in range(MAX_SUM_DEPTH - 1):
            term = Sum(term, a) if left else Sum(a, term)
        # just below the bound and at it, every recursive term function works
        for term in (term, Sum(term, a) if left else Sum(a, term)):
            text = format_term(term)
            parsed = parse_term(text, universe)
            assert parsed == term and hash(parsed) == hash(term)
            assert occurs(term, x) and not occurs(term, y)
            assert term_value(term, p) == term_value(parsed, p)
        assert term.depth == MAX_SUM_DEPTH
        # one level more raises before the term exists
        with pytest.raises(ValueError, match=f"term nests sums more than {MAX_SUM_DEPTH} deep"):
            Sum(term, a) if left else Sum(a, term)
    # a 3,000-deep chain stops at the bound instead of building a term that
    # hash, format_term, occurs and term_value cannot walk
    term = x
    with pytest.raises(ValueError):
        for _ in range(3000):
            term = Sum(term, a)
    assert term.depth == MAX_SUM_DEPTH
    # the depth is not a field: equality, hash and repr read the operands
    assert Sum(x, a) == Sum(x, a) and hash(Sum(x, a)) == hash((x, a))
    assert repr(Sum(x, a)) == f"Sum(left={x!r}, right={a!r})"
    assert (x.depth, Sum(x, a).depth, Sum(Sum(x, a), a).depth) == (0, 1, 2)


def test_universe_stores_its_atoms_only():
    names = [f"v{i}" for i in range(3000)]
    tracemalloc.start()
    try:
        universe = build_universe(names, [])
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept < 2**20
    assert len(universe.index) == len(universe.atoms) == 3002
    assert len(universe) == 3002 + 3002**2
    assert "terms" not in universe.__dict__


def test_universe_membership_is_its_atoms_and_their_pairs(universe):
    q = build_universe(["q"], []).resolve("q")
    a = universe.resolve("a")
    assert all(t in universe for t in universe.terms)
    for t in [q, Sum(a, q), Sum(q, a), Sum(parse_term("a+b", universe), a), "a", None]:
        assert t not in universe, t


@pytest.mark.parametrize("name", CORPUS_FILES)
def test_analysis_never_builds_the_term_list(name):
    universe, graph = load_program(name)
    result = solve(graph, universe, trace=True)
    written(emit_report, result.state, result.iterations, "json", True, result.trace)
    mop_table(graph, universe, 8)
    assert verify_mop_mfp(graph, universe, 8).ok
    # get_class reads one class from the labels and definitions
    for p in result.state:
        if not is_top(p):
            for atom in universe.atoms:
                assert atom in get_class(atom, p)
    assert "terms" not in universe.__dict__
    assert "pairs" not in universe.__dict__
    assert len(universe) == len(universe.terms)
