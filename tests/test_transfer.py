import random

import pytest

from herbrand import (
    Assign,
    DeclarationError,
    NonDet,
    Partition,
    SelfReferenceError,
    Sum,
    TOP,
    UniverseMismatchError,
    assign_transfer,
    bottom,
    build_universe,
    is_top,
    meet,
    nondet_transfer,
    parse_term,
    refines,
)
from helpers import (
    GridPartition,
    cls,
    counting_inits,
    grid,
    grid_assign_transfer,
    is_congruence,
    iterate_values,
    make_grid,
    meet_all,
    nondet_definitional,
    rand_partition,
    rand_statement,
    rand_universe,
    reference_assign_transfer,
    y_free_universe_terms,
)


@pytest.fixture
def u():
    return build_universe(["x", "y"], ["a", "b"])


def test_transfers_map_top_to_top(u):
    y = u.resolve("y")
    assert is_top(assign_transfer(TOP, y, u.resolve("a")))
    assert is_top(nondet_transfer(TOP, y))
    assert is_top(nondet_definitional(TOP, y, []))


def test_assignment_from_bottom(u):
    x = u.resolve("x")
    q = assign_transfer(bottom(u), x, u.resolve("a"))
    assert cls(q, "x") == {"x", "a"}
    assert cls(q, "x+y") == {"x+y", "a+y"}
    assert cls(q, "x+x") == {"x+x", "x+a", "a+x", "a+a"}
    assert cls(q, "y") == {"y"}
    assert is_congruence(q)


def test_assignment_chains_through_existing_classes(u):
    x, y = u.resolve("x"), u.resolve("y")
    p = assign_transfer(bottom(u), x, u.resolve("a"))
    q = assign_transfer(p, y, x)
    assert cls(q, "y") == {"x", "y", "a"}
    assert cls(q, "y+b") == {"x+b", "y+b", "a+b"}
    assert is_congruence(q)


def test_assignment_with_compound_rhs_binds_variable_to_compound(u):
    x = u.resolve("x")
    q = assign_transfer(bottom(u), x, parse_term("a+b", u))
    assert cls(q, "x") == {"x", "a+b"}
    assert is_congruence(q)


def test_assignment_rejects_self_reference(u):
    y = u.resolve("y")
    with pytest.raises(SelfReferenceError):
        assign_transfer(bottom(u), y, parse_term("y+a", u))
    with pytest.raises(SelfReferenceError):
        Assign(y, Sum(y, u.resolve("a")))


def test_assignment_rejects_bad_operands(u):
    other = build_universe(["q"], [])
    with pytest.raises(DeclarationError):
        assign_transfer(bottom(u), u.resolve("y"), other.resolve("q"))
    with pytest.raises(DeclarationError):
        assign_transfer(bottom(u), other.resolve("q"), u.resolve("a"))
    deep = Sum(parse_term("a+b", u), u.resolve("a"))
    with pytest.raises(UniverseMismatchError):
        assign_transfer(bottom(u), u.resolve("y"), deep)


def _raised(call, *args):
    with pytest.raises(Exception) as info:
        call(*args)
    return type(info.value), str(info.value)


def test_transfer_diagnostics_keep_their_types_messages_and_order(u):
    other = build_universe(["q"], [])
    y, q, a = u.resolve("y"), other.resolve("q"), u.resolve("a")
    deep = Sum(parse_term("a+b", u), a)
    self_deep = Sum(parse_term("y+b", u), a)
    not_declared = lambda name: (DeclarationError, f"{name!r} is not a declared variable")
    bad_rhs = (UniverseMismatchError, "right-hand side must be an atom or a sum of two atoms")
    p = bottom(u)
    for args, want in [
        ((p, q, a), not_declared("q")),
        ((p, a, a), not_declared("a")),
        ((p, u.reserved[0], a), not_declared("$nd1")),
        ((p, y, q), (DeclarationError, "undeclared atom 'q'")),
        ((p, y, deep), bad_rhs),
        ((p, y, Sum(a, q)), bad_rhs),
        ((p, y, Sum(q, a)), bad_rhs),
        ((p, y, "a"), bad_rhs),
        ((p, y, parse_term("y+a", u)), (SelfReferenceError, "'y' appears in its own right-hand side")),
        ((p, y, y), (SelfReferenceError, "'y' appears in its own right-hand side")),
        ((p, y, parse_term("a+y", u)), (SelfReferenceError, "'y' appears in its own right-hand side")),
        # the target is checked first, then the right-hand side, then self-reference
        ((p, q, q), not_declared("q")),
        ((p, a, deep), not_declared("a")),
        ((p, y, self_deep), bad_rhs),
    ]:
        assert _raised(assign_transfer, *args) == want, args
    assert _raised(nondet_transfer, p, q) == not_declared("q")
    assert _raised(nondet_transfer, p, a) == not_declared("a")
    assert _raised(nondet_transfer, p, u.reserved[1]) == not_declared("$nd2")


def test_nondet_on_bottom_is_bottom(u):
    p = bottom(u)
    assert nondet_transfer(p, u.resolve("y")) is p
    assert nondet_transfer(bottom(u), u.resolve("y")) == bottom(u)


def test_assign_exit_returns_the_input_when_y_has_the_class_already(u, monkeypatch):
    x, y, a, b = (u.resolve(name) for name in "xyab")
    by_atom = assign_transfer(bottom(u), y, x)
    by_pair = assign_transfer(bottom(u), y, parse_term("a+b", u))
    built = counting_inits(monkeypatch)
    assert assign_transfer(by_atom, y, x) is by_atom
    assert assign_transfer(by_atom, x, y) is by_atom
    assert assign_transfer(by_pair, y, Sum(a, b)) is by_pair
    assert built[0] == 0
    # a pair class with no atom yet, or another atom's class, moves y
    assert assign_transfer(by_pair, y, Sum(b, a)) != by_pair
    assert assign_transfer(by_atom, y, a) != by_atom
    assert built[0] == 2


def test_nondet_exit_returns_the_input_when_y_is_alone_and_unused(u, monkeypatch):
    x, y = u.resolve("x"), u.resolve("y")
    # y alone, undefined and no operand: x's class is defined over (a, b)
    p = assign_transfer(bottom(u), x, parse_term("a+b", u))
    built = counting_inits(monkeypatch)
    assert nondet_transfer(p, y) is p
    assert built[0] == 0
    # x is alone, but its class has a definition, which y := * drops
    q = nondet_transfer(p, x)
    assert built[0] == 1
    assert q == bottom(u) and cls(q, "x") == {"x"}


def test_nondet_drops_a_definition_over_y_alone(u):
    x, y = u.resolve("x"), u.resolve("y")
    # y's singleton class is the left operand of x's definition
    p = assign_transfer(bottom(u), x, parse_term("y+a", u))
    assert cls(p, "x") == {"x", "y+a"} and cls(p, "y") == {"y"}
    q = nondet_transfer(p, y)
    assert q is not p and q != p
    assert any(p.defs) and not any(q.defs)
    assert cls(q, "x") == {"x"} and cls(q, "y+a") == {"y+a"}


def _rand_labeling(universe, rng) -> Partition:
    """Random atom labels with random distinct definitions, congruence or not."""
    m = len(universe.atoms)
    k = rng.randrange(1, m + 1)
    pairs = rng.sample([(l, r) for l in range(k) for r in range(k)], rng.randrange(k + 1))
    defs = [(c, l, r) for c, (l, r) in zip(rng.sample(range(k), len(pairs)), pairs)]
    return Partition(universe, [rng.randrange(k) for _ in range(m)], defs)


def test_transfers_equal_the_general_constructor_on_random_labelings():
    # the exits and the position lookups give what the general constructor
    # gives for y moved by hand: to beta's class, to a fresh key defined by
    # beta's operand classes, or to a fresh undefined key
    rng = random.Random(30)
    exits = {"assign": 0, "nondet": 0}
    for _ in range(60):
        universe = rand_universe(rng)
        p = _rand_labeling(universe, rng) if rng.random() < 0.5 else rand_partition(universe, rng)
        index, atoms = universe.index, universe.atoms
        for y in universe.variables:
            yi = index[y]
            moved = list(p.atoms)
            moved[yi] = "fresh"
            got = nondet_transfer(p, y)
            assert got == Partition(universe, moved, p.defs), (p, y)
            exits["nondet"] += got is p
            for beta in [a for a in atoms if a != y] + [Sum(a, b) for a in atoms for b in atoms if y not in (a, b)]:
                defs = list(p.defs)
                if isinstance(beta, Sum):
                    pair = (p.atoms[index[beta.left]], p.atoms[index[beta.right]])
                    defined = {(l, r): c for c, l, r in p.defs}
                    moved[yi] = defined.get(pair, "fresh")
                    if pair not in defined:
                        defs.append(("fresh", *pair))
                else:
                    moved[yi] = p.atoms[index[beta]]
                got = assign_transfer(p, y, beta)
                assert got == Partition(universe, moved, defs), (p, y, beta)
                exits["assign"] += got is p
    assert min(exits.values()) > 20, exits


def test_nondet_clobbers_copy_relation(u):
    x, y = u.resolve("x"), u.resolve("y")
    p = assign_transfer(bottom(u), y, x)
    assert cls(p, "y") == {"x", "y"}
    q = nondet_transfer(p, y)
    # every class involving y collapses back to a singleton
    assert all(
        cls(q, text) == {text}
        for text in ["y", "y+x", "x+y", "y+y", "y+a", "a+y", "y+b", "b+y"]
    )


def test_nondet_refines_its_input(u):
    rng = random.Random(21)
    for _ in range(25):
        p = rand_partition(u, rng)
        for var in u.variables:
            assert refines(nondet_transfer(p, var), p)


def test_nondet_definitional_with_no_samples_is_identity(u):
    rng = random.Random(22)
    p = rand_partition(u, rng)
    assert nondet_definitional(p, u.resolve("y"), []) == grid(p)


def test_nondet_definitional_with_reserved_pair_matches_transfer(u):
    # two fresh constants suffice: the direct rule, a fresh class for y,
    # equals the meet over substituting the two reserved constants
    rng = random.Random(23)
    for p in [rand_partition(u, rng) for _ in range(20)] + iterate_values():
        for var in p.universe.variables:
            assert nondet_definitional(p, var, p.universe.reserved) == grid(nondet_transfer(p, var)), (p, var)


def test_nondet_definitional_sample_sensitivity(u):
    x, y = u.resolve("x"), u.resolve("y")
    p = assign_transfer(bottom(u), y, x)
    keeps = nondet_definitional(p, y, [x])
    assert cls(keeps, "y") == {"x", "y"}
    c1, c2 = u.reserved
    breaks = nondet_definitional(p, y, [x, c1, c2])
    assert cls(breaks, "y") == {"y"}


def test_nondet_definitional_rejects_target_in_sample(u):
    with pytest.raises(SelfReferenceError):
        nondet_definitional(bottom(u), u.resolve("y"), [parse_term("y+a", u)])


def test_nondet_matches_full_definitional_oracle(u):
    rng = random.Random(24)
    y = u.resolve("y")
    betas = y_free_universe_terms(u, y)
    for _ in range(20):
        p = rand_partition(u, rng)
        assert grid(nondet_transfer(p, y)) == nondet_definitional(p, y, betas)


def test_user_constant_pair_gives_same_nondet_result(u):
    rng = random.Random(25)
    y = u.resolve("y")
    a, b = u.resolve("a"), u.resolve("b")
    for _ in range(20):
        p = rand_partition(u, rng)
        via_user = meet_all([p, assign_transfer(p, y, a), assign_transfer(p, y, b)])
        assert via_user == nondet_transfer(p, y)


def test_transfers_are_distributive_over_meet(u):
    rng = random.Random(26)
    for _ in range(30):
        p, q = rand_partition(u, rng), rand_partition(u, rng)
        stmt = rand_statement(u, rng)
        if isinstance(stmt, Assign):
            lhs = assign_transfer(meet(p, q), stmt.target, stmt.rhs)
            rhs = meet(
                assign_transfer(p, stmt.target, stmt.rhs),
                assign_transfer(q, stmt.target, stmt.rhs),
            )
        else:
            lhs = nondet_transfer(meet(p, q), stmt.target)
            rhs = meet(nondet_transfer(p, stmt.target), nondet_transfer(q, stmt.target))
        assert lhs == rhs


def test_transfers_are_monotone(u):
    rng = random.Random(27)
    for _ in range(30):
        coarse = rand_partition(u, rng)
        fine = meet(coarse, rand_partition(u, rng))
        assert refines(fine, coarse)
        stmt = rand_statement(u, rng)
        if isinstance(stmt, Assign):
            f_fine = assign_transfer(fine, stmt.target, stmt.rhs)
            f_coarse = assign_transfer(coarse, stmt.target, stmt.rhs)
        else:
            f_fine = nondet_transfer(fine, stmt.target)
            f_coarse = nondet_transfer(coarse, stmt.target)
        assert refines(f_fine, f_coarse)


def test_transfer_outputs_are_congruences_on_random_universes():
    rng = random.Random(28)
    for _ in range(15):
        universe = rand_universe(rng)
        p = bottom(universe)
        for _ in range(5):
            stmt = rand_statement(universe, rng)
            if isinstance(stmt, NonDet):
                p = nondet_transfer(p, stmt.target)
            else:
                p = assign_transfer(p, stmt.target, stmt.rhs)
            assert is_congruence(p)


def _assert_kernel_matches_reference(p, kernel=assign_transfer):
    """Every ``y := beta`` with ``beta`` a universe term free of ``y``, on the
    grid; a ``Partition`` is checked against the grid kernel as well."""
    checked = 0
    for y in p.universe.variables:
        for beta in y_free_universe_terms(p.universe, y):
            got = grid(kernel(p, y, beta))
            assert got == reference_assign_transfer(p, y, beta), (p, y, beta)
            if kernel is assign_transfer:
                assert got == grid_assign_transfer(grid(p), y, beta), (p, y, beta)
            checked += 1
    return checked


def test_assign_kernel_matches_reference_on_jacobi_traces():
    checked = sum(map(_assert_kernel_matches_reference, iterate_values()))
    assert checked > 1000


def test_assign_kernel_matches_reference_on_non_congruences(u):
    # the grid reference's kernel: x ~ a without x+a ~ a+a breaks C2
    # forward; x+a ~ y+b breaks C2 backward; b ~ x+y breaks C3
    p = make_grid(u, [["x", "a"], ["x+a", "y+b"], ["b", "x+y"], ["a+a", "y+y"]])
    assert not is_congruence(p)
    assert _assert_kernel_matches_reference(p, grid_assign_transfer) > 0
    # arbitrary labelings: pair classes are looked up with several writers
    rng = random.Random(29)
    for _ in range(30):
        universe = rand_universe(rng)
        size = len(universe.terms)
        width = rng.randrange(1, size + 1)
        labels = tuple(rng.randrange(width) for _ in range(size))
        _assert_kernel_matches_reference(GridPartition(universe, labels), grid_assign_transfer)


def test_pair_classes_keep_last_writer(u):
    # on the grid reference, x ~ y, but x+x and y+y sit apart: (class x,
    # class x) names the later one
    p = make_grid(u, [["x", "y"]])
    x, y = u.resolve("x"), u.resolve("y")
    assert p.pair_classes()[(p.class_of(x), p.class_of(x))] == p.class_of(Sum(y, y))
