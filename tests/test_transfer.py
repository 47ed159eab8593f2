import random

import pytest

from herbrand import (
    Assign,
    AtomRef,
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
    is_congruence,
    is_top,
    meet,
    meet_all,
    nondet_transfer,
    parse_program,
    parse_term,
    partitions_equal,
    refines,
    solve,
)
from helpers import (
    cls,
    full_corpus,
    make_partition,
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
    assert is_top(assign_transfer(TOP, y, AtomRef(u.resolve("a"))))
    assert is_top(nondet_transfer(TOP, y))
    assert is_top(nondet_definitional(TOP, y, []))


def test_assignment_from_bottom(u):
    x = u.resolve("x")
    q = assign_transfer(bottom(u), x, AtomRef(u.resolve("a")))
    assert cls(q, "x") == {"x", "a"}
    assert cls(q, "x+y") == {"x+y", "a+y"}
    assert cls(q, "x+x") == {"x+x", "x+a", "a+x", "a+a"}
    assert cls(q, "y") == {"y"}
    assert is_congruence(q)


def test_assignment_chains_through_existing_classes(u):
    x, y = u.resolve("x"), u.resolve("y")
    p = assign_transfer(bottom(u), x, AtomRef(u.resolve("a")))
    q = assign_transfer(p, y, AtomRef(x))
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
        Assign(y, Sum(AtomRef(y), AtomRef(u.resolve("a"))))


def test_assignment_rejects_bad_operands(u):
    other = build_universe(["q"], [])
    with pytest.raises(DeclarationError):
        assign_transfer(bottom(u), u.resolve("y"), AtomRef(other.resolve("q")))
    with pytest.raises(DeclarationError):
        assign_transfer(bottom(u), other.resolve("q"), AtomRef(u.resolve("a")))
    deep = Sum(parse_term("a+b", u), AtomRef(u.resolve("a")))
    with pytest.raises(UniverseMismatchError):
        assign_transfer(bottom(u), u.resolve("y"), deep)


def test_nondet_on_bottom_is_bottom(u):
    assert partitions_equal(nondet_transfer(bottom(u), u.resolve("y")), bottom(u))


def test_nondet_clobbers_copy_relation(u):
    x, y = u.resolve("x"), u.resolve("y")
    p = assign_transfer(bottom(u), y, AtomRef(x))
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
    assert partitions_equal(nondet_definitional(p, u.resolve("y"), []), p)


def test_nondet_definitional_with_reserved_pair_matches_transfer(u):
    rng = random.Random(23)
    y = u.resolve("y")
    c1, c2 = (AtomRef(c) for c in u.reserved)
    for _ in range(20):
        p = rand_partition(u, rng)
        assert partitions_equal(
            nondet_definitional(p, y, [c1, c2]),
            nondet_transfer(p, y),
        )


def test_nondet_definitional_sample_sensitivity(u):
    x, y = u.resolve("x"), u.resolve("y")
    p = assign_transfer(bottom(u), y, AtomRef(x))
    keeps = nondet_definitional(p, y, [AtomRef(x)])
    assert cls(keeps, "y") == {"x", "y"}
    c1, c2 = (AtomRef(c) for c in u.reserved)
    breaks = nondet_definitional(p, y, [AtomRef(x), c1, c2])
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
        assert partitions_equal(nondet_transfer(p, y), nondet_definitional(p, y, betas))


def test_user_constant_pair_gives_same_nondet_result(u):
    rng = random.Random(25)
    y = u.resolve("y")
    a, b = AtomRef(u.resolve("a")), AtomRef(u.resolve("b"))
    for _ in range(20):
        p = rand_partition(u, rng)
        via_user = meet_all([p, assign_transfer(p, y, a), assign_transfer(p, y, b)])
        assert partitions_equal(via_user, nondet_transfer(p, y))


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
        assert partitions_equal(lhs, rhs)


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


def _assert_kernel_matches_reference(p):
    """Every ``y := beta`` with ``beta`` a universe term free of ``y``."""
    checked = 0
    for y in p.universe.variables:
        for beta in y_free_universe_terms(p.universe, y):
            kernel = assign_transfer(p, y, beta)
            assert kernel == reference_assign_transfer(p, y, beta), (p.labels, y, beta)
            checked += 1
    return checked


def test_assign_kernel_matches_reference_on_jacobi_traces():
    seen = set()
    checked = 0
    for name, text in full_corpus(random_count=14):
        universe, graph = parse_program(text)
        result = solve(graph, universe, trace=True)
        for row in result.trace:
            for p in row:
                if is_top(p) or (name, p.labels) in seen:
                    continue
                seen.add((name, p.labels))
                checked += _assert_kernel_matches_reference(p)
    assert checked > 1000


def test_assign_kernel_matches_reference_on_non_congruences(u):
    # x ~ a without x+a ~ a+a breaks C2 forward; x+a ~ y+b breaks C2 backward;
    # b ~ x+y breaks C3
    p = make_partition(u, [["x", "a"], ["x+a", "y+b"], ["b", "x+y"], ["a+a", "y+y"]])
    assert not is_congruence(p)
    assert _assert_kernel_matches_reference(p) > 0
    # arbitrary labelings: pair classes are looked up with several writers
    rng = random.Random(29)
    for _ in range(30):
        universe = rand_universe(rng)
        size = len(universe.terms)
        width = rng.randrange(1, size + 1)
        labels = tuple(rng.randrange(width) for _ in range(size))
        _assert_kernel_matches_reference(Partition(universe, labels))


def test_pair_classes_keep_last_writer(u):
    # x ~ y, but x+x and y+y sit apart: (class x, class x) names the later one
    p = make_partition(u, [["x", "y"]])
    x, y = AtomRef(u.resolve("x")), AtomRef(u.resolve("y"))
    assert p.pair_classes()[(p.class_of(x), p.class_of(x))] == p.class_of(Sum(y, y))
