import random

import pytest

from herbrand import (
    AtomRef,
    Base,
    Pair,
    Partition,
    Sum,
    TOP,
    UniverseMismatchError,
    bottom,
    build_universe,
    congruence_violations,
    equivalent,
    get_class,
    is_congruence,
    meet,
    meet_all,
    occurs,
    parse_term,
    partitions_equal,
    refines,
    substitute,
    term_value,
    assign_transfer,
)
from helpers import cls, make_partition, rand_partition, rand_universe


@pytest.fixture
def u():
    return build_universe(["x", "y"], ["a", "b"])


def test_bottom_is_all_singletons(u):
    bot = bottom(u)
    assert bot.num_classes == len(u.terms)
    assert not equivalent(parse_term("x", u), parse_term("a", u), bot)
    assert is_congruence(bot)


def test_term_value_of_universe_terms_is_their_class(u):
    bot = bottom(u)
    x = parse_term("x", u)
    assert term_value(x, bot) == Base(bot.class_of(x))


def test_term_value_collapses_through_a_variable_bound_to_a_compound(u):
    # class {x, a+b}: the deep term (a+b)+y names the same value as x+y
    p = make_partition(u, [["x", "a+b"]])
    assert is_congruence(p)
    deep = Sum(parse_term("a+b", u), parse_term("y", u))
    assert term_value(deep, p) == Base(p.class_of(parse_term("x+y", u)))


def test_term_value_keeps_unmatched_structure(u):
    bot = bottom(u)
    deep = Sum(parse_term("x+y", u), parse_term("a", u))
    value = term_value(deep, bot)
    assert value == Pair(term_value(parse_term("x+y", u), bot), Base(bot.class_of(parse_term("a", u))))


def test_equivalent_is_reflexive(u):
    bot = bottom(u)
    for t in u.terms:
        assert equivalent(t, t, bot)


def test_equivalence_respects_operator_classes(u):
    p = assign_transfer(bottom(u), u.resolve("x"), AtomRef(u.resolve("a")))
    assert equivalent(parse_term("x+b", u), parse_term("a+b", u), p)


def test_distinct_constants_never_equivalent(u):
    rng = random.Random(3)
    a, b = parse_term("a", u), parse_term("b", u)
    for _ in range(25):
        p = rand_partition(u, rng)
        assert not equivalent(a, b, p)


def test_meet_top_absorbs(u):
    p = rand_partition(u, random.Random(5))
    assert meet(TOP, p) is p
    assert meet(p, TOP) is p
    assert partitions_equal(meet(TOP, TOP), TOP)


def test_meet_with_bottom_is_bottom(u):
    p = rand_partition(u, random.Random(6))
    assert partitions_equal(meet(bottom(u), p), bottom(u))


def test_meet_of_disagreeing_merges_is_bottom(u):
    p1 = assign_transfer(bottom(u), u.resolve("y"), AtomRef(u.resolve("a")))
    p2 = assign_transfer(bottom(u), u.resolve("y"), AtomRef(u.resolve("b")))
    assert partitions_equal(meet(p1, p2), bottom(u))


def test_meet_rejects_mixed_universes(u):
    other = build_universe(["x", "y"], ["a", "b"])
    with pytest.raises(UniverseMismatchError):
        meet(bottom(u), bottom(other))
    with pytest.raises(UniverseMismatchError):
        refines(bottom(u), bottom(other))
    with pytest.raises(UniverseMismatchError):
        partitions_equal(bottom(u), bottom(other))


def test_degenerate_universe_without_variables():
    empty = build_universe([], [])
    bot = bottom(empty)
    assert bot.num_classes == 6
    assert is_congruence(bot)
    assert partitions_equal(meet(bot, bot), bot)


def test_meet_keeps_equalities_common_to_both_branches():
    # both inputs relate the atom x to the compound y+z; the meet must keep
    # that class instead of separating atoms from compounds
    u = build_universe(["x", "y", "z"], [])
    p1 = assign_transfer(bottom(u), u.resolve("x"), parse_term("y+z", u))
    p2 = assign_transfer(bottom(u), u.resolve("x"), parse_term("y+z", u))
    merged = meet(p1, p2)
    assert cls(merged, "x") == {"x", "y+z"}


def test_meet_all_of_nothing_is_top(u):
    assert partitions_equal(meet_all([]), TOP)


def test_meet_all_single(u):
    p = rand_partition(u, random.Random(8))
    assert partitions_equal(meet_all([p]), p)


def test_meet_is_associative_commutative_idempotent(u):
    rng = random.Random(9)
    for _ in range(20):
        p1, p2, p3 = (rand_partition(u, rng) for _ in range(3))
        assert partitions_equal(meet(p1, meet(p2, p3)), meet(meet(p1, p2), p3))
        assert partitions_equal(meet(p1, p2), meet(p2, p1))
        assert partitions_equal(meet(p1, p1), p1)


def test_meet_all_order_independent(u):
    rng = random.Random(10)
    ps = [rand_partition(u, rng) for _ in range(4)]
    shuffled = ps[::-1]
    assert partitions_equal(meet_all(ps), meet_all(shuffled))


def test_refines_bottom_below_everything(u):
    rng = random.Random(11)
    for _ in range(10):
        p = rand_partition(u, rng)
        assert refines(bottom(u), p)
        assert refines(p, TOP)
    assert not refines(TOP, bottom(u))
    assert refines(TOP, TOP)


def test_refines_detects_proper_coarsening(u):
    p = assign_transfer(bottom(u), u.resolve("x"), AtomRef(u.resolve("a")))
    assert not refines(p, bottom(u))
    assert refines(bottom(u), p)


def test_meet_is_the_greatest_lower_bound(u):
    rng = random.Random(12)
    for _ in range(30):
        p, q = rand_partition(u, rng), rand_partition(u, rng)
        m = meet(p, q)
        assert refines(m, p) and refines(m, q)
        r = meet(m, rand_partition(u, rng))  # an arbitrary common lower bound
        assert refines(r, p) and refines(r, q) and refines(r, m)


def test_meet_all_over_union_rule(u):
    rng = random.Random(13)
    for _ in range(20):
        l1 = [rand_partition(u, rng) for _ in range(rng.randrange(0, 3))]
        l2 = [rand_partition(u, rng) for _ in range(rng.randrange(0, 3))]
        assert partitions_equal(meet_all(l1 + l2), meet(meet_all(l1), meet_all(l2)))


def test_substitution_property_for_equivalent_atoms(u):
    p = assign_transfer(bottom(u), u.resolve("x"), AtomRef(u.resolve("a")))
    alpha, beta = parse_term("x", u), parse_term("a", u)
    assert equivalent(alpha, beta, p)
    for var in u.variables:
        for t in u.terms:
            assert term_value(substitute(t, var, alpha), p) == term_value(
                substitute(t, var, beta), p
            )


def test_constant_never_equivalent_to_larger_substituted_term(u):
    rng = random.Random(14)
    y = u.resolve("y")
    y_ref = AtomRef(y)
    for _ in range(15):
        p = rand_partition(u, rng)
        for const in u.constants + u.reserved:
            c = AtomRef(const)
            for t in u.terms:
                if t == y_ref or not occurs(t, y):
                    continue
                assert not equivalent(c, substitute(t, y, c), p)


def test_two_constant_substitutions_stay_apart(u):
    rng = random.Random(15)
    y = u.resolve("y")
    c1, c2 = AtomRef(u.resolve("a")), AtomRef(u.resolve("b"))
    for _ in range(15):
        p = rand_partition(u, rng)
        for t in u.terms:
            if substitute(t, y, c1) == t:
                continue  # y does not occur
            assert not equivalent(substitute(t, y, c1), substitute(t, y, c2), p)


def test_congruence_violation_c1(u):
    p = make_partition(u, [["a", "b"]])
    violations = congruence_violations(p)
    assert any(v.axiom == "C1" for v in violations)


def test_congruence_violation_c2_missing_forced_merge(u):
    # y and a share a class, but x+y and x+a do not
    p = make_partition(u, [["y", "a"]])
    violations = congruence_violations(p)
    assert any(v.axiom == "C2" for v in violations)


def test_congruence_violation_c2_unforced_merge(u):
    # x+y and x+a share a class although y and a do not
    p = make_partition(u, [["x+y", "x+a"]])
    violations = congruence_violations(p)
    assert any(v.axiom == "C2" for v in violations)


def test_congruence_violation_c3(u):
    p = make_partition(u, [["a", "x+y"]])
    violations = congruence_violations(p)
    assert any(v.axiom == "C3" for v in violations)


def _brute_force_is_congruence(p: Partition) -> bool:
    u = p.universe
    consts = [AtomRef(a) for a in u.atoms if a.is_constant()]
    for i, c in enumerate(consts):
        for c2 in consts[i + 1 :]:
            if p.class_of(c) == p.class_of(c2):
                return False
    compounds = [t for t in u.terms if isinstance(t, Sum)]
    for t1 in compounds:
        for t2 in compounds:
            same = p.class_of(t1) == p.class_of(t2)
            operands = (
                p.class_of(t1.left) == p.class_of(t2.left)
                and p.class_of(t1.right) == p.class_of(t2.right)
            )
            if same != operands:
                return False
    for c in consts:
        for t in u.terms:
            if p.class_of(t) == p.class_of(c) and t != c:
                if not (isinstance(t, AtomRef) and not t.atom.is_constant()):
                    return False
    return True


def test_violation_scan_matches_brute_force(u):
    rng = random.Random(16)
    count = len(u.terms)
    for _ in range(150):
        labels = tuple(rng.randrange(1 + rng.randrange(count)) for _ in range(count))
        p = Partition(u, labels)
        assert is_congruence(p) == _brute_force_is_congruence(p)
    for _ in range(20):
        p = rand_partition(u, rng)
        assert is_congruence(p) and _brute_force_is_congruence(p)


def test_partitions_equal_ignores_label_names(u):
    p = make_partition(u, [["x", "a"]])
    relabeled = Partition(u, tuple(label + 17 for label in p.labels))
    assert partitions_equal(p, relabeled)
    permuted = Partition(u, tuple(-label for label in p.labels))
    assert partitions_equal(p, permuted)


def test_partitions_equal_top_vs_partition(u):
    assert not partitions_equal(TOP, bottom(u))
    assert not partitions_equal(bottom(u), TOP)
    assert partitions_equal(TOP, TOP)


def test_partitions_equal_distinguishes_real_differences(u):
    assert not partitions_equal(bottom(u), make_partition(u, [["x", "a"]]))


def test_partitions_equal_is_an_equivalence(u):
    rng = random.Random(17)
    ps = [rand_partition(u, rng) for _ in range(6)]
    for p in ps:
        assert partitions_equal(p, p)
        for q in ps:
            assert partitions_equal(p, q) == partitions_equal(q, p)
            for r in ps:
                if partitions_equal(p, q) and partitions_equal(q, r):
                    assert partitions_equal(p, r)


def test_get_class(u):
    bot = bottom(u)
    assert cls(bot, "x") == {"x"}
    p = assign_transfer(bot, u.resolve("x"), AtomRef(u.resolve("a")))
    assert cls(p, "a") == {"x", "a"}
    assert cls(p, "x+b") == {"x+b", "a+b"}


def test_meet_preserves_congruence_axioms(u):
    rng = random.Random(18)
    for _ in range(40):
        p, q = rand_partition(u, rng), rand_partition(u, rng)
        assert is_congruence(meet(p, q))


def test_num_classes_when_the_last_term_joins_an_earlier_class():
    universe = build_universe(["x"], [])
    size = len(universe.terms)
    p = Partition(universe, (0, 1, *range(2, size - 1), 1))
    assert p.num_classes == size - 1
    assert [len(members) for members in p.classes()].count(2) == 1
