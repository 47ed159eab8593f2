import random
import sys

import pytest

from herbrand import (
    Atom,
    DeclarationError,
    Partition,
    Sum,
    TOP,
    Top,
    UniverseMismatchError,
    bottom,
    build_universe,
    equivalent,
    get_class,
    is_top,
    meet,
    mop_table,
    nondet_transfer,
    occurs,
    parse_program,
    parse_term,
    solve,
    term_value,
    assign_transfer,
)
from herbrand.terms import VARIABLE
from helpers import (
    ROOT,
    GridPartition,
    classes,
    cls,
    congruence_violations,
    counting_inits,
    full_corpus,
    grid,
    grid_index,
    grid_meet,
    grid_refines,
    grid_term_value,
    is_congruence,
    iterate_values,
    large_looping_programs,
    make_grid,
    make_partition,
    meet_all,
    num_classes,
    rand_partition,
    rand_rhs,
    rand_universe,
    reference_meet,
    reference_refines,
    refines,
    substitute,
)

# the benchmark's program generator, read only
sys.path.append(str(ROOT / "perfbench"))
import gen  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def u():
    return build_universe(["x", "y"], ["a", "b"])


def test_class_of_rejects_terms_outside_the_universe(u):
    q = build_universe(["q"], []).resolve("q")
    a = u.resolve("a")
    atom = "Atom(kind='constant', name='a')"
    for t, shown in [
        (q, "q"),
        (Sum(a, q), f"Sum(left={atom}, right=Atom(kind='variable', name='q'))"),
        (Sum(parse_term("a+a", u), a), f"Sum(left=Sum(left={atom}, right={atom}), right={atom})"),
        ("a", "a"),
    ]:
        with pytest.raises(DeclarationError) as info:
            bottom(u).class_of(t)
        assert str(info.value) == f"term not in universe: {shown}", t


def test_bottom_is_all_singletons(u):
    bot = bottom(u)
    assert num_classes(bot) == len(u.terms)
    assert not equivalent(parse_term("x", u), parse_term("a", u), bot)
    assert is_congruence(bot)


def test_term_value_of_universe_terms_is_their_class(u):
    bot = bottom(u)
    x = parse_term("x", u)
    assert term_value(x, bot) == bot.class_of(x)
    p = make_partition(u, [["x", "a"]])
    for t in u.terms:
        value = term_value(t, p)
        assert type(value) is int and value == p.class_of(t)


def test_term_value_collapses_through_a_variable_bound_to_a_compound(u):
    # class {x, a+b}: the deep term (a+b)+y names the same value as x+y
    p = make_partition(u, [["x", "a+b"]])
    assert is_congruence(p)
    deep = Sum(parse_term("a+b", u), parse_term("y", u))
    assert term_value(deep, p) == p.class_of(parse_term("x+y", u))


def test_term_value_keeps_unmatched_structure(u):
    bot = bottom(u)
    deep = Sum(parse_term("x+y", u), parse_term("a", u))
    value = term_value(deep, bot)
    assert value == (term_value(parse_term("x+y", u), bot), bot.class_of(parse_term("a", u)))
    # a deeper unmatched sum nests its operand values as tuples
    x = u.resolve("x")
    xy, a, cx = (bot.class_of(parse_term(text, u)) for text in ("x+y", "a", "x"))
    assert term_value(Sum(deep, x), bot) == ((xy, a), cx)
    assert term_value(Sum(x, Sum(deep, deep)), bot) == (cx, ((xy, a), (xy, a)))
    # an atom of another universe, at any depth, is not declared in this one
    q = build_universe(["q"], []).resolve("q")
    for t in (q, Sum(deep, q)):
        with pytest.raises(DeclarationError, match="undeclared atom 'q'"):
            term_value(t, bot)


def test_queries_leave_a_value_as_built():
    # a value holds its labels, triples, hash and finest flag; a class query
    # reads the triples and stores nothing, so no value gains state after
    # construction
    fields = {"universe", "atoms", "defs", "_hash", "_finest"}
    for name, text in full_corpus():
        universe, graph = parse_program(text)
        for p in solve(graph, universe).state:
            if is_top(p):
                continue
            assert vars(p).keys() == fields, name
            for t in universe.terms:
                assert term_value(t, p) == p.class_of(t)
                assert t in get_class(t, p)
            term_value(Sum(universe.terms[-1], universe.atoms[0]), p)
            assert vars(p).keys() == fields, name


def test_equivalent_is_reflexive(u):
    bot = bottom(u)
    for t in u.terms:
        assert equivalent(t, t, bot)


def test_equivalence_respects_operator_classes(u):
    p = assign_transfer(bottom(u), u.resolve("x"), u.resolve("a"))
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
    assert meet(TOP, TOP) == TOP
    assert repr(TOP) == "TOP"


def test_meet_with_bottom_is_bottom(u):
    p = rand_partition(u, random.Random(6))
    assert meet(bottom(u), p) == bottom(u)


def test_meet_of_disagreeing_merges_is_bottom(u):
    p1 = assign_transfer(bottom(u), u.resolve("y"), u.resolve("a"))
    p2 = assign_transfer(bottom(u), u.resolve("y"), u.resolve("b"))
    assert meet(p1, p2) == bottom(u)


def test_meet_rejects_mixed_universes(u):
    # partitions with identical labels and definitions: the universe check
    # runs before the label compares
    other = build_universe(["x", "y"], ["a", "b"])
    for groups in ([], [["x", "a+b"], ["y", "b"]]):
        p, q = (make_partition(universe, groups) for universe in (u, other))
        assert (p.atoms, p.defs) == (q.atoms, q.defs)
        for pair in ((p, q), (q, p)):
            with pytest.raises(UniverseMismatchError):
                meet(*pair)
            with pytest.raises(UniverseMismatchError):
                refines(*pair)
        assert p != q


def test_meet_exit_same_object(u):
    p = make_partition(u, [["x", "a+b"]])
    assert meet(p, p) is p


def test_meet_exit_equal_partitions_return_the_left_object(u, monkeypatch):
    p, q = (make_partition(u, [["x", "a+b"], ["y", "b"]]) for _ in range(2))
    assert p == q and p is not q
    assert meet(p, q) is p
    assert meet(q, p) is q
    # every corpus iterate against an equal copy, another object: the
    # refinement exit takes equal values, so nothing is built
    values = iterate_values()
    copies = [_relabeled(p, lambda c: c) for p in values]
    assert all(p == c and p is not c for p, c in zip(values, copies))
    built = counting_inits(monkeypatch)
    for p, c in zip(values, copies):
        assert meet(p, c) is p
        assert meet(c, p) is c
    assert built[0] == 0


def test_meet_exit_left_definition_refines_the_right(u):
    p = make_partition(u, [["x", "a+b"]])
    q = make_partition(u, [["x", "a+b"], ["y", "b"]])
    assert meet(p, q) is p
    assert grid(p) == grid_meet(grid(p), grid(q))


def test_meet_builds_the_product_when_the_right_lacks_the_left_definition(u):
    p = make_partition(u, [["x", "a+b"]])
    # the atoms of p refine those of each right side, but none defines
    # x's class as a+b; bottom has the very atom labels of p
    for q in (make_partition(u, [["x", "y"]]), make_partition(u, [["x", "a+a"]]), bottom(u)):
        met = meet(p, q)
        assert met is not p and met != p
        assert grid(met) == grid_meet(grid(p), grid(q))
    assert meet(p, bottom(u)) == bottom(u)


def test_meet_exit_the_finest_operand_absorbs_the_meet(u, monkeypatch):
    # the finest congruence is the least element, so it is the meet itself,
    # returned before any label map or product: as bottom(u) and as an equal
    # partition rebuilt from raw keys
    rng = random.Random(14)
    others = [make_partition(u, [["x", "a+b"]]), make_partition(u, [["x", "y"], ["a+a", "b"]])]
    others += [p for p in (rand_partition(u, rng, steps=4) for _ in range(20)) if p != bottom(u)]
    finest = [bottom(u), _relabeled(bottom(u), lambda c: ("raw", -c))]
    assert finest[0] == finest[1] and finest[0] is not finest[1]
    built = counting_inits(monkeypatch)
    for b in finest:
        for p in others:
            assert meet(p, b) is b
            assert meet(b, p) is b
    assert built[0] == 0


def test_finest_flag_is_set_at_construction():
    # the flag meet's fourth exit reads: no triple and every atom its own
    # representative, however the value was built
    rng = random.Random(41)
    values = []
    for names in ((["x", "y"], ["a", "b"]), (["x"], []), (["x", "y", "z"], ["a"])):
        universe = build_universe(*names)
        finest = bottom(universe)
        x = universe.variables[0]
        randoms = [rand_partition(universe, rng) for _ in range(25)]
        transfers = [assign_transfer(p, x, rand_rhs(universe, rng, x) or universe.reserved[0]) for p in randoms]
        transfers += [nondet_transfer(p, x) for p in [finest, *randoms]]
        products = [meet(p, q) for p, q in zip(randoms, transfers)]
        raw = [_relabeled(finest, lambda c: ("raw", -c)), _relabeled(finest, str)]
        built = [finest, *randoms, *transfers, *products, *raw]
        values += built + [Partition(p.universe, p.atoms, p.defs) for p in built]
    for p in values:
        assert p._finest == (not p.defs and p.atoms == tuple(range(len(p.atoms)))), p
    assert any(p._finest and p is not bottom(p.universe) for p in values)
    assert any(not p.defs and not p._finest for p in values)


def test_partition_repr_shows_labels_and_triples_not_the_universe():
    # at m = 40 the generated repr printed the universe's atoms, index and
    # name map, 6,225 characters; a failed assertion now prints the fields
    universe = build_universe([f"v{i}" for i in range(38)], [])
    x, y, z = universe.variables[:3]
    p = assign_transfer(bottom(universe), x, Sum(y, z))
    assert len(p.atoms) == 40 and p.defs
    text = repr(p)
    assert text == f"Partition(atoms={p.atoms!r}, defs={p.defs!r})"
    assert len(text) < 250
    assert "atoms=" in text and "defs=" in text
    assert "v37" not in text and "variable" not in text


def test_degenerate_universe_without_variables():
    empty = build_universe([], [])
    bot = bottom(empty)
    assert num_classes(bot) == 6
    assert is_congruence(bot)
    assert meet(bot, bot) == bot


def test_meet_keeps_equalities_common_to_both_branches():
    # both inputs relate the atom x to the compound y+z; the meet must keep
    # that class instead of separating atoms from compounds
    u = build_universe(["x", "y", "z"], [])
    p1 = assign_transfer(bottom(u), u.resolve("x"), parse_term("y+z", u))
    p2 = assign_transfer(bottom(u), u.resolve("x"), parse_term("y+z", u))
    merged = meet(p1, p2)
    assert cls(merged, "x") == {"x", "y+z"}


def test_meet_all_of_nothing_is_top(u):
    assert meet_all([]) == TOP


def test_meet_all_single(u):
    p = rand_partition(u, random.Random(8))
    assert meet_all([p]) == p


def test_meet_is_associative_commutative_idempotent(u):
    rng = random.Random(9)
    for _ in range(20):
        p1, p2, p3 = (rand_partition(u, rng) for _ in range(3))
        assert meet(p1, meet(p2, p3)) == meet(meet(p1, p2), p3)
        assert meet(p1, p2) == meet(p2, p1)
        assert meet(p1, p1) == p1


def test_meet_all_order_independent(u):
    rng = random.Random(10)
    ps = [rand_partition(u, rng) for _ in range(4)]
    shuffled = ps[::-1]
    assert meet_all(ps) == meet_all(shuffled)


def test_refines_bottom_below_everything(u):
    rng = random.Random(11)
    for _ in range(10):
        p = rand_partition(u, rng)
        assert refines(bottom(u), p)
        assert refines(p, TOP)
    assert not refines(TOP, bottom(u))
    assert refines(TOP, TOP)


def test_refines_detects_proper_coarsening(u):
    p = assign_transfer(bottom(u), u.resolve("x"), u.resolve("a"))
    assert not refines(p, bottom(u))
    assert refines(bottom(u), p)


def test_meet_is_the_greatest_lower_bound(u):
    rng = random.Random(12)
    for _ in range(30):
        p, q = rand_partition(u, rng), rand_partition(u, rng)
        m = meet(p, q)
        assert reference_refines(m, p) and reference_refines(m, q)
        r = meet(m, rand_partition(u, rng))  # an arbitrary common lower bound
        assert reference_refines(r, p) and reference_refines(r, q) and reference_refines(r, m)


def _relabeled(p: Partition, f) -> Partition:
    """``p`` built again from the keys ``f(label)``."""
    defs = [(f(c), f(l), f(r)) for c, l, r in p.defs]
    return Partition(p.universe, [f(c) for c in p.atoms], defs)


def _assert_meet_and_refines_match_reference(p, q, meet=meet, refines=refines) -> bool:
    """Check ``meet`` and ``refines`` on ``(p, q)`` against the grid
    references; return whether ``p`` refines ``q``."""
    fine = reference_refines(p, q)
    assert refines(p, q) == fine, (p, q)
    met = meet(p, q)
    assert grid(met) == reference_meet(p, q), (p, q)
    if fine:
        assert met is p, (p, q)
    return fine


def test_meet_matches_reference_on_random_labelings():
    rng = random.Random(31)
    refining = 0
    for i in range(200):
        universe = rand_universe(rng)
        q = rand_partition(universe, rng)
        r = rand_partition(universe, rng)
        if i % 4 == 0:
            p = meet(q, r)  # refines q
        elif i % 4 == 1:
            p, q = q, meet(q, r)  # the right operand refines the left
        elif i % 4 == 2:
            p = _relabeled(q, lambda c: c)  # equal, but another object
        else:
            p = r
        refining += _assert_meet_and_refines_match_reference(p, q)
        # the finest congruence on either side, as bottom() or rebuilt
        finest = _relabeled(bottom(universe), lambda c: -c) if i % 2 else bottom(universe)
        for extreme_pair in ((TOP, q), (p, TOP), (TOP, TOP), (finest, q), (p, finest)):
            _assert_meet_and_refines_match_reference(*extreme_pair)
        assert meet(p, finest) is (p if p == finest else finest)
    assert 100 <= refining < 200


def test_meet_matches_reference_on_arbitrary_labelings():
    # the grid reference's meet on non-congruences, so that classes cut
    # across the grid layout
    rng = random.Random(32)
    for _ in range(100):
        universe = rand_universe(rng)
        size = len(universe.terms)
        p, q = (
            GridPartition(universe, tuple(rng.randrange(1 + rng.randrange(size)) for _ in range(size)))
            for _ in range(2)
        )
        _assert_meet_and_refines_match_reference(p, q, grid_meet, grid_refines)
        _assert_meet_and_refines_match_reference(reference_meet(p, q), q, grid_meet, grid_refines)


def test_meet_matches_reference_on_jacobi_traces():
    refining = pairs = 0
    programs = [(name, *parse_program(text)) for name, text in full_corpus()]
    for _, universe, graph in programs + large_looping_programs():
        trace = solve(graph, universe, trace=True).trace
        values = list({p: None for row in trace for p in row if not is_top(p)})
        for p in values:
            for q in values:
                refining += _assert_meet_and_refines_match_reference(p, q)
                pairs += 1
    assert 0 < refining < pairs


def test_frontier_meets_with_a_finest_operand_return_it(monkeypatch):
    # the benchmark's 4-diamond chain at --max-len 15: 16 of its 61 frontier
    # meets reach the finest-operand exit, and each returns that operand
    universe, graph = parse_program(gen.shared_chain(random.Random(0), 4).text())
    finest = bottom(universe)
    calls, absorbed = 0, 0

    def counting_meet(l1, l2):
        nonlocal calls, absorbed
        calls += 1
        met = meet(l1, l2)
        if not (is_top(l1) or is_top(l2)) and l1 != l2 and finest in (l1, l2):
            assert met is (l1 if l1 == finest else l2)
            absorbed += 1
        return met

    monkeypatch.setattr("herbrand.mop.meet", counting_meet)
    mop_table(graph, universe, 15)
    assert (calls, absorbed) == (61, 16)


def test_frontier_meets_take_the_exits_the_readme_counts(monkeypatch):
    # the seed-3 verify-paths chains: every frontier meet, classified by the
    # first exit it meets, and each exit returns what it says
    counts = dict.fromkeys(("same", "top", "equal", "finest", "refines", "product"), 0)
    top_left = 0

    def classifying_meet(l1, l2):
        nonlocal top_left
        met = meet(l1, l2)
        if l1 is l2:
            kind = "same"
            assert met is l1
        elif is_top(l1) or is_top(l2):
            kind = "top"
            top_left += is_top(l1)
            assert met is (l2 if is_top(l1) else l1)
        elif l1 == l2:
            kind = "equal"
            assert met is l1
        elif finest in (l1, l2):
            kind = "finest"
            assert met is (l1 if l1 == finest else l2)
        elif met is l1:
            kind = "refines"
            assert not l1.defs
        else:
            kind = "product"
            assert met is not l2 and met != l1
        counts[kind] += 1
        return met

    monkeypatch.setattr("herbrand.mop.meet", classifying_meet)
    for case in workloads.build("verify-paths", 3):
        universe, graph = parse_program(case.program.text())
        finest = bottom(universe)
        max_len = int(case.args[case.args.index("--max-len") + 1])
        mop_table(graph, universe, max_len)
    assert counts == dict(same=49472, top=173, equal=0, finest=42135, refines=4170, product=291)
    assert sum(counts.values()) == 96241 and top_left == 173


def test_equal_partitions_hash_equal(u):
    raw = make_partition(u, [["x", "a"], ["y", "b"]])  # built from raw keys
    canonical = _relabeled(raw, lambda c: c)
    shifted = _relabeled(raw, lambda c: c + 17)
    assert raw == canonical == shifted
    assert hash(raw) == hash(canonical) == hash(shifted)
    memo = {(3, raw): "hit"}
    assert memo[(3, shifted)] == "hit"
    # same labels over another universe: never equal, whatever the hash
    other = build_universe(["x", "y"], ["a", "b"])
    assert bottom(u) != bottom(other)


def test_meet_all_over_union_rule(u):
    rng = random.Random(13)
    for _ in range(20):
        l1 = [rand_partition(u, rng) for _ in range(rng.randrange(0, 3))]
        l2 = [rand_partition(u, rng) for _ in range(rng.randrange(0, 3))]
        assert meet_all(l1 + l2) == meet(meet_all(l1), meet_all(l2))


def test_substitution_property_for_equivalent_atoms(u):
    p = assign_transfer(bottom(u), u.resolve("x"), u.resolve("a"))
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
    for _ in range(15):
        p = rand_partition(u, rng)
        for c in u.constants + u.reserved:
            for t in u.terms:
                if t == y or not occurs(t, y):
                    continue
                assert not equivalent(c, substitute(t, y, c), p)


def test_two_constant_substitutions_stay_apart(u):
    rng = random.Random(15)
    y = u.resolve("y")
    c1, c2 = u.resolve("a"), u.resolve("b")
    for _ in range(15):
        p = rand_partition(u, rng)
        for t in u.terms:
            if substitute(t, y, c1) == t:
                continue  # y does not occur
            assert not equivalent(substitute(t, y, c1), substitute(t, y, c2), p)


def test_congruence_violation_c1(u):
    p = make_grid(u, [["a", "b"]])
    violations = congruence_violations(p)
    assert any(v.axiom == "C1" for v in violations)


def test_congruence_violation_c2_missing_forced_merge(u):
    # y and a share a class, but x+y and x+a do not
    p = make_grid(u, [["y", "a"]])
    violations = congruence_violations(p)
    assert any(v.axiom == "C2" for v in violations)


def test_congruence_violation_c2_unforced_merge(u):
    # x+y and x+a share a class although y and a do not
    p = make_grid(u, [["x+y", "x+a"]])
    violations = congruence_violations(p)
    assert any(v.axiom == "C2" for v in violations)


def test_congruence_violation_c3(u):
    p = make_grid(u, [["a", "x+y"]])
    violations = congruence_violations(p)
    assert any(v.axiom == "C3" for v in violations)


def _brute_force_is_congruence(p) -> bool:
    u = p.universe
    consts = [a for a in u.atoms if a.kind != VARIABLE]
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
                if not (isinstance(t, Atom) and t.kind == VARIABLE):
                    return False
    return True


def test_violation_scan_matches_brute_force(u):
    rng = random.Random(16)
    count = len(u.terms)
    for _ in range(150):
        labels = tuple(rng.randrange(1 + rng.randrange(count)) for _ in range(count))
        p = GridPartition(u, labels)
        assert is_congruence(p) == _brute_force_is_congruence(p)
    for _ in range(20):
        p = rand_partition(u, rng)
        assert is_congruence(p) and _brute_force_is_congruence(p)


def test_partitions_equal_ignores_label_names(u):
    for p in (make_partition(u, [["x", "a"]]), make_partition(u, [["x", "a+b"], ["y", "x+x"]])):
        relabeled = _relabeled(p, lambda c: c + 17)
        assert p == relabeled and hash(p) == hash(relabeled)
        permuted = _relabeled(p, lambda c: -c)
        assert p == permuted and hash(p) == hash(permuted)


def test_partitions_equal_top_vs_partition(u):
    assert TOP != bottom(u)
    assert bottom(u) != TOP
    assert TOP == Top() and hash(TOP) == hash(Top())


def test_partitions_equal_distinguishes_real_differences(u):
    assert bottom(u) != make_partition(u, [["x", "a"]])
    assert not bottom(u) == make_partition(u, [["x", "a"]])


def test_partitions_equal_is_an_equivalence(u):
    rng = random.Random(17)
    ps = [rand_partition(u, rng) for _ in range(6)]
    # equal copies that are distinct objects, so equality is not identity
    ps += [TOP, Top()] + [_relabeled(p, lambda c: c) for p in ps[:3]]
    for p in ps:
        assert p == p
        for q in ps:
            assert (p == q) == (q == p) != (p != q)
            if p == q:
                assert hash(p) == hash(q)
            for r in ps:
                if p == q and q == r:
                    assert p == r


def test_get_class(u):
    bot = bottom(u)
    assert cls(bot, "x") == {"x"}
    p = assign_transfer(bot, u.resolve("x"), u.resolve("a"))
    assert cls(p, "a") == {"x", "a"}
    assert cls(p, "x+b") == {"x+b", "a+b"}


def test_get_class_reads_one_class_of_a_large_universe():
    universe = build_universe([f"v{i}" for i in range(3000)], [])
    v0, v1, v2, v3 = universe.atoms[:4]
    p = assign_transfer(bottom(universe), v0, v1)
    assert get_class(v0, p) == {v0, v1}
    # a defined atom class and a pure pair class
    q = assign_transfer(p, v2, Sum(v0, v3))
    assert get_class(v2, q) == {v2, Sum(v0, v3), Sum(v1, v3)}
    assert get_class(Sum(v3, v1), q) == {Sum(v3, v0), Sum(v3, v1)}
    assert "terms" not in universe.__dict__
    assert "pairs" not in universe.__dict__


def test_meet_preserves_congruence_axioms(u):
    rng = random.Random(18)
    for _ in range(40):
        p, q = rand_partition(u, rng), rand_partition(u, rng)
        assert is_congruence(meet(p, q))


def test_num_classes_when_the_last_term_joins_an_earlier_class():
    universe = build_universe(["x"], [])
    size = len(universe.terms)
    # the last term is $nd2+$nd2: x is defined as it, and on the grid
    # reference it joins $nd1
    p = Partition(universe, (0, 1, 2), [(0, 2, 2)])
    g = GridPartition(universe, (0, 1, *range(2, size - 1), 1))
    for count, listed in ((num_classes(p), classes(p)), (g.num_classes, g.classes())):
        assert count == size - 1
        assert [len(members) for members in listed].count(2) == 1


def test_two_atom_classes_cannot_share_a_definition():
    universe = build_universe(["x", "y"], [])
    with pytest.raises(ValueError, match="two atom classes share a definition"):
        Partition(universe, [0, 1, 2, 3], [(0, 2, 2), (1, 2, 2)])
    # a definition over a class with no atom is dropped, so no clash remains
    p = Partition(universe, [0, 1, 2, 2], [(0, 3, 3), (1, 2, 2)])
    assert p.defs == ((1, 2, 2),)
    with pytest.raises(ValueError, match="or one class has two"):
        Partition(universe, [0, 1, 2, 3], [(0, 2, 2), (0, 3, 3)])


def test_malformed_definitions_raise_value_error():
    universe = build_universe(["x", "y"], [])
    m = len(universe.atoms)
    for defs in ([(0, 1)], [(1, 2, 3, 0)], [("no class", 1, 2, 3)]):
        with pytest.raises(ValueError, match="values to unpack"):
            Partition(universe, range(m), defs)
    with pytest.raises(ValueError, match=f"expected {m} atom labels, got {m - 1}"):
        Partition(universe, range(m - 1), ())
    # keyword arguments
    p = Partition(universe=universe, atoms=["k"] * m, defs=[("k", "k", "k")])
    assert (p.atoms, p.defs) == ((0,) * m, ((0, 0, 0),))
    assert Partition(universe=p.universe, atoms=range(m), defs=p.defs) == Partition(universe, range(m), p.defs)


def test_queries_match_the_grid_on_corpus_iterates():
    rng = random.Random(33)
    checked = 0
    for p in iterate_values():
        universe = p.universe
        labels = tuple(map(p.class_of, universe.terms))
        g = GridPartition(universe, labels)
        # class_of names each class by the least grid position with its
        # grid label, and term_value renames the grid's values likewise
        least: dict[int, int] = {}
        for pos, label in enumerate(g.labels):
            least.setdefault(label, pos)
        assert labels == tuple(least[label] for label in g.labels)

        def renamed(value):
            return least[value] if type(value) is int else tuple(map(renamed, value))

        assert num_classes(p) == g.num_classes
        assert classes(p) == g.classes()
        for t in universe.terms:
            assert get_class(t, p) == {s for s in universe.terms if g.class_of(s) == g.class_of(t)}
        atoms = universe.atoms
        for _ in range(20):
            a, b, c, d = (rng.choice(atoms) for _ in range(4))
            for t in (Sum(Sum(a, b), c), Sum(a, Sum(b, c)), Sum(Sum(a, b), Sum(c, d)), Sum(Sum(Sum(a, b), c), d)):
                assert term_value(t, p) == renamed(grid_term_value(t, g)), (p, t)
                checked += 1
    assert checked > 5000


def test_class_of_names_each_class_by_its_least_member():
    checked = 0
    for p in iterate_values():
        position = grid_index(p.universe)
        for t in p.universe.terms:
            assert p.class_of(t) == min(map(position.__getitem__, get_class(t, p))), (p, t)
            checked += 1
    assert checked > 3000


def test_class_names_by_hand(u):
    # x is declared before a, so x's position 0 names the class {x, a}
    x, y, a, b = (u.resolve(name) for name in "xyab")
    m = len(u.atoms)
    assert u.index[x] < u.index[a]
    p = assign_transfer(bottom(u), x, a)
    q = assign_transfer(p, y, Sum(a, b))
    for value in (p, q):
        assert value.class_of(a) == value.class_of(x) == u.index[x]
    # an undefined pair: the grid position of its least pair, x+y
    name = m + u.index[x] * m + u.index[y]
    assert p.class_of(Sum(a, y)) == name
    assert u.terms[name] == Sum(x, y)
    assert get_class(Sum(a, y), p) == {Sum(x, y), Sum(a, y)}
    # a pair in a defined class: that atom class's representative, y
    assert q.class_of(Sum(a, b)) == q.class_of(Sum(x, b)) == q.class_of(y) == u.index[y]


def test_a_partition_is_rebuilt_from_its_own_fields():
    # ``defs`` is a tuple, the form the constructor also takes for it
    defined = 0
    for name, text in full_corpus():
        universe, graph = parse_program(text)
        for p in solve(graph, universe).state:
            assert Partition(p.universe, p.atoms, p.defs) == p, name
            assert Partition(universe=p.universe, atoms=p.atoms, defs=p.defs) == p, name
            defined += any(p.defs)
    assert defined > 0


def test_representative_labels_are_canonical():
    # random keyed labelings with random triples, some over a key that no
    # atom has: each atom is labeled by the least index of its class, the
    # kept triples are sorted and over those labels, and neither the key
    # names nor the order of the triples changes the value
    rng = random.Random(34)
    dropped = 0
    for _ in range(300):
        universe = rand_universe(rng)
        m = len(universe.atoms)
        names = [f"k{i}" for i in range(rng.randrange(1, m + 1))]
        keys = [rng.choice(names) for _ in range(m)]
        pool = names + ["no atom"]
        classes = rng.sample(pool, rng.randrange(len(pool) + 1))
        pairs = rng.sample([(l, r) for l in pool for r in pool], len(classes))
        triples = [(c, l, r) for c, (l, r) in zip(classes, pairs)]
        p = Partition(universe, keys, triples)
        assert all(p.atoms[p.atoms[i]] == p.atoms[i] <= i for i in range(m))
        assert all(keys[p.atoms[i]] == keys[i] and keys.index(keys[i]) == p.atoms[i] for i in range(m))
        representatives = set(p.atoms)
        assert all(set(triple) <= representatives for triple in p.defs)
        assert list(p.defs) == sorted(p.defs)
        kept = [triple for triple in triples if set(triple) <= set(keys)]
        assert len(p.defs) == len(kept)
        dropped += len(triples) - len(kept)
        rename = dict(zip(pool, rng.sample(range(-50, 50), len(pool))))
        renamed = [(rename[c], rename[l], rename[r]) for c, l, r in triples]
        q = Partition(universe, [rename[k] for k in keys], rng.sample(renamed, len(renamed)))
        assert q == p and hash(q) == hash(p)
        assert Partition(universe, p.atoms, p.defs) == p
        assert Partition(universe, p.atoms, p.defs[::-1]) == p
    assert dropped > 100
