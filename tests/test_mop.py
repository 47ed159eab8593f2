import pytest

from herbrand import (
    Confluence,
    Function,
    PathLimitError,
    TOP,
    apply_statement,
    bottom,
    is_top,
    meet,
    mop_table,
    parse_program,
    partitions_equal,
    refines,
    states_equal,
    verify_mop_mfp,
)
from helpers import cls, enum_paths, full_corpus, load_program, m_l, mop, path_congruence


def test_no_paths_below_length_zero():
    _, graph = load_program("diamond.dfg")
    assert enum_paths(graph, 3, 0) == []


def test_entry_has_exactly_the_trivial_path():
    _, graph = load_program("diamond.dfg")
    assert enum_paths(graph, 1, 1) == [(1,)]
    assert enum_paths(graph, 1, 7) == [(1,)]


def test_diamond_has_two_paths_to_the_join():
    _, graph = load_program("diamond.dfg")
    assert enum_paths(graph, 5, 5) == [(1, 2, 3, 5), (1, 2, 4, 5)]


def test_paths_are_ordered_by_length_then_lexicographically():
    _, graph = load_program("loop.dfg")
    paths = enum_paths(graph, 3, 8)
    lengths = [len(p) for p in paths]
    assert lengths == sorted(lengths)
    assert all(len(p) - 1 < 8 and p[0] == 1 and p[-1] == 3 for p in paths)
    # consecutive vertices are edges
    for p in paths:
        for a, b in zip(p, p[1:]):
            assert a in graph.pred(b)


def test_path_count_cap_is_enforced():
    _, graph = load_program("diamond.dfg")
    with pytest.raises(PathLimitError):
        enum_paths(graph, 5, 5, cap=1)


def test_prefixes_of_bounded_paths_are_bounded_paths_to_predecessors():
    for name in ["diamond.dfg", "loop.dfg", "nested_loop.dfg"]:
        _, graph = load_program(name)
        for k in range(1, graph.n + 1):
            for bound in range(1, 7):
                prefixes = {p[:-1] for p in enum_paths(graph, k, bound) if len(p) > 1}
                expected = set()
                for j in graph.pred(k):
                    expected.update(enum_paths(graph, j, bound - 1))
                assert prefixes == expected


def test_path_congruence_examples():
    universe, graph = load_program("diamond.dfg")
    assert partitions_equal(path_congruence((1,), graph, universe), bottom(universe))
    one_step = path_congruence((1, 2), graph, universe)
    kind = graph.kind(2)
    assert isinstance(kind, Function)
    assert partitions_equal(one_step, apply_statement(bottom(universe), kind.stmt))
    via_join = path_congruence((1, 2, 3, 5), graph, universe)
    before_join = path_congruence((1, 2, 3), graph, universe)
    assert partitions_equal(via_join, before_join)


def test_bounded_meet_base_cases():
    universe, graph = load_program("diamond.dfg")
    for k in range(1, graph.n + 1):
        assert is_top(m_l(graph, universe, k, 0))
    assert partitions_equal(m_l(graph, universe, 1, 1), bottom(universe))
    for k in range(2, graph.n + 1):
        assert is_top(m_l(graph, universe, k, 1))


def test_bounded_meets_satisfy_one_step_recurrences():
    for name in ["diamond.dfg", "loop.dfg", "nondet_branch.dfg"]:
        universe, graph = load_program(name)
        for length in range(1, 7):
            assert partitions_equal(m_l(graph, universe, 1, length), bottom(universe))
            for k in range(2, graph.n + 1):
                kind = graph.kind(k)
                if isinstance(kind, Function):
                    (j,) = graph.pred(k)
                    expected = apply_statement(m_l(graph, universe, j, length - 1), kind.stmt)
                else:
                    assert isinstance(kind, Confluence)
                    i, j = graph.pred(k)
                    expected = meet(
                        m_l(graph, universe, i, length - 1),
                        m_l(graph, universe, j, length - 1),
                    )
                assert partitions_equal(m_l(graph, universe, k, length), expected)


def test_bounded_meets_descend_with_length():
    universe, graph = load_program("nested_loop.dfg")
    rows = mop_table(graph, universe, 8)
    for prev, nxt in zip(rows, rows[1:]):
        for before, after in zip(prev, nxt):
            assert refines(after, before)


def test_table_matches_literal_path_enumeration():
    for name, text in full_corpus(random_count=6):
        universe, graph = parse_program(text)
        rows = mop_table(graph, universe, 6)
        for length in range(7):
            for k in range(1, graph.n + 1):
                literal = m_l(graph, universe, k, length)
                assert partitions_equal(rows[length][k - 1], literal), (name, k, length)


def test_mop_on_straight_line():
    universe, graph = load_program("straight_line.dfg")
    value, stabilized = mop(graph, universe, 3, 4)
    assert stabilized
    assert cls(value, "x") == {"x", "y", "a"}


def test_mop_with_zero_bound_is_top_and_unstabilized():
    universe, graph = load_program("straight_line.dfg")
    value, stabilized = mop(graph, universe, 2, 0)
    assert is_top(value) and not stabilized


def test_mop_at_join_is_meet_of_branch_paths():
    universe, graph = load_program("diamond.dfg")
    value, stabilized = mop(graph, universe, 5, 8)
    assert stabilized
    left = path_congruence((1, 2, 3, 5), graph, universe)
    right = path_congruence((1, 2, 4, 5), graph, universe)
    assert partitions_equal(value, meet(left, right))


def test_verify_passes_on_checked_in_programs():
    for name in ["straight_line.dfg", "diamond.dfg", "loop.dfg", "nested_loop.dfg"]:
        universe, graph = load_program(name)
        report = verify_mop_mfp(graph, universe, 10)
        assert report.ok, name
        assert report.checks == 11 * graph.n
        assert report.stabilized, name


def test_verify_checks_every_length_even_without_stabilization():
    universe, graph = load_program("loop.dfg")
    report = verify_mop_mfp(graph, universe, 4)
    assert report.ok
    assert report.checks == 5 * graph.n
    # stabilization is a whole-vector condition
    rows = mop_table(graph, universe, 4)
    assert report.stabilized == states_equal(rows[3], rows[4])
