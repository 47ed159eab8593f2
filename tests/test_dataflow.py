import random

import pytest

import herbrand.dataflow
from herbrand import (
    Assign,
    AtomRef,
    Confluence,
    Entry,
    Function,
    GraphError,
    IterationLimitError,
    TOP,
    assign_transfer,
    bottom,
    build_universe,
    composite_step,
    is_congruence,
    is_top,
    partitions_equal,
    refines,
    solve,
    states_equal,
    validate_graph,
)
from helpers import cls, full_corpus, load_program, rand_program_text, reference_round_robin
from herbrand import parse_program


def test_single_entry_graph_is_valid():
    g = validate_graph({1: Entry()}, {})
    assert g.n == 1 and g.pred(1) == ()


def test_entry_must_not_have_predecessors():
    with pytest.raises(GraphError):
        validate_graph({1: Entry(), 2: Confluence()}, {1: [2], 2: [1, 1]})


def test_function_point_needs_exactly_one_predecessor():
    u = build_universe(["x"], ["a"])
    stmt = Assign(u.resolve("x"), AtomRef(u.resolve("a")))
    with pytest.raises(GraphError):
        validate_graph({1: Entry(), 2: Function(stmt)}, {2: []})
    with pytest.raises(GraphError):
        validate_graph({1: Entry(), 2: Function(stmt)}, {2: [1, 1]})


def test_confluence_needs_exactly_two_predecessors():
    with pytest.raises(GraphError):
        validate_graph({1: Entry(), 2: Confluence()}, {2: [1]})


def test_confluence_may_repeat_a_predecessor():
    g = validate_graph({1: Entry(), 2: Confluence()}, {2: [1, 1]})
    assert g.pred(2) == (1, 1)


def test_dangling_predecessor_rejected():
    u = build_universe(["x"], ["a"])
    stmt = Assign(u.resolve("x"), AtomRef(u.resolve("a")))
    with pytest.raises(GraphError):
        validate_graph({1: Entry(), 2: Function(stmt)}, {2: [5]})


def test_unreachable_node_rejected():
    u = build_universe(["x"], ["a"])
    stmt = Assign(u.resolve("x"), AtomRef(u.resolve("a")))
    with pytest.raises(GraphError):
        validate_graph(
            {1: Entry(), 2: Function(stmt), 3: Function(stmt)}, {2: [1], 3: [3]}
        )


def test_entry_kind_only_at_node_one():
    with pytest.raises(GraphError):
        validate_graph({1: Entry(), 2: Entry()}, {2: [1]})


def test_node_ids_must_be_contiguous():
    u = build_universe(["x"], ["a"])
    stmt = Assign(u.resolve("x"), AtomRef(u.resolve("a")))
    with pytest.raises(GraphError):
        validate_graph({1: Entry(), 3: Function(stmt)}, {3: [1]})
    with pytest.raises(GraphError):
        validate_graph({}, {})


def test_first_step_pins_only_the_entry():
    universe, graph = load_program("diamond.dfg")
    state = composite_step((TOP,) * graph.n, graph, universe)
    assert partitions_equal(state[0], bottom(universe))
    assert all(is_top(v) for v in state[1:])


def test_second_step_applies_the_first_assignment():
    universe, graph = load_program("diamond.dfg")
    s1 = composite_step((TOP,) * graph.n, graph, universe)
    s2 = composite_step(s1, graph, universe)
    expected = assign_transfer(
        bottom(universe), universe.resolve("x"), AtomRef(universe.resolve("a"))
    )
    assert partitions_equal(s2[1], expected)


def test_fixpoint_is_a_fixed_point_of_the_step():
    universe, graph = load_program("loop.dfg")
    result = solve(graph, universe)
    assert states_equal(composite_step(result.state, graph, universe), result.state)


def test_single_node_program_solves_in_one_iteration():
    universe, graph = parse_program("node 1 entry\n")
    result = solve(graph, universe)
    assert result.iterations == 1
    assert partitions_equal(result.state[0], bottom(universe))


def test_straight_line_merges_copy_chain():
    universe, graph = load_program("straight_line.dfg")
    result = solve(graph, universe)
    assert cls(result.state[2], "x") == {"x", "y", "a"}


def test_diamond_confluence_keeps_agreeing_branches():
    universe, graph = load_program("diamond.dfg")
    result = solve(graph, universe)
    assert cls(result.state[4], "x") == {"x", "y", "a"}


def test_entry_stays_pinned_to_bottom():
    for name in ["straight_line.dfg", "diamond.dfg", "loop.dfg"]:
        universe, graph = load_program(name)
        result = solve(graph, universe)
        assert partitions_equal(result.state[0], bottom(universe))


def test_every_fixpoint_component_is_a_congruence():
    for name, text in full_corpus():
        universe, graph = parse_program(text)
        result = solve(graph, universe)
        for elem in result.state:
            assert not is_top(elem)
            assert is_congruence(elem), name


def test_worklist_agrees_with_jacobi_on_corpus():
    for name, text in full_corpus():
        universe, graph = parse_program(text)
        jac = solve(graph, universe)
        wl = reference_round_robin(graph, universe)
        assert states_equal(jac.state, wl.state), name


def test_worklist_on_straight_line_needs_two_sweeps():
    universe, graph = load_program("straight_line.dfg")
    result = reference_round_robin(graph, universe)
    assert result.iterations <= 2


def test_jacobi_trace_descends():
    universe, graph = load_program("nested_loop.dfg")
    result = solve(graph, universe, trace=True)
    assert result.trace is not None
    for prev, nxt in zip(result.trace, result.trace[1:]):
        for before, after in zip(prev, nxt):
            assert refines(after, before)


def test_jacobi_iteration_bound():
    for name, text in full_corpus():
        universe, graph = parse_program(text)
        result = solve(graph, universe)
        assert result.iterations <= graph.n * (len(universe.terms) + 1) + 1, name


def test_iteration_limit_error_is_raised_when_forced(monkeypatch):
    monkeypatch.setattr(herbrand.dataflow, "default_iteration_limit", lambda graph, universe: 1)
    for name in ("straight_line.dfg", "loop.dfg"):
        universe, graph = load_program(name)
        with pytest.raises(IterationLimitError):
            solve(graph, universe)


def _full_step_iterates(graph, universe):
    """Iterates of the full synchronous step from all-``TOP`` until it stops changing."""
    states = [(TOP,) * graph.n]
    while True:
        states.append(composite_step(states[-1], graph, universe))
        if states_equal(states[-1], states[-2]):
            return states


def _large_looping_programs(count: int = 8, seed: int = 4242):
    out = []
    for i in range(count):
        text = rand_program_text(random.Random(seed + i), max_nodes=40, min_nodes=21)
        universe, graph = parse_program(text)
        assert graph.n > 20
        # a predecessor at or after the node closes a loop
        assert any(p >= k for k in range(1, graph.n + 1) for p in graph.pred(k)), i
        out.append((f"large_{i}", universe, graph))
    return out


def _solver_corpus():
    named = [(name, *parse_program(text)) for name, text in full_corpus()]
    return named + _large_looping_programs()


def test_composite_step_on_a_node_subset_copies_the_rest():
    universe, graph = load_program("diamond.dfg")
    s1 = composite_step((TOP,) * graph.n, graph, universe)
    full = composite_step(s1, graph, universe)
    part = composite_step(s1, graph, universe, [2])
    assert partitions_equal(part[1], full[1])
    assert all(part[k] is s1[k] for k in range(graph.n) if k != 1)


def test_incremental_jacobi_matches_full_steps_iterate_by_iterate():
    for name, universe, graph in _solver_corpus():
        expected = _full_step_iterates(graph, universe)
        result = solve(graph, universe, trace=True)
        assert result.trace is not None
        assert len(result.trace) == len(expected), name
        assert result.iterations == len(expected) - 2, name
        for l, (got, want) in enumerate(zip(result.trace, expected)):
            assert states_equal(got, want), (name, l)


def test_nodes_with_unchanged_predecessors_keep_their_value_object():
    for name, universe, graph in _solver_corpus():
        trace = solve(graph, universe, trace=True).trace
        assert trace is not None
        for l in range(2, len(trace)):
            changed = {k for k in range(1, graph.n + 1) if trace[l - 1][k - 1] is not trace[l - 2][k - 1]}
            for k in range(1, graph.n + 1):
                if not changed.intersection(graph.pred(k)):
                    assert trace[l][k - 1] is trace[l - 1][k - 1], (name, l, k)


def test_jacobi_on_a_chain_makes_linearly_many_transfers(monkeypatch):
    n = 40
    lines = ["vars x y", "consts a", "node 1 entry"]
    for k in range(2, n + 2):
        stmt = "y := x" if k % 3 == 0 else ("x := y" if k % 2 else "x := a + y")
        lines.append(f"node {k} assign {stmt} pred {k - 1}")
    universe, graph = parse_program("\n".join(lines) + "\n")
    expected = _full_step_iterates(graph, universe)
    calls = 0
    original = herbrand.dataflow.apply_statement

    def counting(elem, stmt):
        nonlocal calls
        calls += 1
        return original(elem, stmt)

    monkeypatch.setattr(herbrand.dataflow, "apply_statement", counting)
    result = solve(graph, universe)
    assert result.iterations == len(expected) - 2 == n + 1
    assert states_equal(result.state, expected[-1])
    # full steps would make n transfers in each of the n + 2 steps
    assert calls <= 2 * n
