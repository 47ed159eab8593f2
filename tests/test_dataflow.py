import pytest

import herbrand.dataflow
from herbrand import (
    Assign,
    Confluence,
    Entry,
    GraphError,
    IterationLimitError,
    NonDet,
    TOP,
    assign_transfer,
    bottom,
    build_universe,
    composite_step,
    is_top,
    refines,
    solve,
    validate_graph,
)
from helpers import (
    cls,
    full_corpus,
    is_congruence,
    large_looping_programs,
    load_program,
    reference_round_robin,
)
from herbrand import parse_program


def test_single_entry_graph_is_valid():
    g = validate_graph({1: Entry()}, {})
    assert g.n == 1 and g.pred(1) == ()


def test_entry_must_not_have_predecessors():
    with pytest.raises(GraphError):
        validate_graph({1: Entry(), 2: Confluence()}, {1: [2], 2: [1, 1]})


def test_function_point_needs_exactly_one_predecessor():
    u = build_universe(["x"], ["a"])
    stmt = Assign(u.resolve("x"), u.resolve("a"))
    with pytest.raises(GraphError):
        validate_graph({1: Entry(), 2: stmt}, {2: []})
    with pytest.raises(GraphError):
        validate_graph({1: Entry(), 2: stmt}, {2: [1, 1]})


def test_confluence_needs_exactly_two_predecessors():
    with pytest.raises(GraphError):
        validate_graph({1: Entry(), 2: Confluence()}, {2: [1]})


_U = build_universe(["x"], ["a"])
_ASSIGN = Assign(_U.resolve("x"), _U.resolve("a"))
_NONDET = NonDet(_U.resolve("x"))


@pytest.mark.parametrize(
    "kinds, preds",
    [
        pytest.param({1: Entry()}, {1: [1]}, id="entry-too-many"),
        pytest.param({1: Entry(), 2: _ASSIGN}, {2: []}, id="assign-too-few"),
        pytest.param({1: Entry(), 2: _ASSIGN}, {2: [1, 1]}, id="assign-too-many"),
        pytest.param({1: Entry(), 2: _NONDET}, {2: []}, id="nondet-too-few"),
        pytest.param({1: Entry(), 2: _NONDET}, {2: [1, 1]}, id="nondet-too-many"),
        pytest.param({1: Entry(), 2: Confluence()}, {2: [1]}, id="confluence-too-few"),
        pytest.param({1: Entry(), 2: Confluence()}, {2: [1, 1, 1]}, id="confluence-too-many"),
        pytest.param({1: Entry(), 2: "assign"}, {2: [1]}, id="unknown-kind-string"),
        pytest.param({1: Entry(), 2: object()}, {2: [1]}, id="unknown-kind-object"),
    ],
)
def test_every_kind_is_checked_against_its_arity(kinds, preds):
    with pytest.raises(GraphError) as info:
        validate_graph(kinds, preds)
    assert info.value.node == max(kinds)


@pytest.mark.parametrize(
    "kinds, preds, message, node",
    [
        pytest.param({1: Entry(), "x": Entry()}, {}, "node id 'x' is not an int", None, id="id-str"),
        pytest.param({True: Entry()}, {}, "node id True is not an int", None, id="id-bool"),
        pytest.param({1: Entry(), 2.0: _NONDET}, {2: [1]}, "node id 2.0 is not an int", None, id="id-float"),
        pytest.param(
            {1: Entry(), 2: _NONDET}, {2: 1}, "node 2 has predecessors 1, not a sequence", 2,
            id="preds-int",
        ),
        pytest.param(
            {1: Entry(), 2: _NONDET}, {2: {1}}, "node 2 has predecessors {1}, not a sequence", 2,
            id="preds-set",
        ),
        pytest.param(
            {1: Entry(), 2: _NONDET}, {2: [True]}, "node 2 references missing predecessor True", 2,
            id="pred-bool",
        ),
        pytest.param(
            {1: Entry(), 2: _NONDET}, {2: [1], True: []}, "predecessors given for unknown node True",
            None, id="preds-key-bool",
        ),
        pytest.param({1: Entry()}, [1], "predecessors [1] are not a mapping", None, id="preds-list"),
        pytest.param({1: Entry()}, (1,), "predecessors (1,) are not a mapping", None, id="preds-tuple"),
        pytest.param({1: Entry()}, None, "predecessors None are not a mapping", None, id="preds-none"),
    ],
)
def test_malformed_ids_and_predecessor_lists_rejected(kinds, preds, message, node):
    with pytest.raises(GraphError) as info:
        validate_graph(kinds, preds)
    assert str(info.value) == message and info.value.node == node


def test_confluence_may_repeat_a_predecessor():
    g = validate_graph({1: Entry(), 2: Confluence()}, {2: [1, 1]})
    assert g.pred(2) == (1, 1)


def test_successors_ascend_and_repeat_a_doubled_predecessor():
    g = validate_graph({1: Entry(), 2: Confluence(), 3: Confluence()}, {2: [1, 1], 3: [2, 1]})
    assert g.succs == ((2, 2, 3), (3,), ())
    # every corpus graph: node k is listed once per time it names p
    for _, text in full_corpus():
        _, graph = parse_program(text)
        for p in range(1, graph.n + 1):
            want = tuple(k for k in range(1, graph.n + 1) for q in graph.preds[k - 1] if q == p)
            assert graph.succ(p) == want


def test_dangling_predecessor_rejected():
    u = build_universe(["x"], ["a"])
    stmt = Assign(u.resolve("x"), u.resolve("a"))
    # a predecessor that is not an int is a missing one, not a TypeError
    for pred in (5, 0, 1.0, "1", None, (1,)):
        with pytest.raises(GraphError) as info:
            validate_graph({1: Entry(), 2: stmt}, {2: [pred]})
        assert str(info.value) == f"node 2 references missing predecessor {pred!r}"
        assert info.value.node == 2


@pytest.mark.parametrize(
    "preds, message",
    [
        ({7: [1]}, "predecessors given for unknown node 7"),
        ({"x": [3]}, "predecessors given for unknown node 'x'"),
        ({2: [1], 0: []}, "predecessors given for unknown node 0"),
    ],
    ids=["past-the-end", "not-an-int", "zero"],
)
def test_predecessors_of_unknown_nodes_rejected(preds, message):
    with pytest.raises(GraphError) as info:
        validate_graph({1: Entry(), 2: _NONDET}, preds)
    assert str(info.value) == message and info.value.node is None


def test_unreachable_node_rejected():
    u = build_universe(["x"], ["a"])
    stmt = Assign(u.resolve("x"), u.resolve("a"))
    with pytest.raises(GraphError):
        validate_graph(
            {1: Entry(), 2: stmt, 3: stmt}, {2: [1], 3: [3]}
        )


def test_entry_kind_only_at_node_one():
    with pytest.raises(GraphError):
        validate_graph({1: Entry(), 2: Entry()}, {2: [1]})


def test_node_ids_must_be_contiguous():
    u = build_universe(["x"], ["a"])
    stmt = Assign(u.resolve("x"), u.resolve("a"))
    with pytest.raises(GraphError):
        validate_graph({1: Entry(), 3: stmt}, {3: [1]})
    with pytest.raises(GraphError):
        validate_graph({}, {})


def test_a_gap_in_the_node_ids_names_the_first_missing_id():
    u = build_universe(["x"], ["a"])
    stmt = Assign(u.resolve("x"), u.resolve("a"))
    cases = [
        ({1: Entry(), 3: stmt}, {3: [1]}, "node ids must be 1..2 without gaps, but node 2 is missing"),
        ({1: Entry(), 2: stmt, 5: stmt, 6: stmt}, {2: [1], 5: [2], 6: [5]}, "1..4 without gaps, but node 3 is missing"),
        ({0: Entry(), 1: Entry()}, {}, "1..2 without gaps, but node 2 is missing"),
        ({-4: Entry()}, {}, "1..1 without gaps, but node 1 is missing"),
    ]
    for kinds, preds, message in cases:
        with pytest.raises(GraphError) as info:
            validate_graph(kinds, preds)
        assert str(info.value).endswith(message) and info.value.node is None


def test_first_step_pins_only_the_entry():
    universe, graph = load_program("diamond.dfg")
    state = composite_step((TOP,) * graph.n, graph, universe)
    assert state[0] == bottom(universe)
    assert all(is_top(v) for v in state[1:])


def test_second_step_applies_the_first_assignment():
    universe, graph = load_program("diamond.dfg")
    s1 = composite_step((TOP,) * graph.n, graph, universe)
    s2 = composite_step(s1, graph, universe)
    expected = assign_transfer(
        bottom(universe), universe.resolve("x"), universe.resolve("a")
    )
    assert s2[1] == expected


def test_fixpoint_is_a_fixed_point_of_the_step():
    universe, graph = load_program("loop.dfg")
    result = solve(graph, universe)
    assert composite_step(result.state, graph, universe) == result.state


def test_single_node_program_solves_in_one_iteration():
    universe, graph = parse_program("node 1 entry\n")
    result = solve(graph, universe)
    assert result.iterations == 1
    assert result.state[0] == bottom(universe)


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
        assert result.state[0] == bottom(universe)


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
        assert jac.state == wl.state, name


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
        if states[-1] == states[-2]:
            return states


def _solver_corpus():
    named = [(name, *parse_program(text)) for name, text in full_corpus()]
    return named + large_looping_programs()


def test_composite_step_on_a_node_subset_copies_the_rest():
    universe, graph = load_program("diamond.dfg")
    s1 = composite_step((TOP,) * graph.n, graph, universe)
    full = composite_step(s1, graph, universe)
    part = composite_step(s1, graph, universe, [2])
    assert part[1] == full[1]
    assert all(part[k] is s1[k] for k in range(graph.n) if k != 1)


def test_incremental_jacobi_matches_full_steps_iterate_by_iterate():
    for name, universe, graph in _solver_corpus():
        expected = _full_step_iterates(graph, universe)
        result = solve(graph, universe, trace=True)
        assert result.trace is not None
        assert len(result.trace) == len(expected), name
        assert result.iterations == len(expected) - 2, name
        for l, (got, want) in enumerate(zip(result.trace, expected)):
            assert got == want, (name, l)


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
    assert result.state == expected[-1]
    # full steps would make n transfers in each of the n + 2 steps
    assert calls <= 2 * n
