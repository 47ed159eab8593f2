import os
import random
import subprocess
import sys

import pytest

from herbrand import (
    Assign,
    Confluence,
    NonDet,
    Partition,
    PathLimitError,
    SolveResult,
    TOP,
    apply_statement,
    bottom,
    is_top,
    meet,
    mop_table,
    parse_program,
    solve,
    verify_mop_mfp,
)
from herbrand.cli import main
from helpers import (
    PROGRAMS_DIR,
    ROOT,
    cls,
    enum_paths,
    full_corpus,
    load_program,
    m_l,
    mop,
    path_congruence,
    refines,
)

# the benchmark's program generator, read only
sys.path.append(str(ROOT / "perfbench"))
import gen  # noqa: E402


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
            assert a in graph.preds[b - 1]


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
                for j in graph.preds[k - 1]:
                    expected.update(enum_paths(graph, j, bound - 1))
                assert prefixes == expected


def test_path_congruence_examples():
    universe, graph = load_program("diamond.dfg")
    assert path_congruence((1,), graph, universe) == bottom(universe)
    one_step = path_congruence((1, 2), graph, universe)
    kind = graph.kinds[1]
    assert isinstance(kind, Assign)
    assert one_step == apply_statement(bottom(universe), kind)
    via_join = path_congruence((1, 2, 3, 5), graph, universe)
    before_join = path_congruence((1, 2, 3), graph, universe)
    assert via_join == before_join


def test_bounded_meet_base_cases():
    universe, graph = load_program("diamond.dfg")
    for k in range(1, graph.n + 1):
        assert is_top(m_l(graph, universe, k, 0))
    assert m_l(graph, universe, 1, 1) == bottom(universe)
    for k in range(2, graph.n + 1):
        assert is_top(m_l(graph, universe, k, 1))


def test_bounded_meets_satisfy_one_step_recurrences():
    for name in ["diamond.dfg", "loop.dfg", "nondet_branch.dfg"]:
        universe, graph = load_program(name)
        for length in range(1, 7):
            assert m_l(graph, universe, 1, length) == bottom(universe)
            for k in range(2, graph.n + 1):
                kind = graph.kinds[k - 1]
                if isinstance(kind, (Assign, NonDet)):
                    (j,) = graph.preds[k - 1]
                    expected = apply_statement(m_l(graph, universe, j, length - 1), kind)
                else:
                    assert isinstance(kind, Confluence)
                    i, j = graph.preds[k - 1]
                    expected = meet(
                        m_l(graph, universe, i, length - 1),
                        m_l(graph, universe, j, length - 1),
                    )
                assert m_l(graph, universe, k, length) == expected


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
                row = rows[min(length, len(rows) - 1)]
                assert row[k - 1] == literal, (name, k, length)


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
    assert value == meet(left, right)


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
    assert report.stabilized == (rows[3] == rows[4])


def _per_length_verify(rows, trace, n, max_len):
    """``verify_mop_mfp``'s comparison as one loop over every length: the
    checks and the iterate mismatches, in (length, node) order."""
    mismatches = []
    for l in range(max_len + 1):
        row, iterate = rows[min(l, len(rows) - 1)], trace[min(l, len(trace) - 1)]
        mismatches += [(k, l) for k in range(1, n + 1) if row[k - 1] != iterate[k - 1]]
    return n * (max_len + 1), mismatches


def test_verify_compares_past_both_tables_ends_once(monkeypatch):
    universe, graph = load_program("diamond.dfg")
    rows = mop_table(graph, universe, 10**6)
    solved = solve(graph, universe, trace=True)
    monkeypatch.setattr("herbrand.mop.mop_table", lambda *a, **k: rows)
    monkeypatch.setattr("herbrand.mop.solve", lambda *a, **k: solved)
    compared = 0
    equal = Partition.__eq__

    def counting_eq(self, other):
        nonlocal compared
        compared += 1
        return equal(self, other)

    monkeypatch.setattr(Partition, "__eq__", counting_eq)
    report = verify_mop_mfp(graph, universe, 10**6)
    assert report.ok and report.checks == graph.n * (10**6 + 1)
    assert 0 < compared <= graph.n * (len(rows) + len(solved.trace))


def test_verify_lists_a_mismatch_past_both_ends_at_every_length(monkeypatch):
    # a doctored solver trace whose last row differs from the path meets at
    # nodes 2 and 5, and whose earlier row differs at node 4
    universe, graph = load_program("diamond.dfg")
    rows = mop_table(graph, universe, 50)
    trace = list(solve(graph, universe, trace=True).trace)
    trace[-1] = (*trace[-1][:1], bottom(universe), *trace[-1][2:4], bottom(universe))
    trace[2] = (*trace[2][:3], bottom(universe), trace[2][4])
    solved = solve(graph, universe)
    doctored = SolveResult(state=solved.state, iterations=solved.iterations, trace=trace)
    monkeypatch.setattr("herbrand.mop.solve", lambda *a, **k: doctored)
    for max_len in (1, len(trace) - 1, len(rows) + len(trace), 50):
        report = verify_mop_mfp(graph, universe, max_len)
        checks, mismatches = _per_length_verify(rows, trace, graph.n, max_len)
        assert (report.checks, report.iterate_mismatches) == (checks, mismatches)
    assert mismatches[-2:] == [(2, 50), (5, 50)] and (4, 2) in mismatches


def test_table_stops_one_row_after_the_paths_run_out():
    # straight_line.dfg has paths of 1 to 3 nodes: rows 0 to 3, then one
    # repeated row, however large the bound
    universe, graph = load_program("straight_line.dfg")
    rows = mop_table(graph, universe, 10**6)
    assert len(rows) == 5
    assert rows[-2] == rows[-1] and rows[-3] != rows[-2]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_mop_output_does_not_depend_on_a_bound_past_the_paths(fmt, capsys):
    def run(max_len):
        path = str(PROGRAMS_DIR / "straight_line.dfg")
        assert main(["mop", path, "--max-len", str(max_len), "--format", fmt]) == 0
        return [line for line in capsys.readouterr().out.splitlines() if "max_len" not in line]

    assert run(10**6) == run(100)


def test_verify_on_a_loop_ends_at_the_first_level_with_no_new_state(capsys):
    # nested_loop's paths of 8 edges reach only states that shorter paths
    # reached, so the walk ends there; walking on to length 3000 passed the
    # path cap and exited 3
    assert main(["verify", str(PROGRAMS_DIR / "nested_loop.dfg"), "--max-len", "3000"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.splitlines()[-1] == "ok"


def test_mop_on_a_loop_answers_at_any_bound(capsys):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "herbrand.cli", "mop", "programs/loop.dfg", "--max-len", "1000000000000"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert main(["mop", str(PROGRAMS_DIR / "loop.dfg"), "--max-len", "40"]) == 0
    short = capsys.readouterr().out
    assert done.stdout == short.replace("max_len: 40\n", "max_len: 1000000000000\n")
    assert "stabilized: yes\n" in short


@pytest.mark.parametrize("name", ["diamond.dfg", "nested_loop.dfg"])
def test_mop_table_meets_once_per_path(name, monkeypatch):
    # the path count is what --path-cap limits and what the benchmark's
    # frontier counters read, so the table never merges paths. The only
    # paths it skips are those from the first length whose paths reach no
    # (node, congruence) state that a shorter path did not: their states,
    # and all their extensions', are met already, so no row can change
    universe, graph = load_program(name)
    calls = 0

    def counting_meet(l1, l2):
        nonlocal calls
        calls += 1
        return meet(l1, l2)

    monkeypatch.setattr("herbrand.mop.meet", counting_meet)
    mop_table(graph, universe, 12)
    paths = [p for k in range(1, graph.n + 1) for p in enum_paths(graph, k, 12)]
    seen: set = set()
    end = 0
    while True:
        level = {(p[-1], path_congruence(p, graph, universe)) for p in paths if len(p) == end + 1}
        if level <= seen:
            break
        seen |= level
        end += 1
    assert calls == sum(len(p) - 1 < end for p in paths) > graph.n
    # the diamond's paths run out after 3 edges; nested_loop's 22 paths
    # below 12 edges hold 10 below 8, where the walk ends
    assert (end, calls) == {"diamond.dfg": (4, 6), "nested_loop.dfg": (8, 10)}[name]


def _shared_chain():
    # the benchmark's 4-diamond shared-state chain: path lengths 0..8 hold
    # 1, 2, 2, 4, 4, 8, 8, 16, 16 paths, at 1 or 2 distinct states per node
    program = gen.shared_chain(random.Random(0), 4)
    return program, *parse_program(program.text())


def _chain_paths(graph, bound):
    return [p for k in range(1, graph.n + 1) for p in enum_paths(graph, k, bound)]


def test_mop_table_shares_one_state_per_node_and_value(monkeypatch):
    _, universe, graph = _shared_chain()
    # the table meets a level's paths and then expands them in the same
    # order, one succ call per path, so the i-th meet of a level belongs to
    # the path whose end node is the i-th succ argument
    events: list = []
    transfers: list = []
    succ = type(graph).succ

    def counting_meet(l1, l2):
        events.append(("meet", l2))
        return meet(l1, l2)

    def counting_succ(self, k):
        events.append(("succ", k))
        return succ(self, k)

    def counting_apply(value, kind):
        transfers.append((kind, value))
        return apply_statement(value, kind)

    monkeypatch.setattr("herbrand.mop.meet", counting_meet)
    monkeypatch.setattr(type(graph), "succ", counting_succ)
    monkeypatch.setattr("herbrand.mop.apply_statement", counting_apply)
    mop_table(graph, universe, 15)
    met: list = []
    pending: list = []
    for kind, item in events:
        if kind == "meet":
            pending.append(item)
        else:
            met.append((item, pending.pop(0)))
    assert pending == []
    # 61 path meets over the 17 (node, value) states that the paths reach,
    # counted independently, and over 7 distinct values; every state's
    # paths are met with one object
    states = {(path[-1], path_congruence(path, graph, universe)) for path in _chain_paths(graph, 15)}
    assert len(met) == 61 and set(met) == states and len(states) == 17
    assert len({value for _, value in met}) == 7
    assert len({(k, id(value)) for k, value in met}) == 17
    # one transfer per distinct (statement node, input value), counted
    # independently from the paths one node longer than the table's
    inputs = {
        (path[-1], path_congruence(path[:-1], graph, universe))
        for path in _chain_paths(graph, 16)
        if len(path) > 1 and not isinstance(graph.kinds[path[-1] - 1], Confluence)
    }
    assert len(transfers) == len(inputs) == 14


def test_path_cap_counts_paths_not_states(tmp_path, capsys):
    program, universe, graph = _shared_chain()
    paths = _chain_paths(graph, 16)
    widest = max(sum(len(p) == size for p in paths) for size in range(1, 17))
    states = max(len({path_congruence(p, graph, universe) for p in paths if p[-1] == k}) for k in range(1, graph.n + 1))
    assert (widest, states) == (16, 2)
    mop_table(graph, universe, 15, cap=widest)
    with pytest.raises(PathLimitError):
        mop_table(graph, universe, 15, cap=widest - 1)
    path = tmp_path / "chain.dfg"
    path.write_text(program.text())
    assert main(["mop", str(path), "--max-len", "15", "--path-cap", str(widest - 1)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [f"error[E_PATH_LIMIT]: more than {widest - 1} paths of one length"]


@pytest.mark.parametrize("max_len, cap", [(1, 1), (3, 2), (5, 4), (7, 8)])
def test_path_cap_ignores_the_level_no_row_uses(max_len, cap, tmp_path, capsys):
    # the chain's levels hold 1, 2, 2, 4, 4, 8, 8, 16, 16 paths; the rows
    # up to ``max_len`` cover only levels below it, which hold at most
    # ``cap``, so the level of paths of length ``max_len`` is never built
    program, universe, graph = _shared_chain()
    assert mop_table(graph, universe, max_len, cap=cap) == mop_table(graph, universe, max_len)
    with pytest.raises(PathLimitError):
        mop_table(graph, universe, max_len + 1, cap=cap)
    path = tmp_path / "chain.dfg"
    path.write_text(program.text())
    for command in ("mop", "verify"):
        args = [command, str(path), "--max-len", str(max_len)]
        assert main(args) == 0
        full = capsys.readouterr()
        assert main(args + ["--path-cap", str(cap)]) == 0
        assert capsys.readouterr() == full


def test_path_cap_ignores_a_level_that_reaches_no_new_state(tmp_path, capsys):
    # a random program (4-9 nodes) whose levels hold 1, 1, 1, 4, 10 and 17
    # paths; every path of the sixth level ends in a (node, value) state
    # that a shorter path reached, so the walk ends before meeting it and a
    # cap of 10 to 16 paths changes no output
    text = (
        "vars x\nconsts a b\nnode 1 entry\nnode 2 assign x := b + a pred 1\n"
        "node 3 confluence pred 2 3\nnode 4 confluence pred 3 4\nnode 5 nondet x pred 4\n"
        "node 6 confluence pred 3 6\nnode 7 confluence pred 6 7\nnode 8 confluence pred 3 6\n"
        "node 9 assign x := b pred 4\n"
    )
    universe, graph = parse_program(text)
    paths = _chain_paths(graph, 6)
    assert [sum(len(p) == size for p in paths) for size in range(1, 7)] == [1, 1, 1, 4, 10, 17]
    table = mop_table(graph, universe, 12)
    assert len(table) == 7 and table[-1] == table[-2]
    for cap in (10, 16):
        assert mop_table(graph, universe, 12, cap=cap) == table
    with pytest.raises(PathLimitError):
        mop_table(graph, universe, 12, cap=9)
    path = tmp_path / "levels.dfg"
    path.write_text(text)
    for command in ("mop", "verify"):
        args = [command, str(path), "--max-len", "12"]
        assert main(args) == 0
        full = capsys.readouterr()
        for cap in (10, 16):
            assert main(args + ["--path-cap", str(cap)]) == 0
            assert capsys.readouterr() == full
        assert main(args + ["--path-cap", "9"]) == 3
        assert capsys.readouterr().err == "error[E_PATH_LIMIT]: more than 9 paths of one length\n"
