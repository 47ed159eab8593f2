import json
import random
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from herbrand import (
    AnalysisError,
    Assign,
    Atom,
    Confluence,
    DeclarationError,
    Entry,
    GraphError,
    ParseError,
    SelfReferenceError,
    Sum,
    build_universe,
    format_term,
    parse_program,
)
from herbrand import program
from herbrand.cli import main
from herbrand.terms import RESERVED
from helpers import CORPUS_FILES, GOLDEN_DIR, PROGRAMS_DIR, ROOT, grid, program_text, rand_partition, visible_classes

# the benchmark's program generator, read only
sys.path.append(str(ROOT / "perfbench"))
import workloads  # noqa: E402


def _mentions_reserved(t) -> bool:
    if isinstance(t, Atom):
        return t.kind == RESERVED
    assert isinstance(t, Sum)
    return _mentions_reserved(t.left) or _mentions_reserved(t.right)


def _term_level_visible_classes(p, full):
    rows = []
    for members in grid(p).classes():
        if not full:
            members = [t for t in members if not _mentions_reserved(t)]
            if len(members) < 2:
                continue
        rows.append(sorted(format_term(t) for t in members))
    return sorted(rows)


def test_minimal_program_parses():
    universe, graph = parse_program(
        "vars x\nconsts a\nnode 1 entry\nnode 2 assign x := a pred 1\n"
    )
    assert graph.n == 2
    assert isinstance(graph.kind(1), Entry)
    assert isinstance(graph.kind(2), Assign)
    assert [a.name for a in universe.atoms] == ["x", "a", "$nd1", "$nd2"]


def test_declarations_accumulate_and_may_follow_nodes():
    universe, graph = parse_program(
        "node 1 entry\nvars x\nnode 2 assign x := y pred 1\nvars y\n"
    )
    assert graph.n == 2
    assert {a.name for a in universe.variables} == {"x", "y"}


def test_comments_and_blank_lines_are_ignored():
    universe, graph = parse_program(
        "# heading\n\nvars x  # trailing\nconsts a\nnode 1 entry  # entry\n"
        "\t \t\n"
        "node\t2 \tassign\tx\t:=\ta\t+\ta pred\t1\t# tab before the comment\n"
        "\tnode 3 nondet x pred 2 \t\n"
    )
    assert [a.name for a in universe.variables] == ["x"]
    assert graph.n == 3 and graph.preds == ((), (1,), (2,))
    a = universe.resolve("a")
    assert graph.kind(2) == Assign(universe.resolve("x"), Sum(a, a))


def test_self_referential_assignment_is_positioned():
    with pytest.raises(SelfReferenceError) as exc:
        parse_program("vars x\nconsts a\nnode 1 entry\nnode 2 assign x := x + a pred 1\n")
    assert exc.value.line == 4
    assert "line 4" in str(exc.value)


def test_undeclared_names_are_positioned():
    with pytest.raises(DeclarationError) as exc:
        parse_program("vars x\nnode 1 entry\nnode 2 assign q := x pred 1\n")
    assert exc.value.line == 3
    with pytest.raises(DeclarationError):
        parse_program("vars x\nnode 1 entry\nnode 2 assign x := b pred 1\n")


def test_nodes_with_equal_statements_share_one_object():
    # one statement object per distinct (form, names), whichever reader
    # took the line: node 4's 19-digit id sends it to the cursor
    text = (
        "vars x y\nconsts a\nnode 1 entry\nnode 2 assign x := a pred 1\nnode 3 assign x:=a pred 2\n"
        "node 0000000000000000004 assign x := a pred 3\nnode 5 nondet y pred 4\nnode 6 nondet y pred 5\n"
        "node 7 confluence pred 5 6\nnode 8 confluence pred 7 7\nnode 9 assign y := x + a pred 8\n"
        "node 10 assign y := x+a pred 9\nnode 11 assign y := a + x pred 10\nnode 12 assign y := x pred 11\n"
        "node 13 assign y := a pred 12\n"
    )
    _, graph = parse_program(text)
    kinds = graph.kinds
    assert kinds[1] is kinds[2] is kinds[3]
    assert kinds[4] is kinds[5] and kinds[6] is kinds[7]
    assert kinds[8] is kinds[9] and kinds[10] is not kinds[8] and kinds[11] is not kinds[1]
    assert kinds[12] != kinds[1] and kinds[12].target.name == "y"
    assert len({id(kind) for kind in kinds}) == len(set(kinds)) == 8
    for case in workloads.build("analyze-deep", 3):
        kinds = parse_program(case.program.text())[1].kinds
        assert len({id(kind) for kind in kinds}) == len(set(kinds)) < len(kinds)


def test_a_repeated_bad_statement_raises_on_its_first_line():
    # a statement that fails is not kept, so the first node naming it
    # raises, with its own line, whatever its node id
    for text in (
        "vars x\nnode 1 entry\nnode 2 assign q := x pred 1\nnode 3 assign q := x pred 2\n",
        "vars x\nnode 1 entry\nnode 3 assign q := x pred 2\nnode 2 assign q := x pred 1\n",
        "vars x\nnode 1 entry\nnode 2 nondet q pred 1\nnode 3 assign x := x pred 2\nnode 4 nondet q pred 3\n",
    ):
        with pytest.raises(DeclarationError) as exc:
            parse_program(text)
        assert exc.value.line == 3 and "'q'" in str(exc.value), text


def test_assigning_to_a_constant_is_rejected():
    with pytest.raises(DeclarationError):
        parse_program("vars x\nconsts a\nnode 1 entry\nnode 2 assign a := x pred 1\n")


def test_duplicate_declarations_rejected():
    with pytest.raises(DeclarationError) as exc:
        parse_program("vars x\nconsts x\nnode 1 entry\n")
    assert exc.value.line == 2


def test_duplicate_node_ids_rejected():
    with pytest.raises(ParseError):
        parse_program("node 1 entry\nnode 1 entry\n")


def test_syntax_errors():
    with pytest.raises(ParseError):
        parse_program("vars\n")
    with pytest.raises(ParseError):
        parse_program("node 1 entry extra\n")
    with pytest.raises(ParseError):
        parse_program("node one entry\n")
    with pytest.raises(ParseError):
        parse_program("vars x\nnode 1 entry\nnode 2 assign x := pred 1\n")
    with pytest.raises(ParseError):
        parse_program("frobnicate\n")
    with pytest.raises(ParseError):
        parse_program("vars x?\n")


def test_confluence_with_repeated_predecessor_is_accepted():
    _, graph = parse_program(program_text("self_confluence.dfg"))
    assert graph.pred(3) == (2, 2)
    assert isinstance(graph.kind(3), Confluence)


def test_graph_errors_carry_the_node_line():
    text = "vars x\nconsts a\nnode 1 entry\nnode 2 assign x := a pred 1\nnode 3 assign x := a pred 3\n"
    with pytest.raises(GraphError) as exc:
        parse_program(text)
    assert exc.value.line == 5


def test_missing_entry_rejected():
    with pytest.raises(GraphError):
        parse_program("vars x\nconsts a\nnode 1 assign x := a pred 1\n")


# Lines assembled from the grammar's tokens. Digit runs of 4,290 to 4,400
# digits straddle CPython's default limit of 4,300 digits per int() call.
_WORDS = ["vars", "consts", "node", "entry", "assign", "nondet", "confluence", "pred"]
_WORDS += [":=", "+", "x", "y", "a", "b", "q", "#", "?", "\u00a0"]
_DIGITS = st.one_of(
    st.integers(0, 6).map(str),
    st.integers(4290, 4400).map(lambda n: "7" * n),
)
_NODE_LINES = st.one_of(
    st.builds("node {} entry".format, _DIGITS),
    st.builds("node {} nondet {} pred {}".format, _DIGITS, st.sampled_from("xyaq"), _DIGITS),
    st.builds(
        "node {} assign {} := {} pred {}".format,
        _DIGITS,
        st.sampled_from("xya"),
        st.sampled_from(["y", "a", "x", "y + a", "a + x", "q"]),
        _DIGITS,
    ),
    st.builds("node {} confluence pred {} {}".format, _DIGITS, _DIGITS, _DIGITS),
)
_LINES = st.one_of(
    st.sampled_from(["vars x y", "consts a", "vars b", "node 1 entry"]),
    _NODE_LINES,
    st.lists(st.one_of(st.sampled_from(_WORDS), _DIGITS), max_size=7).map(" ".join),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(st.lists(_LINES, max_size=10), st.sampled_from(["\n", "\r\n", "\r"]))
def test_parser_raises_only_analysis_errors(lines, line_end):
    try:
        parse_program(line_end.join(lines))
    except AnalysisError:
        pass


# ---------------------------------------------------------------------------
# the fast reader (program._LINE_RE) against the cursor
# ---------------------------------------------------------------------------

# every program the corpus and the benchmark's workloads on seeds 0 to 2 parse
_PROGRAMS = [program_text(name) for name in CORPUS_FILES] + [
    case.program.text() for name in workloads.WORKLOADS for seed in range(3) for case in workloads.build(name, seed)
]


def _outcome(text):
    """The scanned lines, the universe's names and the graph, or the
    error's type, message, line and node."""
    try:
        scanned = program._scan(text)
        universe, graph = parse_program(text)
    except AnalysisError as err:
        return type(err), str(err), err.line, getattr(err, "node", None)
    return scanned, universe.variables, universe.constants, graph


def _assert_the_cursor_agrees(texts):
    """Each text parses the same with the fast reader on and with every line
    sent to the cursor."""
    texts = list(texts)
    fast = [_outcome(text) for text in texts]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(program, "_LINE_RE", re.compile(r"(?!)"))  # matches nothing
        slow = [_outcome(text) for text in texts]
    for text, f, s in zip(texts, fast, slow):
        assert f == s, text


# inserted by the mutations below: words, separators the format rejects (VT,
# NBSP), a line end, and a digit run past CPython's limit on digits per int()
_INSERTS = ["node", "pred", "entry", "confluence", "nondet", ":=", "+", "x", "v1", "1", "2", " ", "\t", "#"]
_INSERTS += ["\x0b", "\u00a0", "\r", "7" * 4400]


def _mutations(text, rng, count):
    lines = text.split("\n")
    for _ in range(count):
        out = list(lines)
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(out))
            line, op = out[i], rng.randrange(4)
            if op == 0:  # insert a word or a character
                j = rng.randint(0, len(line))
                out[i] = line[:j] + rng.choice(_INSERTS) + line[j:]
            elif op == 1 and line:  # delete a character
                j = rng.randrange(len(line))
                out[i] = line[:j] + line[j + 1:]
            elif op == 2:  # duplicate a line
                out.insert(rng.randint(0, len(out)), line)
            else:  # blanks to tabs
                out[i] = line.replace(" ", "\t")
        yield "\n".join(out)


def test_fast_reader_takes_every_corpus_and_workload_line(monkeypatch):
    def cursor(body, line_no):
        raise AssertionError(f"line {line_no} went to the cursor: {body!r}")

    monkeypatch.setattr(program, "_tokenize", cursor)
    for text in _PROGRAMS:
        parse_program(text)


def test_fast_reader_parses_corpus_and_workloads_like_the_cursor():
    _assert_the_cursor_agrees(_PROGRAMS)


def test_fast_reader_parses_mutated_programs_like_the_cursor():
    rng = random.Random(18)
    texts = [m for text in _PROGRAMS[: len(CORPUS_FILES)] for m in _mutations(text, rng, 60)]
    texts += [m for text in _PROGRAMS[len(CORPUS_FILES):] for m in _mutations(text, rng, 4)]
    _assert_the_cursor_agrees(texts)


# lines next to the fast reader's edge: legal ones it leaves to the cursor,
# and errors, which only the cursor words
_EDGE_LINES = [
    "node 1 entry pred 1",
    "node 2 nondet x pred 1 2",
    "node 3 confluence pred 2",
    "node 3 confluence pred 1 2 3",
    "node 1entry",
    "node 2 assign x:=a+y pred 1",
    "node 2 assign x := a + pred 1",
    "node 2 assign x := a pred",
    "node 2 assign a := x pred 1",
    "node 2 nondet pred pred 1",
    "node 007 entry",
    "node 0 entry",
    "node " + "9" * 18 + " entry",
    "node " + "9" * 19 + " entry",
    "node 2 nondet x pred " + "7" * 19,
    "vars y y",
    "consts b a",
    "vars x",
    "vars node pred",
    "vars",
    "vars\tz  ",
    "node 1 entry",
    "node 2 nondet y pred 1",
    "  node\t4 confluence pred 2 2\t",
]
_BASE = "vars x y\nconsts a\nnode 1 entry\nnode 2 nondet x pred 1\nnode 3 assign y := x + a pred 2\n"


def test_fast_reader_parses_edge_lines_like_the_cursor():
    _assert_the_cursor_agrees(
        text for line in _EDGE_LINES for text in (line + "\n" + _BASE, _BASE + line + "\n", _BASE + line + "\n" + line)
    )


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(st.lists(_LINES, max_size=10), st.sampled_from(["\n", "\r\n", "\r"]))
def test_fast_reader_parses_hypothesis_lines_like_the_cursor(lines, line_end):
    _assert_the_cursor_agrees([line_end.join(lines)])


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_analyze_json_diamond(capsys):
    code, out, _ = _run(capsys, "analyze", str(PROGRAMS_DIR / "diamond.dfg"), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["solver"] == "jacobi"
    node5 = payload["points"][4]
    assert node5["status"] == "partition"
    assert ["a", "x", "y"] in node5["classes"]


def test_cli_reports_are_deterministic_across_runs(capsys):
    path = str(PROGRAMS_DIR / "nested_loop.dfg")
    first = _run(capsys, "analyze", path)
    second = _run(capsys, "analyze", path)
    assert first == second


@pytest.mark.parametrize("solver", ["worklist", "jacobi"])
def test_cli_solver_flag_is_gone(solver, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", str(PROGRAMS_DIR / "loop.dfg"), "--solver", solver])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --solver" in captured.err


def test_cli_golden_reports(capsys):
    for name in ("straight_line", "diamond", "nondet_copy"):
        code, out, _ = _run(
            capsys, "analyze", str(PROGRAMS_DIR / f"{name}.dfg"), "--format", "json"
        )
        assert code == 0
        assert out == (GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8"), name


def test_cli_full_exposes_hidden_classes(capsys):
    path = str(PROGRAMS_DIR / "straight_line.dfg")
    code, out, _ = _run(capsys, "analyze", path, "--format", "json", "--full")
    assert code == 0
    payload = json.loads(out)
    node2 = payload["points"][1]
    assert ["a", "x"] in node2["classes"]
    assert ["$nd1"] in node2["classes"]
    assert ["a+$nd1", "x+$nd1"] in node2["classes"]
    assert ["y"] in node2["classes"]


def test_cli_filtering_changes_visibility_not_membership(capsys):
    path = str(PROGRAMS_DIR / "diamond.dfg")
    _, full_out, _ = _run(capsys, "analyze", path, "--format", "json", "--full")
    _, out, _ = _run(capsys, "analyze", path, "--format", "json")
    full_payload = json.loads(full_out)
    payload = json.loads(out)
    for point, full_point in zip(payload["points"], full_payload["points"]):
        filtered = []
        for row in full_point["classes"]:
            kept = [t for t in row if "$" not in t]
            if len(kept) >= 2:
                filtered.append(kept)
        assert sorted(point["classes"]) == sorted(filtered)


def test_cli_verify_ok(capsys):
    code, out, _ = _run(
        capsys, "verify", str(PROGRAMS_DIR / "loop.dfg"), "--max-len", "10"
    )
    assert code == 0
    assert "ok" in out
    assert "MISMATCH" not in out


def test_cli_verify_text_lists_every_length(capsys):
    code, out, _ = _run(
        capsys, "verify", str(PROGRAMS_DIR / "diamond.dfg"), "--max-len", "3"
    )
    assert code == 0
    for l in range(4):
        assert f"length {l}: ok" in out


def test_cli_verify_exit_1_on_mismatch(monkeypatch, capsys):
    from herbrand import cli as cli_module
    from herbrand.mop import VerifyReport

    doctored = VerifyReport(node_count=1, max_len=2, stabilized=True, checks=3)
    doctored.iterate_mismatches.append((1, 1))
    monkeypatch.setattr(cli_module, "verify_mop_mfp", lambda *a, **k: doctored)
    code, out, _ = _run(capsys, "verify", str(PROGRAMS_DIR / "diamond.dfg"))
    assert code == 1
    assert "MISMATCH" in out and "FAILED" in out
    assert out == (
        "length 0: ok (1 nodes)\nlength 1: MISMATCH at nodes [1]\nlength 2: ok (1 nodes)\n"
        "stabilized within bound: yes\npath meet vs fixpoint: ok\nFAILED\n"
    )

    # (report, exit code, text stdout); the JSON stdout lists the same fields
    cases = [
        # two nodes at length 1, given out of order, then one at length 2,
        # and fixpoint mismatches
        (
            VerifyReport(3, 3, True, 12, [(3, 1), (1, 1), (2, 2)], [2, 3]),
            1,
            "length 0: ok (3 nodes)\nlength 1: MISMATCH at nodes [1, 3]\nlength 2: MISMATCH at nodes [2]\n"
            "length 3: ok (3 nodes)\nstabilized within bound: yes\n"
            "path meet vs fixpoint: MISMATCH at nodes [2, 3]\nFAILED\n",
        ),
        # fixpoint mismatches only
        (
            VerifyReport(2, 1, True, 4, [], [1]),
            1,
            "length 0: ok (2 nodes)\nlength 1: ok (2 nodes)\nstabilized within bound: yes\n"
            "path meet vs fixpoint: MISMATCH at nodes [1]\nFAILED\n",
        ),
        # unstabilized: no fixpoint line, with and without a mismatch
        (
            VerifyReport(2, 2, False, 6, [(2, 2)]),
            1,
            "length 0: ok (2 nodes)\nlength 1: ok (2 nodes)\nlength 2: MISMATCH at nodes [2]\n"
            "stabilized within bound: no\nFAILED\n",
        ),
        (
            VerifyReport(2, 1, False, 4),
            0,
            "length 0: ok (2 nodes)\nlength 1: ok (2 nodes)\nstabilized within bound: no\nok\n",
        ),
    ]
    for report, exit_code, text in cases:
        monkeypatch.setattr(cli_module, "verify_mop_mfp", lambda *a, report=report, **k: report)
        assert _run(capsys, "verify", str(PROGRAMS_DIR / "diamond.dfg")) == (exit_code, text, "")
        payload = {
            "solver": "verify",
            "max_len": report.max_len,
            "nodes": report.node_count,
            "checks": report.checks,
            "stabilized": report.stabilized,
            "iterate_mismatches": [list(m) for m in report.iterate_mismatches],
            "fixpoint_mismatches": report.fixpoint_mismatches,
            "ok": exit_code == 0,
        }
        json_out = json.dumps(payload, indent=2) + "\n"
        assert _run(capsys, "verify", str(PROGRAMS_DIR / "diamond.dfg"), "--format", "json") == (exit_code, json_out, "")


def test_cli_main_calls_share_one_parser(capsys):
    from herbrand import cli as cli_module

    cli_module.build_parser.cache_clear()
    path = str(PROGRAMS_DIR / "diamond.dfg")
    assert _run(capsys, "check", path)[0] == 0
    assert _run(capsys, "analyze", path, "--format", "json")[0] == 0
    with pytest.raises(SystemExit) as info:
        main(["analyze", path, "--format", "yaml"])
    assert info.value.code == 2
    assert "invalid choice: 'yaml'" in capsys.readouterr().err
    # a bad argument leaves the shared parser usable
    assert _run(capsys, "check", path) == (0, "ok: 5 nodes, 2 vars, 1 consts, 30 universe terms\n", "")
    # the first call built the parser, and the other three reused it
    info = cli_module.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 3)


def test_cli_verify_json(capsys):
    code, out, _ = _run(
        capsys,
        "verify",
        str(PROGRAMS_DIR / "diamond.dfg"),
        "--max-len",
        "10",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["stabilized"] is True
    assert payload["iterate_mismatches"] == []


def test_cli_mop_matches_analyze_when_stabilized(capsys):
    path = str(PROGRAMS_DIR / "diamond.dfg")
    _, mop_out, _ = _run(capsys, "mop", path, "--format", "json")
    _, ana_out, _ = _run(capsys, "analyze", path, "--format", "json")
    mop_payload = json.loads(mop_out)
    ana_payload = json.loads(ana_out)
    assert mop_payload["stabilized"] is True
    assert mop_payload["points"] == ana_payload["points"]


def test_cli_check_reports_summary(capsys):
    code, out, _ = _run(capsys, "check", str(PROGRAMS_DIR / "nested_loop.dfg"))
    assert code == 0
    assert out.startswith("ok:")


def test_cli_check_counts_a_thousand_variable_universe(tmp_path, capsys):
    names = " ".join(f"v{i}" for i in range(1000))
    path = tmp_path / "wide.dfg"
    path.write_text(f"vars {names}\nconsts a\nnode 1 entry\nnode 2 assign v0 := a pred 1\n")
    assert _run(capsys, "check", str(path)) == (
        0,
        "ok: 2 nodes, 1000 vars, 1 consts, 1007012 universe terms\n",
        "",
    )


def test_cli_gap_in_sixty_thousand_node_ids_names_the_missing_node(tmp_path, capsys):
    lines = ["vars x", "node 1 entry", "node 2 nondet x pred 1"]
    lines += [f"node {k} nondet x pred {k - 1}" for k in range(4, 60002)]
    path = tmp_path / "gap.dfg"
    path.write_text("\n".join(lines) + "\n")
    code, out, err = _run(capsys, "check", str(path))
    assert (code, out) == (2, "")
    assert err == "error[E_GRAPH]: node ids must be 1..60000 without gaps, but node 3 is missing\n"
    assert len(err.encode()) < 200


def test_cli_input_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.dfg"
    bad.write_text(
        "vars x\nconsts a\nnode 1 entry\nnode 2 assign x := a pred 1\nnode 3 assign x := a pred 3\n"
    )
    code, out, err = _run(capsys, "check", str(bad))
    assert code == 2
    assert "E_GRAPH" in err and out == ""
    # a file that cannot be read: the error's own text under the E_IO code
    missing = tmp_path / "missing.dfg"
    assert _run(capsys, "check", str(missing)) == (
        2,
        "",
        f"error[E_IO]: [Errno 2] No such file or directory: '{missing}'\n",
    )
    assert _run(capsys, "analyze", str(tmp_path)) == (2, "", f"error[E_IO]: [Errno 21] Is a directory: '{tmp_path}'\n")


_HEAD = "vars x y\nconsts a\nnode 1 entry\n"
# name: (program text, the whole of stderr)
_DIAGNOSTICS = {
    "undeclared_target": (
        _HEAD + "node 2 assign q := a pred 1\n",
        "error[E_UNDECLARED]: line 4: undeclared variable 'q'\n",
    ),
    "constant_target": (
        _HEAD + "node 2 assign a := x pred 1\n",
        "error[E_UNDECLARED]: line 4: 'a' is a constant, not a variable\n",
    ),
    "undeclared_rhs_name": (
        _HEAD + "node 2 assign x := y + b pred 1\n",
        "error[E_UNDECLARED]: line 4: undeclared name 'b'\n",
    ),
    "self_reference": (
        _HEAD + "node 2 assign x := y + x pred 1\n",
        "error[E_SELF_REF]: line 4: 'x' appears in its own right-hand side\n",
    ),
    "duplicate_declaration": (
        "vars x y\nconsts a x\nnode 1 entry\n",
        "error[E_UNDECLARED]: line 2: 'x' already declared on line 1\n",
    ),
    "duplicate_node_id": (
        _HEAD + "node 2 nondet x pred 1\nnode 2 nondet y pred 1\n",
        "error[E_PARSE]: line 5: node 2 already defined on line 4\n",
    ),
    "unknown_node_kind": (
        _HEAD + "node 2 branch x pred 1\n",
        "error[E_PARSE]: line 4: unknown node kind 'branch'"
        " (expected entry, assign, nondet or confluence)\n",
    ),
    "graph_error_line": (
        _HEAD + "node 2 assign x := a pred 1\nnode 3 confluence pred 2 4\n",
        "error[E_GRAPH]: line 5: node 3 references missing predecessor 4\n",
    ),
    "unreachable_node": (
        _HEAD + "node 2 nondet x pred 3\nnode 3 nondet y pred 2\n",
        "error[E_GRAPH]: line 4: node 2 is not reachable from the entry\n",
    ),
    "missing_entry": (
        "vars x\nconsts a\n\nnode 1 nondet x pred 1\n",
        "error[E_GRAPH]: line 4: node 1 must be the entry point\n",
    ),
}


@pytest.mark.parametrize("name", list(_DIAGNOSTICS))
def test_cli_check_diagnostics_are_exact(name, tmp_path, capsys):
    text, err = _DIAGNOSTICS[name]
    bad = tmp_path / "bad.dfg"
    bad.write_text(text, encoding="utf-8")
    assert _run(capsys, "check", str(bad)) == (2, "", err)


@pytest.mark.parametrize(
    "line, digits",
    [("node " + "9" * 5000 + " entry", 5000), ("node 2 nondet x pred " + "7" * 4400, 4400)],
    ids=["node_id", "predecessor"],
)
def test_cli_integers_past_the_digit_limit_exit_2(line, digits, tmp_path, capsys):
    bad = tmp_path / "huge.dfg"
    bad.write_text(_HEAD + line + "\n", encoding="utf-8")
    assert _run(capsys, "check", str(bad)) == (
        2,
        "",
        f"error[E_PARSE]: line 4: integer of {digits} digits is too long\n",
    )


def test_cli_non_utf8_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "latin1.dfg"
    bad.write_bytes(b"vars x\nconsts a\nnode 1 entry # caf\xe9\n")
    for command in ("check", "analyze", "verify"):
        code, out, err = _run(capsys, command, str(bad))
        assert code == 2 and out == ""
        assert err.startswith("error[E_PARSE]: line 3: invalid UTF-8 byte 0xe9")


@pytest.mark.parametrize("line_end", [b"\r\n", b"\r"], ids=["crlf", "cr"])
def test_cli_non_utf8_input_names_the_physical_line(line_end, tmp_path, capsys):
    bad = tmp_path / "latin1.dfg"
    bad.write_bytes(line_end.join([b"vars x", b"consts a", b"node 1 entry # caf\xe9", b""]))
    code, out, err = _run(capsys, "check", str(bad))
    assert code == 2 and out == ""
    assert err.startswith("error[E_PARSE]: line 3: invalid UTF-8 byte 0xe9")


def test_cli_non_ascii_digit_in_node_id_exits_2(tmp_path, capsys):
    # U+0661 ARABIC-INDIC DIGIT ONE is a Unicode decimal digit, not an id
    bad = tmp_path / "arabic_digit.dfg"
    bad.write_text("vars x\nconsts a\nnode \u0661 entry\n", encoding="utf-8")
    for command in ("check", "analyze", "verify"):
        code, out, err = _run(capsys, command, str(bad))
        assert code == 2 and out == ""
        assert err.startswith("error[E_PARSE]: line 3: unexpected character '\u0661'")


@pytest.mark.parametrize(
    "text, line, char",
    [
        # U+00A0 NO-BREAK SPACE between tokens
        ("vars x\nconsts a\nnode\u00a01 entry\n", 3, "\\xa0"),
        # U+2003 EM SPACE between tokens
        ("vars x\nconsts a\nnode 1 entry\nnode 2 assign x\u2003:= a pred 1\n", 4, "\\u2003"),
        # U+2028 LINE SEPARATOR inside one physical line
        ("vars x\nconsts a\nnode 1 entry\u2028node 2 assign x := a pred 1\n", 3, "\\u2028"),
        # a form feed on line 1; the bad pred on line 3 is never reached
        ("vars x\fconsts a\nnode 1 entry\nnode 2 assign x := a pred 9\n", 1, "\\x0c"),
        # a vertical tab after a token on line 2
        ("vars x\nconsts a\x0b\nnode 1 entry\n", 2, "\\x0b"),
    ],
    ids=["nbsp", "em_space", "line_separator", "form_feed", "vertical_tab"],
)
def test_cli_unicode_whitespace_exits_2_on_its_physical_line(text, line, char, tmp_path, capsys):
    bad = tmp_path / "unicode_space.dfg"
    bad.write_text(text, encoding="utf-8")
    for command in ("check", "analyze", "verify"):
        code, out, err = _run(capsys, command, str(bad))
        assert code == 2 and out == ""
        assert err == f"error[E_PARSE]: line {line}: unexpected character '{char}'\n"


@pytest.mark.parametrize("line_end", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_crlf_and_cr_text_parse_like_lf_text(line_end):
    text = program_text("nested_loop.dfg")
    u_lf, g_lf = parse_program(text)
    u_other, g_other = parse_program(text.replace("\n", line_end))
    assert [a.name for a in u_other.atoms] == [a.name for a in u_lf.atoms]
    assert g_other.kinds == g_lf.kinds and g_other.preds == g_lf.preds


def test_crlf_diagnostics_keep_physical_line_numbers():
    with pytest.raises(DeclarationError) as exc:
        parse_program("vars x\r\nconsts a\r\nnode 1 entry\r\nnode 2 assign x := b pred 1\r\n")
    assert exc.value.line == 4


@pytest.mark.parametrize("command", ["mop", "verify"])
def test_cli_negative_max_len_rejected(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, str(PROGRAMS_DIR / "loop.dfg"), "--max-len", "-3"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --max-len: must not be negative, got -3" in captured.err


@pytest.mark.parametrize("command", ["mop", "verify"])
def test_cli_negative_path_cap_rejected(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, str(PROGRAMS_DIR / "diamond.dfg"), "--path-cap", "-5"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --path-cap: must not be negative, got -5" in captured.err
    assert "E_PATH_LIMIT" not in captured.err


def test_cli_max_len_zero_still_accepted(capsys):
    code, out, _ = _run(capsys, "mop", str(PROGRAMS_DIR / "loop.dfg"), "--max-len", "0")
    assert code == 0 and "max_len: 0" in out


def test_visible_classes_match_term_level_filter():
    rng = random.Random(31)
    for variables, constants in [(["x", "y"], ["a"]), (["x", "y", "z"], ["a", "b"])]:
        universe = build_universe(variables, constants)
        for _ in range(20):
            p = rand_partition(universe, rng, steps=rng.randrange(0, 12))
            for full in (False, True):
                assert visible_classes(p, full) == _term_level_visible_classes(p, full)


def test_cli_path_cap_exit_3(capsys):
    code, _, err = _run(
        capsys,
        "mop",
        str(PROGRAMS_DIR / "diamond.dfg"),
        "--path-cap",
        "1",
    )
    assert code == 3
    assert "E_PATH_LIMIT" in err


def test_cli_exit_status_of_every_error_class(monkeypatch, capsys):
    from herbrand import cli as cli_module, errors

    limits = {"E_ITER_LIMIT", "E_PATH_LIMIT"}
    raised = [c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, AnalysisError)]
    assert len(raised) == 8
    for error in raised:

        def load(path, error=error):
            raise error("boom")

        monkeypatch.setattr(cli_module, "_load", load)
        expected = 3 if error.code in limits else 2
        assert _run(capsys, "check", str(PROGRAMS_DIR / "diamond.dfg")) == (expected, "", f"error[{error.code}]: boom\n")


def test_cli_trace_includes_iterates(capsys):
    code, out, _ = _run(
        capsys,
        "analyze",
        str(PROGRAMS_DIR / "straight_line.dfg"),
        "--format",
        "json",
        "--trace",
    )
    assert code == 0
    payload = json.loads(out)
    assert [entry["iteration"] for entry in payload["trace"]] == [0, 1, 2, 3, 4]
    assert payload["trace"][0]["points"][0]["status"] == "top"
