import json
import random

import pytest

from herbrand import (
    AtomRef,
    Confluence,
    DeclarationError,
    Entry,
    Function,
    GraphError,
    ParseError,
    SelfReferenceError,
    Sum,
    build_universe,
    format_term,
    parse_program,
    visible_classes,
)
from herbrand.cli import main
from herbrand.terms import RESERVED
from helpers import GOLDEN_DIR, PROGRAMS_DIR, program_text, rand_partition


def _mentions_reserved(t) -> bool:
    if isinstance(t, AtomRef):
        return t.atom.kind == RESERVED
    assert isinstance(t, Sum)
    return _mentions_reserved(t.left) or _mentions_reserved(t.right)


def _term_level_visible_classes(p, full):
    rows = []
    for members in p.classes():
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
    assert isinstance(graph.kind(2), Function)
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
    )
    assert graph.n == 1


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


def test_cli_input_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.dfg"
    bad.write_text(
        "vars x\nconsts a\nnode 1 entry\nnode 2 assign x := a pred 1\nnode 3 assign x := a pred 3\n"
    )
    code, out, err = _run(capsys, "check", str(bad))
    assert code == 2
    assert "E_GRAPH" in err and out == ""
    code, _, err = _run(capsys, "check", str(tmp_path / "missing.dfg"))
    assert code == 2


def test_cli_non_utf8_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "latin1.dfg"
    bad.write_bytes(b"vars x\nconsts a\nnode 1 entry # caf\xe9\n")
    for command in ("check", "analyze", "verify"):
        code, out, err = _run(capsys, command, str(bad))
        assert code == 2 and out == ""
        assert err.startswith("error[E_PARSE]: line 3: invalid UTF-8 byte 0xe9")


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
