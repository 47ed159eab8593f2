"""Differential tests of the report renderer against ``reference_emit_report``
and ``reference_mop_report`` (tests/helpers.py), byte for byte."""

import random
import sys

import pytest

from herbrand import (
    TOP,
    Partition,
    build_universe,
    emit_report,
    format_term,
    parse_program,
    solve,
    verify_mop_mfp,
    visible_classes,
)
from herbrand.cli import build_parser, main
from herbrand.report import FORMATS, render_points, render_verify
from helpers import (
    CORPUS_FILES,
    GridPartition,
    PROGRAMS_DIR,
    ROOT,
    full_corpus,
    load_program,
    rand_partition,
    reference_emit_report,
    reference_mop_report,
    reference_visible_classes,
)

# the benchmark's program generator, read only
sys.path.append(str(ROOT / "perfbench"))
import workloads  # noqa: E402

VARIANTS = [(fmt, full, trace) for fmt in ("text", "json") for full in (False, True) for trace in (False, True)]


def _assert_same(got, want, what):
    """Equal strings, or a failure naming the first differing line (pytest's
    own diff of two long reports takes minutes)."""
    if got != want:
        g, w = got.split("\n"), want.split("\n")
        i = next((i for i, (a, b) in enumerate(zip(g, w)) if a != b), min(len(g), len(w)))
        pytest.fail(f"{what}: line {i + 1} differs: {g[i:i + 1]} != {w[i:i + 1]}")


def _assert_same_reports(name, text, variants=VARIANTS):
    universe, graph = parse_program(text)
    result = solve(graph, universe, trace=True)
    for fmt, full, trace in variants:
        iterates = result.trace if trace else None
        got = emit_report(result.state, result.iterations, fmt, full, iterates)
        want = reference_emit_report(result.state, result.iterations, fmt, full, iterates)
        _assert_same(got, want, (name, fmt, full, trace))


CORPUS = dict(full_corpus())


@pytest.mark.parametrize("name", CORPUS)
def test_emit_report_matches_reference_on_corpus(name):
    _assert_same_reports(name, CORPUS[name])


@pytest.mark.parametrize("workload", ["analyze-wide", "analyze-deep"])
def test_emit_report_matches_reference_on_seeded_workloads(workload):
    cases = workloads.build(workload, 3)
    for i, case in enumerate(cases):
        # every variant on the smallest program; larger ones as the benchmark
        # calls them, since the reference renders every class and every
        # iterate of those slowly
        variants = VARIANTS if i == 0 else [v for v in VARIANTS if not (v[1] or v[2])]
        _assert_same_reports(f"{workload}[{i}]", case.program.text(), variants)


def test_emit_report_matches_reference_without_declared_atoms():
    _assert_same_reports("no atoms", "node 1 entry\nnode 2 confluence pred 1 2\n")
    _assert_same_reports("one variable", "vars x\nnode 1 entry\nnode 2 nondet x pred 1\n")


@pytest.mark.parametrize("name", CORPUS_FILES)
def test_mop_report_matches_reference(name, capsys):
    universe, graph = load_program(name)
    for fmt in ("text", "json"):
        for full in (False, True):
            argv = ["mop", str(PROGRAMS_DIR / name), "--max-len", "12", "--format", fmt]
            assert main(argv + ["--full"] * full) == 0
            want = reference_mop_report(graph, universe, 12, fmt, full)
            _assert_same(capsys.readouterr().out, want, (name, fmt, full))


def test_mop_report_matches_reference_before_stabilising(capsys):
    universe, graph = load_program("nested_loop.dfg")
    for max_len in (0, 1, 3):
        for fmt in ("text", "json"):
            assert main(["mop", str(PROGRAMS_DIR / "nested_loop.dfg"), "--max-len", str(max_len), "--format", fmt]) == 0
            want = reference_mop_report(graph, universe, max_len, fmt)
            _assert_same(capsys.readouterr().out, want, (max_len, fmt))


def _shown_classes(g, full):
    """The classes of the grid ``g`` as a report lists them, from its member
    lists: without ``full``, terms that mention a reserved constant and
    classes left with one member are dropped."""
    reserved = {atom.name for atom in g.universe.reserved}
    rows = []
    for members in g.classes():
        names = sorted(format_term(t) for t in members)
        if not full:
            names = [name for name in names if not reserved.intersection(name.split("+"))]
        if len(names) > (0 if full else 1):
            rows.append(names)
    return sorted(rows)


def test_visible_classes_match_reference_on_arbitrary_labelings():
    # arbitrary labelings check the grid reference; congruences check the
    # renderer against it
    rng = random.Random(47)
    for variables, constants in [([], []), (["x"], []), (["x", "y"], ["a"]), (["x", "y", "z"], ["a", "b"])]:
        universe = build_universe(variables, constants)
        n = len(universe.terms)
        for _ in range(30):
            g = GridPartition(universe, tuple(rng.randrange(1 + n // 3) for _ in range(n)))
            for full in (False, True):
                assert reference_visible_classes(g, full) == _shown_classes(g, full)
            if variables:
                p = rand_partition(universe, rng, steps=rng.randrange(0, 12))
                for full in (False, True):
                    assert visible_classes(p, full) == reference_visible_classes(p, full)
    assert visible_classes(TOP) is None


def test_nodes_sharing_a_value_render_it_identically():
    universe, graph = load_program("diamond.dfg")
    state = solve(graph, universe).state
    shared = (state[4],) * 3 + (TOP,) + (state[4],)
    for fmt in ("text", "json"):
        for full in (False, True):
            got = emit_report(shared, 0, fmt, full, [shared, shared])
            _assert_same(got, reference_emit_report(shared, 0, fmt, full, [shared, shared]), (fmt, full))


def test_a_report_lists_the_classes_of_each_distinct_value_once(monkeypatch):
    calls = []
    members = Partition.members

    def counted(p, *args):
        calls.append(p)
        return members(p, *args)

    monkeypatch.setattr(Partition, "members", counted)
    programs = list(CORPUS.items())
    programs.append(("analyze-deep[0]", workloads.build("analyze-deep", 3)[0].program.text()))
    for name, text in programs:
        universe, graph = parse_program(text)
        result = solve(graph, universe, trace=True)
        for fmt, full, trace in VARIANTS:
            iterates = result.trace if trace else None
            calls.clear()
            emit_report(result.state, result.iterations, fmt, full, iterates)
            values = set(result.state).union(*(iterates or ())) - {TOP}
            assert len(calls) == len(values), (name, fmt, full, trace)


def test_emit_report_rejects_an_unknown_format():
    universe, graph = load_program("diamond.dfg")
    result = solve(graph, universe)
    with pytest.raises(ValueError, match="unknown report format 'JSON'"):
        emit_report(result.state, result.iterations, "JSON")


def test_render_points_rejects_an_unknown_format():
    universe, graph = load_program("diamond.dfg")
    with pytest.raises(ValueError, match="unknown report format 'yaml'"):
        render_points({"solver": "jacobi"}, solve(graph, universe).state, "yaml")


def test_render_verify_rejects_an_unknown_format():
    universe, graph = load_program("diamond.dfg")
    report = verify_mop_mfp(graph, universe, 4)
    assert report.ok
    with pytest.raises(ValueError, match="unknown report format 'xml'"):
        render_verify(report, "xml")


def test_cli_formats_are_the_report_formats():
    assert FORMATS == ("text", "json")
    (commands,) = [action for action in build_parser()._actions if action.dest == "command"]
    for name in ("analyze", "mop", "verify"):
        (option,) = [action for action in commands.choices[name]._actions if action.dest == "format"]
        assert option.choices is FORMATS
