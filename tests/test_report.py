"""Differential tests of the report renderer against ``reference_emit_report``
and ``reference_mop_report`` (tests/helpers.py), byte for byte."""

import hashlib
import io
import random
import string
import sys
import tracemalloc
from contextlib import redirect_stdout
from json.encoder import encode_basestring_ascii

import pytest

from herbrand import (
    TOP,
    Atom,
    Partition,
    TermUniverse,
    assign_transfer,
    bottom,
    build_universe,
    emit_report,
    format_term,
    parse_program,
    parse_term,
    solve,
    verify_mop_mfp,
)
from herbrand.cli import build_parser, main
from herbrand.report import FORMATS, _Render, render_points, verify_lines
from herbrand.terms import IDENT_RE, RESERVED, VARIABLE
from helpers import (
    CORPUS_FILES,
    GridPartition,
    PROGRAMS_DIR,
    ROOT,
    full_corpus,
    load_program,
    make_partition,
    members,
    rand_partition,
    reference_emit_report,
    reference_mop_report,
    reference_visible_classes,
    render_verify,
    visible_classes,
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


def _arbitrary_labelings():
    """Seeded (grid, congruence) pairs over four universes: 30 arbitrary
    labelings per universe, each with a random congruence drawn after it
    (``None`` over the universe without variables)."""
    rng = random.Random(47)
    for variables, constants in [([], []), (["x"], []), (["x", "y"], ["a"]), (["x", "y", "z"], ["a", "b"])]:
        universe = build_universe(variables, constants)
        n = len(universe.terms)
        for _ in range(30):
            g = GridPartition(universe, tuple(rng.randrange(1 + n // 3) for _ in range(n)))
            yield g, rand_partition(universe, rng, steps=rng.randrange(0, 12)) if variables else None


def test_visible_classes_match_reference_on_arbitrary_labelings():
    # arbitrary labelings check the grid reference; congruences check the
    # renderer against it
    for g, p in _arbitrary_labelings():
        for full in (False, True):
            assert reference_visible_classes(g, full) == _shown_classes(g, full)
        if p is not None:
            for full in (False, True):
                assert visible_classes(p, full) == reference_visible_classes(p, full)
    assert visible_classes(TOP) is None


def test_one_report_over_values_sharing_atom_groups_matches_reference():
    # one report over every congruence above: the row memo is shared by all
    # of a universe's values, in which one atom group has several labels,
    # and a group is an atom class of one value and a pair operand of another
    state = tuple(p for _, p in _arbitrary_labelings() if p is not None) + (TOP,)
    labels, as_atoms, as_operands = {}, {}, {}
    for p in state[:-1]:
        groups, triples = members(p, len(p.universe.atoms))
        for c, group in enumerate(groups[:-1]):
            labels.setdefault((p.universe, group), set()).add(c)
        for c, l, r in triples:
            if c >= 0:
                as_atoms.setdefault((p.universe, groups[c]), set()).add(p)
            for i in (l, r) if l >= 0 else ():
                as_operands.setdefault((p.universe, groups[i]), set()).add(p)
    assert any(len(seen) > 1 for seen in labels.values())
    assert any(len(as_atoms[key] | as_operands[key]) > 1 for key in as_atoms.keys() & as_operands.keys())
    trace = [state[::-1], state[1::2]]
    for fmt, full, with_trace in VARIANTS:
        iterates = trace if with_trace else None
        got = emit_report(state, 3, fmt, full, iterates)
        _assert_same(got, reference_emit_report(state, 3, fmt, full, iterates), (fmt, full, with_trace))


def test_one_report_over_values_sharing_labels_but_not_triples_matches_reference(monkeypatch):
    # x, y, z, w, a, $nd1, $nd2 with {x, y} one class: p0 has no definition,
    # p1 defines z as the pairs of {x, y}, a pair-only row in p0, p2 defines
    # w as z+$nd1, a class of one visible member hidden below ``full``, and
    # p3 defines {x, y} and w over z; q0 and q1 have other labels
    universe = build_universe(["x", "y", "z", "w"], ["a"])
    labels, other = (0, 0, 2, 3, 4, 5, 6), (0, 1, 0, 3, 4, 5, 6)
    p0, p1, p2, p3 = (Partition(universe, labels, defs) for defs in ([], [(2, 0, 0)], [(3, 2, 5)], [(0, 3, 2), (3, 2, 2)]))
    q0, q1 = Partition(universe, other, []), Partition(universe, other, [(1, 0, 3)])
    state = (p0, p1, q1, p2, TOP, p3, q0, p0)
    values = [p for p in state if p is not TOP]
    assert len({p.atoms for p in values}) < len(set(values))
    bases = []
    base = _Render._base
    monkeypatch.setattr(_Render, "_base", lambda render, atoms, *args: bases.append(atoms) or base(render, atoms, *args))
    trace = [state[::-1], (p3, p0, q1)]
    for fmt, full, with_trace in VARIANTS:
        iterates = trace if with_trace else None
        bases.clear()
        got = emit_report(state, 1, fmt, full, iterates)
        _assert_same(got, reference_emit_report(state, 1, fmt, full, iterates), (fmt, full, with_trace))
        assert sorted(bases) == [labels, other]
    assert "\n  [w, z+$nd1]" in emit_report(state, 1, "text", True)
    assert "$nd1" not in emit_report(state, 1) and "\n  [w]" not in emit_report(state, 1)
    # a value's rows are a new list: a caller that edits one changes no
    # later value's rows, nor the same value's rows asked for again
    for full in (False, True):
        render = _Render("text", full)
        want = [render.rows(p) for p in values]
        for rows in want:
            rows.clear()
        assert [render.rows(p) for p in values] == [_Render("text", full).rows(p) for p in values]


def test_rows_sort_names_that_prefix_one_another():
    # "v1" < "v10" but "v1+v10" < "v10+v1", and "$nd1" (shown with ``full``)
    # sorts first; one value's class mixes atoms and pairs, and the group
    # {v1, v10} is an atom class of one value and an operand of the other's
    universe = build_universe(["v1", "v10", "v1_", "V1", "_v"], ["c"])
    mixed = make_partition(universe, [["v1", "v10", "_v+V1"], ["v1_", "V1"]])
    operand = make_partition(universe, [["v1", "v10"], ["_v", "V1", "v1+v10"]])
    moved = assign_transfer(mixed, universe.resolve("v1_"), universe.resolve("c"))
    state = (bottom(universe), mixed, operand, TOP, moved)
    trace = [state[::-1], (operand, mixed)]
    for fmt, full, with_trace in VARIANTS:
        iterates = trace if with_trace else None
        got = emit_report(state, 2, fmt, full, iterates)
        _assert_same(got, reference_emit_report(state, 2, fmt, full, iterates), (fmt, full, with_trace))
    assert "\n  [V1, _v, v1+v1, v1+v10, v10+v1, v10+v10]\n" in emit_report(state, 2)


def test_rows_sort_names_below_the_operator_sign():
    # in a hand-built universe a name may hold characters that sort below
    # "+": "a" < "a!", but "a!+b" < "a+b", so a row is sorted after its
    # members are joined from the sorted names of its groups
    names = ["a", "a!", "a-", "b", "c", "$nd1", "$nd2"]
    atoms = tuple(Atom(VARIABLE, name) for name in names[:5]) + tuple(Atom(RESERVED, name) for name in names[5:])
    universe = TermUniverse(
        variables=atoms[:5],
        constants=(),
        reserved=atoms[5:],
        atoms=atoms,
        index={atom: i for i, atom in enumerate(atoms)},
        by_name={atom.name: atom for atom in atoms},
    )
    # {a, a!} and {a-, b}, and c defined as the class of their pairs
    p = Partition(universe, [0, 0, 1, 1, 2, 3, 4], [(2, 0, 1)])
    state = (p, bottom(universe), p)
    for full in (False, True):
        _assert_same(emit_report(state, 0, "text", full), reference_emit_report(state, 0, "text", full), full)
    listed = [["a", "a!"], ["a!+a", "a!+a!", "a+a", "a+a!"], ["a!+a-", "a!+b", "a+a-", "a+b", "c"]]
    assert visible_classes(p)[:3] == listed


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
    rows = _Render.rows

    def counted(render, elem):
        if elem is not TOP:
            calls.append(elem)
        return rows(render, elem)

    monkeypatch.setattr(_Render, "rows", counted)
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


def test_a_thousand_variable_report_formats_only_its_shown_rows():
    # without ``full`` only the rows of non-singleton classes are shown, so
    # the report must not format all m² pair names (about 64 MiB at m = 1,000)
    names = " ".join(f"v{i}" for i in range(1000))
    text = f"vars {names}\nnode 1 entry\nnode 2 assign v1 := v0 pred 1\nnode 3 assign v2 := v0 + v1 pred 2\n"
    universe, graph = parse_program(text)
    result = solve(graph, universe)
    for fmt in FORMATS:
        tracemalloc.start()
        try:
            report = emit_report(result.state, result.iterations, fmt)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, (fmt, peak)
        assert "v0+v1" in report, fmt


def test_report_names_need_no_json_escape():
    # a JSON row quotes its names without escaping them: every name that
    # ``build_universe`` admits is its own ``encode_basestring_ascii`` body
    rng = random.Random(53)
    first = string.ascii_letters + "_"
    names = {"".join([rng.choice(first)] + rng.choices(first + string.digits, k=rng.randrange(12))) for _ in range(500)}
    names = sorted(names)
    assert all(IDENT_RE.match(name) for name in names)
    universe = build_universe(names, [])
    for name in [atom.name for atom in universe.atoms]:
        assert encode_basestring_ascii(name) == f'"{name}"', name
    assert [atom.name for atom in universe.reserved] == ["$nd1", "$nd2"]
    # and a JSON report over some of them equals ``json.dumps``'s
    universe = build_universe(names[:5], [])
    x, y, z = universe.variables[:3]
    joined = assign_transfer(bottom(universe), x, y)
    state = (bottom(universe), joined, assign_transfer(joined, z, parse_term(f"{x.name} + {y.name}", universe)))
    for full in (False, True):
        _assert_same(emit_report(state, 0, "json", full), reference_emit_report(state, 0, "json", full), full)


def test_json_report_rejects_a_name_that_needs_an_escape():
    atoms = (Atom(VARIABLE, 'a"b'), Atom(RESERVED, "$nd1"), Atom(RESERVED, "$nd2"))
    universe = TermUniverse(
        variables=atoms[:1],
        constants=(),
        reserved=atoms[1:],
        atoms=atoms,
        index={atom: i for i, atom in enumerate(atoms)},
        by_name={atom.name: atom for atom in atoms},
    )
    for full in (False, True):
        with pytest.raises(ValueError, match="needs a JSON escape"):
            emit_report([bottom(universe)], 0, "json", full)
    assert '\n  [a"b+a"b]\n' in emit_report([bottom(universe)], 0, "text", True)


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
        verify_lines(report, "xml")


class _DigestSink(io.TextIOBase):
    """A text stream that keeps only the SHA-256 of what is written to it."""

    def __init__(self) -> None:
        self.sha = hashlib.sha256()

    def write(self, text: str) -> int:
        self.sha.update(text.encode("utf-8"))
        return len(text)


def test_verify_writes_a_long_report_in_bounded_memory():
    # 200,001 length lines, written one at a time: the write peaks near
    # 10 KiB, where a list of the lines and their joined string took 26 MiB
    path = str(PROGRAMS_DIR / "straight_line.dfg")
    universe, graph = load_program("straight_line.dfg")
    want = render_verify(verify_mop_mfp(graph, universe, 200_000))
    assert want.count("\n") == 200_004
    sink = _DigestSink()
    build_parser()
    tracemalloc.start()
    try:
        with redirect_stdout(sink):
            assert main(["verify", path, "--max-len", "200000"]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sink.sha.hexdigest() == hashlib.sha256(want.encode("utf-8")).hexdigest()
    assert peak < 2**18, peak


def test_cli_formats_are_the_report_formats():
    assert FORMATS == ("text", "json")
    (commands,) = [action for action in build_parser()._actions if action.dest == "command"]
    for name in ("analyze", "mop", "verify"):
        (option,) = [action for action in commands.choices[name]._actions if action.dest == "format"]
        assert option.choices is FORMATS
