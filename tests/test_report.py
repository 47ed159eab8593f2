"""Differential tests of the report renderer against ``reference_emit_report``
and ``reference_mop_report`` (tests/helpers.py), byte for byte."""

import hashlib
import io
import json
import os
import random
import string
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stdout
from json.encoder import encode_basestring_ascii

import pytest

from herbrand import (
    TOP,
    Partition,
    assign_transfer,
    bottom,
    build_universe,
    emit_report,
    format_term,
    mop_table,
    parse_program,
    parse_term,
    solve,
    verify_mop_mfp,
)
from herbrand.cli import build_parser, main
from herbrand.mop import VerifyReport
from herbrand.report import FORMATS, _Render, render_mop, render_points, render_verify
from herbrand.terms import IDENT_RE
from helpers import (
    CORPUS_FILES,
    GridPartition,
    PROGRAMS_DIR,
    ROOT,
    chain_program_text,
    full_corpus,
    load_program,
    make_partition,
    members,
    rand_partition,
    reference_emit_report,
    reference_mop_report,
    reference_visible_classes,
    visible_classes,
    written,
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
        got = written(emit_report, result.state, result.iterations, fmt, full, iterates)
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
        got = written(emit_report, state, 3, fmt, full, iterates)
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
        got = written(emit_report, state, 1, fmt, full, iterates)
        _assert_same(got, reference_emit_report(state, 1, fmt, full, iterates), (fmt, full, with_trace))
        assert sorted(bases) == [labels, other]
    assert "\n  [w, z+$nd1]" in written(emit_report, state, 1, "text", True)
    assert "$nd1" not in written(emit_report, state, 1) and "\n  [w]" not in written(emit_report, state, 1)
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
        got = written(emit_report, state, 2, fmt, full, iterates)
        _assert_same(got, reference_emit_report(state, 2, fmt, full, iterates), (fmt, full, with_trace))
    assert "\n  [V1, _v, v1+v1, v1+v10, v10+v1, v10+v10]\n" in written(emit_report, state, 2)


def _row_shapes(p, count):
    """The shown rows of ``p`` without ``full``, by shape: "k" stands for an
    operand of two or more names."""
    groups, listed = members(p, count, 2)
    sizes = [len(group) for group in groups]
    return {
        "triple" if c >= 0 else f"{'1' if sizes[l] == 1 else 'k'}x{'1' if sizes[r] == 1 else 'k'}"
        for c, l, r in listed
        if l >= 0
    }


@pytest.mark.parametrize(
    "names",
    [
        # names that prefix one another: "v1" < "v10", and "v1+w" < "v10+w"
        ["v1", "v10", "v1_", "V1", "_v", "w"],
        # names whose later characters are the lowest the name rule admits,
        # digits, just above "+": "w0+x" < "w00+x" < "w09+x" < "w0_+x"
        ["w0", "w00", "w09", "w0_", "w", "W", "x"],
    ],
)
def test_both_row_formats_match_reference_on_hand_built_universes(names):
    # a universe over chosen names, and values with their labels set by hand
    universe = build_universe(names, [])
    # the first three names one class and the next two another, with no
    # definition and with the sixth name defined as the pairs over them
    labels = [0, 0, 0, 3, 3] + list(range(5, len(universe.atoms)))
    state = (Partition(universe, labels, []), Partition(universe, labels, [(5, 0, 3)]))
    rng = random.Random(59)
    state += tuple(rand_partition(universe, rng, steps=rng.randrange(2, 14)) for _ in range(40)) + (TOP,)
    shapes = set().union(*(_row_shapes(p, len(names)) for p in state[:-1]))
    assert {"kx1", "1xk", "kxk", "triple"} <= shapes
    for fmt in FORMATS:
        for full in (False, True):
            got = written(emit_report, state, 0, fmt, full)
            _assert_same(got, reference_emit_report(state, 0, fmt, full), (fmt, full))


def test_pair_rows_over_one_name_are_gathered_from_row_vectors(monkeypatch):
    # every pair row with one name on either side is an entry of a group's
    # row vector, gathered, not formatted on its own: ``_pair`` joins only
    # rows over two groups of two or more names, and ``_miss``, the one
    # sort, formats only triple rows (c, l, r)
    missed, paired, renders = [], [], []
    miss, pair, init = _Render._miss, _Render._pair, _Render.__init__
    monkeypatch.setattr(_Render, "_miss", lambda render, memo, key, rows: missed.append(key) or miss(render, memo, key, rows))
    monkeypatch.setattr(
        _Render,
        "_pair",
        lambda render, memo, key, left, right: paired.append((len(left), len(right))) or pair(render, memo, key, left, right),
    )
    monkeypatch.setattr(_Render, "__init__", lambda render, *args: renders.append(render) or init(render, *args))
    universe, graph = parse_program(workloads.build("analyze-wide", 3)[0].program.text())
    result = solve(graph, universe)
    for fmt in FORMATS:
        for full in (False, True):
            missed.clear()
            paired.clear()
            renders.clear()
            written(emit_report, result.state, result.iterations, fmt, full)
            assert paired and min(map(min, paired)) >= 2, (fmt, full)
            assert missed and all(len(key) == 3 and min(key) >= 0 for key in missed), (fmt, full)
            (render,) = renders
            ((names, _, _, vectors, _, bases),) = render.universes.values()
            gathered = {id(row) for _, vector in vectors.values() for row in vector}
            shapes = set()
            for atoms, (groups, rows) in bases.items():
                by_least = {row[0]: row for row in rows}
                shown = [groups[c][1] for c in set(atoms[: len(names)])]
                for left in shown:
                    for right in shown:
                        if 1 in (len(left), len(right)) and len(left) * len(right) >= render.least:
                            row = by_least[f"{left[0]}+{right[0]}"]
                            assert id(row) in gathered, (fmt, full, row)
                            shapes.add((len(left) > 1, len(right) > 1))
            # gathered rows over one name on the right, on the left, and
            # with ``full`` on both sides
            assert shapes == ({(True, False), (False, True)} | ({(False, False)} if full else set())), (fmt, full)


def test_nodes_sharing_a_value_render_it_identically():
    universe, graph = load_program("diamond.dfg")
    state = solve(graph, universe).state
    shared = (state[4],) * 3 + (TOP,) + (state[4],)
    for fmt in ("text", "json"):
        for full in (False, True):
            got = written(emit_report, shared, 0, fmt, full, [shared, shared])
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
            written(emit_report, result.state, result.iterations, fmt, full, iterates)
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
            report = written(emit_report, result.state, result.iterations, fmt)
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
    # and many extend another by one to three characters, as "v10" and
    # "v1_" extend "v1"
    names.update(name + "".join(rng.choices(first + string.digits, k=rng.randrange(1, 4))) for name in sorted(names)[::4])
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
        _assert_same(written(emit_report, state, 0, "json", full), reference_emit_report(state, 0, "json", full), full)
    # pair rows are joined in their groups' order with no sort, which must
    # hold for names that prefix one another: 40 of them, each a prefix of
    # the next or extending the one before it
    chained = {name for pair in zip(names, names[1:]) if pair[1].startswith(pair[0]) for name in pair}
    chosen = sorted(chained)[:40]
    assert len(chosen) == 40
    assert sum(b.startswith(a) for a, b in zip(chosen, chosen[1:])) >= 20
    universe = build_universe(chosen, [])
    state = tuple(rand_partition(universe, rng, steps=rng.randrange(2, 30)) for _ in range(40))
    for fmt in FORMATS:
        for full in (False, True):
            got = written(emit_report, state, 0, fmt, full)
            _assert_same(got, reference_emit_report(state, 0, fmt, full), (fmt, full))


def test_emit_report_rejects_an_unknown_format():
    universe, graph = load_program("diamond.dfg")
    result = solve(graph, universe)
    with pytest.raises(ValueError, match="unknown report format 'JSON'"):
        written(emit_report, result.state, result.iterations, "JSON")


def test_render_points_rejects_an_unknown_format():
    universe, graph = load_program("diamond.dfg")
    with pytest.raises(ValueError, match="unknown report format 'yaml'"):
        written(render_points, {"solver": "jacobi"}, solve(graph, universe).state, "yaml")


def test_render_verify_rejects_an_unknown_format():
    universe, graph = load_program("diamond.dfg")
    report = verify_mop_mfp(graph, universe, 4)
    assert report.ok
    with pytest.raises(ValueError, match="unknown report format 'xml'"):
        written(render_verify, report, "xml")


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
    want = written(render_verify, verify_mop_mfp(graph, universe, 200_000))
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


class _Pieces(io.TextIOBase):
    """A text stream that keeps each piece written to it; ``writelines``
    writes its items one by one through ``write``."""

    def __init__(self) -> None:
        self.pieces: list[str] = []

    def write(self, text: str) -> int:
        self.pieces.append(text)
        return len(text)


@pytest.mark.parametrize("fmt", FORMATS)
def test_a_traced_report_is_written_one_point_or_iterate_at_a_time(fmt):
    # one piece per point of the state and one per iterate, that iterate's
    # points joined: no piece holds two points of the state, nor more than
    # one iterate
    universe, graph = parse_program(chain_program_text(2, 40, 4))
    result = solve(graph, universe, trace=True)
    assert len(result.trace) > 2
    out = _Pieces()
    emit_report(out, result.state, result.iterations, fmt, False, result.trace)
    want = reference_emit_report(result.state, result.iterations, fmt, False, result.trace)
    _assert_same("".join(out.pieces), want, fmt)
    point, iterate = ("node ", "iterate ") if fmt == "text" else ('"id"', '"iteration"')
    start = next(i for i, piece in enumerate(out.pieces) if iterate in piece or '"trace"' in piece)
    assert [piece.count(point) for piece in out.pieces[:start] if point in piece] == [1] * graph.n
    for piece in out.pieces[start:]:
        assert piece.count(iterate) <= 1 and piece.count(point) <= graph.n, piece[:80]
    assert sum(iterate in piece for piece in out.pieces) == len(result.trace)


def test_an_unknown_format_raises_before_the_first_piece():
    universe, graph = load_program("diamond.dfg")
    state = solve(graph, universe).state
    writers = [
        (emit_report, (state, 0, "yaml")),
        (render_points, ({"solver": "jacobi"}, state, "yaml")),
        (render_mop, (mop_table(graph, universe, 4), 4, "yaml")),
        (render_verify, (verify_mop_mfp(graph, universe, 4), "yaml")),
    ]
    for writer, args in writers:
        out = _Pieces()
        with pytest.raises(ValueError, match="unknown report format 'yaml'"):
            writer(out, *args)
        assert out.pieces == [], writer.__name__


def _child_env() -> dict[str, str]:
    """The environment of a child Python with this checkout's ``src`` on its
    path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def test_a_reader_that_closes_early_gives_one_io_error(tmp_path):
    # each report is far larger than a pipe's buffer, so the writer is still
    # writing when its reader closes after 100 bytes; mop lists every class,
    # since the plain mop report of this chain (60 KB) fits in the buffer
    path = tmp_path / "chain.dfg"
    path.write_text(chain_program_text(1, 500, 4))
    for argv in (["analyze", path, "--trace"], ["mop", path, "--max-len", "1000000", "--full"],
                 ["verify", path, "--max-len", "1000000"]):
        child = subprocess.Popen(
            [sys.executable, "-m", "herbrand.cli", *map(str, argv)],
            env=_child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        assert len(child.stdout.read(100)) == 100
        child.stdout.close()
        _, err = child.communicate(timeout=60)
        assert (child.returncode, err) == (2, b"error[E_IO]: [Errno 32] Broken pipe\n"), argv


def test_a_closed_stdout_gives_one_io_error(capsys, monkeypatch):
    # with file descriptor 1 closed at start, Python sets ``sys.stdout`` to
    # None: every subcommand writes one line to stderr and exits 2
    program = str(PROGRAMS_DIR / "diamond.dfg")
    monkeypatch.setattr(sys, "stdout", None)
    assert main(["check", program]) == 2
    assert capsys.readouterr().err == "error[E_IO]: standard output is closed\n"
    for command in ("analyze", "mop", "verify", "check"):
        done = subprocess.run(
            ["sh", "-c", '"$0" -m herbrand.cli "$@" >&-', sys.executable, command, program],
            env=_child_env(), capture_output=True, timeout=60,
        )
        assert (done.returncode, done.stderr) == (2, b"error[E_IO]: standard output is closed\n"), command


# Peak RSS in KiB (on Linux) of ``herbrand ARGS`` with its stdout sent to
# /dev/null. Linux keeps a process's high-water mark across ``exec``, so a
# child of the test process would read that process's peak in its own
# RUSAGE_SELF; this fresh wrapper is small, and its RUSAGE_CHILDREN holds
# only the one child it runs.
_PEAK_RSS = """\
import resource, subprocess, sys
done = subprocess.run([sys.executable, "-m", "herbrand.cli", *sys.argv[1:]], stdout=subprocess.DEVNULL)
print(done.returncode, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


@pytest.mark.parametrize(
    "nodes, atoms, joins, flags, bound_mib",
    [
        # a 3-variable chain prints 500 iterates of 500 points (18 MB); the
        # whole report string peaked at 84 MiB
        (500, 4, 0.0, ["--trace"], 40),
        # a 50-atom program's JSON report is 33 MB; as one string it peaked
        # at 229 MiB
        (2000, 50, 0.1, ["--format", "json"], 120),
        # a 200-atom program's JSON report peaks near 140 MiB while each
        # group's row vector is shared by every labels tuple; with the rows
        # rebuilt for each labels tuple it peaked at 261 MiB
        (1000, 200, 0.1, ["--format", "json"], 200),
    ],
)
def test_analyze_writes_its_report_in_memory_below_a_bound(tmp_path, nodes, atoms, joins, flags, bound_mib):
    path = tmp_path / "program.dfg"
    path.write_text(chain_program_text(1, nodes, atoms, joins))
    done = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS, "analyze", str(path), *flags],
        env=_child_env(), capture_output=True, text=True, timeout=120,
    )
    code, peak_kib = map(int, done.stdout.split())
    assert (done.returncode, code, done.stderr) == (0, 0, "")
    assert peak_kib < bound_mib * 1024, peak_kib / 1024


def test_verify_json_past_both_tables_ends_takes_no_time_per_length():
    # both tables of straight_line.dfg stop after a few rows and agree, so
    # no length past them is listed and the JSON report is the same few
    # lines at any bound; the mismatch tail once walked every length up to it
    done = subprocess.run(
        [sys.executable, "-m", "herbrand.cli", "verify", "programs/straight_line.dfg",
         "--max-len", "1000000000000", "--format", "json"],
        cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert '"checks": 3000000000003' in done.stdout
    assert json.loads(done.stdout) == {
        "solver": "verify", "max_len": 10**12, "nodes": 3, "checks": 3 * 10**12 + 3, "stabilized": True,
        "iterate_mismatches": [], "fixpoint_mismatches": [], "ok": True,
    }


def test_verify_and_head_json_are_the_bytes_of_json_dumps():
    # the JSON writers are hand-written; each must give the bytes of
    # ``json.dumps(indent=2)``, for every shape of a verify report
    universe, graph = load_program("diamond.dfg")
    reports = [
        verify_mop_mfp(graph, universe, 12),
        VerifyReport(5, 3, False, 20, [(2, 1)]),
        VerifyReport(7, 40, True, 287, [(k, l) for l in range(3, 41) for k in (1, 4, 6)], [4, 6]),
        VerifyReport(2, 0, True, 2, [], [1, 2]),
    ]
    assert reports[0].ok and not any(report.ok for report in reports[1:])
    for report in reports:
        fields = {
            "solver": "verify",
            "max_len": report.max_len,
            "nodes": report.node_count,
            "checks": report.checks,
            "stabilized": report.stabilized,
            "iterate_mismatches": report.iterate_mismatches,
            "fixpoint_mismatches": report.fixpoint_mismatches,
            "ok": report.ok,
        }
        assert written(render_verify, report, "json") == json.dumps(fields, indent=2) + "\n", report
    # the head fields of analyze and mop reports, over no points
    heads = [
        {"solver": "jacobi", "iterations": 0},
        {"solver": "mop", "max_len": 10**12, "stabilized": True},
        {"solver": "mop", "max_len": 3, "stabilized": False},
    ]
    for head in heads:
        assert written(render_points, head, (), "json") == json.dumps({**head, "points": []}, indent=2) + "\n"


def test_cli_formats_are_the_report_formats():
    assert FORMATS == ("text", "json")
    (commands,) = [action for action in build_parser()._actions if action.dest == "command"]
    for name in ("analyze", "mop", "verify"):
        (option,) = [action for action in commands.choices[name]._actions if action.dest == "format"]
        assert option.choices is FORMATS
    # each subcommand's arguments, in help order: option strings, default
    # and help as printed
    fmt = (["--format"], "text", None)
    max_len = (["--max-len"], 12, "path length bound (default 12)")
    path_cap = (["--path-cap"], 10**6, "abort if one length level exceeds this many paths")
    full = (["--full"], False, "show singleton and reserved classes")
    program = ([], None, "path to a .dfg program")
    expected = {
        "analyze": [program, fmt, full, (["--trace"], False, "include every iterate")],
        "mop": [program, fmt, max_len, path_cap, full],
        "verify": [program, fmt, max_len, path_cap],
        "check": [program],
    }
    assert list(commands.choices) == list(expected)
    for name, arguments in expected.items():
        parser = commands.choices[name]
        actions = parser._actions
        shown = [a.help and parser._get_formatter()._expand_help(a) for a in actions[1:]]
        assert actions[0].option_strings == ["-h", "--help"]
        assert [(a.option_strings, a.default) for a in actions[1:]] == [arg[:2] for arg in arguments], name
        assert shown == [arg[2] for arg in arguments], name
        assert actions[1].dest == "program"
