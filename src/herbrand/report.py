"""Deterministic text and JSON rendering of per-node results.

Class labels are internal, so reports list classes as sorted term strings,
sorted again across classes; re-running an analysis reproduces the output
byte for byte. By default singleton classes and terms mentioning a reserved
constant are hidden; ``full=True`` shows everything. Filtering affects
visibility only, never membership.

One ``_Render`` serves one render call, in one format, and keeps nothing
after it:

* per universe, the visible names (all atoms with ``full``; otherwise those
  below the reserved constants), the interned atom groups, one row memo and,
  per distinct labels tuple (``Partition.atoms``), that tuple's groups and
  rows. The labels alone fix which atoms share a class, so ``_base`` works
  once per labels tuple, however many values share it: it groups the
  visible atoms by representative label, interns each distinct group once
  per render as its id and sorted names, and lists, sorted, each atom class
  alone and each pair of operand groups as a class of pairs only, the rows
  of a value with those labels and no definition. ``rows`` lists a value's
  classes from them: a copy of that list less the rows its definition
  triples own (a triple's atom class and its operand pair), plus one row per
  triple, the class's atoms and the pairs over its operand groups, sorted
  again. The memo is keyed by a row's group ids and holds its least member
  and its text. A miss formats only that row's members (the atoms of group
  c and ``a+b`` over groups l × r) and sorts them, so no table of the m²
  pair names is built, and a row that recurs across the values of a report
  is formatted once. A value's rows sort by their least members, since
  classes are disjoint, and those members tell its rows apart;
* one entry memo keyed by depth and value. A point's entry is what follows
  ``node k: `` in text and the ``"id"`` field in JSON. Each distinct value's
  top-level entry is rendered once from its class rows, and a ``--trace``
  iterate's entry is that text indented one level deeper, so a value's
  classes are listed once per report however many points share it;
* one points writer for both formats. JSON has the layout of
  ``json.dumps(indent=2)`` but is written directly. A JSON row is its
  member names quoted and joined, unescaped: ``build_universe`` admits only
  ``IDENT_RE`` names besides ``$nd1`` and ``$nd2``, and JSON escapes none
  of them. Each universe's visible names are checked once against
  ``encode_basestring_ascii``, and a name that would need an escape raises
  ``ValueError``.

This module is the only one that knows how a report looks: every
subcommand's report, ``verify``'s and ``check``'s included, is rendered
here, and ``FORMATS`` lists the formats. Any other ``fmt`` raises
``ValueError``.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Iterable, Iterator

from .congruence import LatticeElem, Partition, is_top
from .dataflow import FlowGraph
from .mop import VerifyReport, stabilized
from .terms import TermUniverse

FORMATS = ("text", "json")


def _is_json(fmt: str) -> bool:
    if fmt not in FORMATS:
        raise ValueError(f"unknown report format {fmt!r}, expected one of {FORMATS}")
    return fmt == "json"


def _json_array(items: list[str], indent: str) -> str:
    """A JSON array of rendered items, closed at ``indent``."""
    if not items:
        return "[]"
    inner = "\n" + indent + "  "
    return "[" + inner + ("," + inner).join(items) + "\n" + indent + "]"


# a class row: its least member, its text in the render's format and its
# sorted members
_Row = tuple[str, str, list[str]]
# an interned atom group: its id in the render and its sorted visible names
_Group = tuple[int, list[str]]
# one labels tuple's groups, keyed by representative, and the sorted rows of
# a value with those labels and no definition
_Base = tuple[dict[int, _Group], list[_Row]]
# one universe's visible names, interned groups, row memo and labels' bases
_Known = tuple[list[str], dict[tuple[int, ...], _Group], dict[tuple, _Row], dict[tuple[int, ...], _Base]]


class _Render:
    """One render call: per universe its visible names, interned atom groups,
    row memo and labels' bases, and each value's entry."""

    def __init__(self, fmt: str, full: bool) -> None:
        self.json = _is_json(fmt)
        self.full = full
        # a trace iterate's points sit one level deeper than the state's
        self.step = "    " if self.json else "  "
        # a class row's text: its sorted members, joined and wrapped
        self.row = ('[\n          "', '",\n          "', '"\n        ]') if self.json else ("\n  [", ", ", "]")
        # a shown class has at least this many visible members
        self.least = 1 if full else 2
        self.universes: dict[TermUniverse, _Known] = {}
        self.entries: dict[tuple[bool, LatticeElem], str] = {}

    def rows(self, elem: LatticeElem) -> list[_Row] | None:
        """The shown class rows of ``elem``, sorted, in a new list; ``None``
        for ``TOP``."""
        if is_top(elem):
            return None
        assert isinstance(elem, Partition)
        known = self.universes.get(elem.universe)
        if known is None:
            names = [atom.name for atom in elem.universe.atoms]
            if not self.full:
                names = names[: len(names) - len(elem.universe.reserved)]
            for name in names if self.json else ():
                if encode_basestring_ascii(name) != f'"{name}"':
                    raise ValueError(f"atom name {name!r} needs a JSON escape")
            known = self.universes[elem.universe] = (names, {(): (0, [])}, {}, {})
        names, ids, memo, bases = known
        base = bases.get(elem.atoms)
        if base is None:
            base = bases[elem.atoms] = self._base(elem.atoms, names, ids, memo)
        groups, shown = base
        if not elem.defs:
            return shown[:]
        # a class with no visible atom has the empty group
        empty = ids[()]
        least = self.least
        # each triple (c, l, r) owns atom class c and the operand pair (l, r):
        # it drops their rows from the labels' rows and adds its own
        dropped, rows = set(), []
        for c, lc, rc in elem.defs:
            (c, own), (l, left), (r, right) = groups.get(c, empty), groups.get(lc, empty), groups.get(rc, empty)
            if len(own) >= least:
                dropped.add(memo[c, -1, -1][0])
            pairs = len(left) * len(right)
            if pairs >= least:
                dropped.add(memo[l, r][0])
            if len(own) + pairs >= least:
                key = (c, l, r)
                rows.append(memo.get(key) or self._miss(memo, key, [f"{a}+{b}" for a in left for b in right] + own))
        # classes are disjoint, so rows sort by their least members
        rows += [row for row in shown if row[0] not in dropped]
        rows.sort(key=itemgetter(0))
        return rows

    def _base(
        self, atoms: tuple[int, ...], names: list[str], ids: dict[tuple[int, ...], _Group], memo: dict[tuple, _Row]
    ) -> _Base:
        """The interned atom groups of one labels tuple, keyed by
        representative, and the sorted rows of a value with those labels
        and no definition: each atom class alone, and each operand class
        pair as a class of pairs only."""
        # each shown class's visible atoms, interned as (id, sorted names) and
        # keyed by its representative, in ascending order; a visible atom's
        # representative is at most its own index, so is visible too
        indices: list[list[int]] = [[] for _ in names]
        for i, c in zip(range(len(names)), atoms):
            indices[c].append(i)
        groups: dict[int, _Group] = {}
        for c in dict.fromkeys(atoms[: len(names)]):
            group = tuple(indices[c])
            interned = ids.get(group)
            if interned is None:
                interned = ids[group] = (len(ids), sorted([names[i] for i in group]))
            groups[c] = interned
        # a class of pairs over (l, r) has |l| * |r| members, so below
        # ``least`` a one-atom l needs an r of two or more
        least = self.least
        shared = [group for group in groups.values() if len(group[1]) > 1]
        rows = []
        for l, left in groups.values():
            if len(left) >= least:
                key = (l, -1, -1)
                rows.append(memo.get(key) or self._miss(memo, key, left[:]))
            for r, right in groups.values() if len(left) >= least else shared:
                key = (l, r)
                rows.append(memo.get(key) or self._miss(memo, key, [f"{a}+{b}" for a in left for b in right]))
        rows.sort(key=itemgetter(0))
        return groups, rows

    def _miss(self, memo: dict[tuple, _Row], key: tuple, members: list[str]) -> _Row:
        """Format and keep a row not yet in ``memo``, from its members."""
        members.sort()
        head, sep, tail = self.row
        row = memo[key] = (members[0], head + sep.join(members) + tail, members)
        return row

    def entry(self, elem: LatticeElem, deep: bool) -> str:
        entry = self.entries.get((deep, elem))
        if entry is None:
            if deep:
                entry = self.entry(elem, False).replace("\n", "\n" + self.step)
            else:
                rows = self.rows(elem)
                if not self.json:
                    entry = "top" if rows is None else "partition" + "".join(row[1] for row in rows)
                elif rows is None:
                    entry = '\n      "status": "top"\n    }'
                else:
                    classes = _json_array([row[1] for row in rows], "      ")
                    entry = f'\n      "status": "partition",\n      "classes": {classes}\n    }}'
            self.entries[deep, elem] = entry
        return entry

    def points(self, state: Iterable[LatticeElem], deep: bool = False) -> list[str]:
        """One item per point of ``state``, a trace iterate's when ``deep``:
        a text line or a JSON object."""
        pad = self.step if deep else ""
        head = '{{\n{}      "id": {},' if self.json else "{}node {}: "
        return [head.format(pad, k) + self.entry(e, deep) for k, e in enumerate(state, start=1)]


def render_json(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def render_points(
    head: dict,
    state: Iterable[LatticeElem],
    fmt: str = "text",
    full: bool = False,
    trace: list[tuple[LatticeElem, ...]] | None = None,
) -> str:
    """A report: the ``head`` fields, the points of ``state``, then ``trace``.

    ``head`` maps field names to strings, integers or booleans; text shows a
    boolean as ``yes`` or ``no``.
    """
    render = _Render(fmt, full)
    if render.json:
        fields = [f"  {json.dumps(key)}: {json.dumps(value)}" for key, value in head.items()]
        fields.append(f'  "points": {_json_array(render.points(state), "  ")}')
        if trace is not None:
            arrays = (_json_array(render.points(row, True), "      ") for row in trace)
            iterates = [
                f'{{\n      "iteration": {l},\n      "points": {points}\n    }}' for l, points in enumerate(arrays)
            ]
            fields.append(f'  "trace": {_json_array(iterates, "  ")}')
        return "{\n" + ",\n".join(fields) + "\n}\n"
    lines = [
        f"{key}: {'yes' if value is True else 'no' if value is False else value}"
        for key, value in head.items()
    ]
    lines += render.points(state)
    if trace is not None:
        for l, row in enumerate(trace):
            lines.append(f"iterate {l}:")
            lines += render.points(row, True)
    return "\n".join(lines) + "\n"


def emit_report(
    state: Iterable[LatticeElem],
    iterations: int,
    fmt: str = "text",
    full: bool = False,
    trace: list[tuple[LatticeElem, ...]] | None = None,
) -> str:
    """Render an analysis state; ``fmt`` is one of ``FORMATS``."""
    return render_points({"solver": "jacobi", "iterations": iterations}, state, fmt, full, trace)


def render_mop(rows: list[tuple[LatticeElem, ...]], max_len: int, fmt: str = "text", full: bool = False) -> str:
    """Render the last row of a ``mop_table`` bounded by ``max_len``."""
    return render_points({"solver": "mop", "max_len": max_len, "stabilized": stabilized(rows)}, rows[-1], fmt, full)


def verify_lines(report: VerifyReport, fmt: str = "text") -> Iterator[str]:
    """A ``verify_mop_mfp`` report in pieces. Text comes one line at a time,
    so a report of any length is written without being held whole: one line
    per length, the nodes that mismatch at it sorted, then the fixpoint
    check and the verdict. JSON is one piece. An unknown ``fmt`` raises
    here, before the first piece."""
    if not _is_json(fmt):
        return _verify_text(report)
    fields = {
        "solver": "verify",
        "max_len": report.max_len,
        "nodes": report.node_count,
        "checks": report.checks,
        "stabilized": report.stabilized,
        "iterate_mismatches": [list(m) for m in report.iterate_mismatches],
        "fixpoint_mismatches": report.fixpoint_mismatches,
        "ok": report.ok,
    }
    return iter([render_json(fields)])


def _verify_text(report: VerifyReport) -> Iterator[str]:
    bad: dict[int, list[int]] = {}
    for k, l in report.iterate_mismatches:
        bad.setdefault(l, []).append(k)
    ok = f"ok ({report.node_count} nodes)\n"
    for l in range(report.max_len + 1):
        yield f"length {l}: MISMATCH at nodes {sorted(bad[l])}\n" if l in bad else f"length {l}: {ok}"
    yield f"stabilized within bound: {'yes' if report.stabilized else 'no'}\n"
    if report.stabilized:
        fixpoint = report.fixpoint_mismatches
        yield f"path meet vs fixpoint: {f'MISMATCH at nodes {fixpoint}' if fixpoint else 'ok'}\n"
    yield "ok\n" if report.ok else "FAILED\n"


def render_check(universe: TermUniverse, graph: FlowGraph) -> str:
    """The one-line summary of a program that parsed and validated."""
    return (
        f"ok: {graph.n} nodes, {len(universe.variables)} vars, "
        f"{len(universe.constants)} consts, {len(universe)} universe terms\n"
    )
