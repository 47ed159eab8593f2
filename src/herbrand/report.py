"""Deterministic text and JSON rendering of per-node results.

Class labels are internal, so reports list classes as sorted term strings,
sorted again across classes; re-running an analysis reproduces the output
byte for byte. Every atom name obeys ``TermUniverse``'s name rule: an
``IDENT_RE`` name or one of the two ``RESERVED_NAMES``. By default
singleton classes and terms mentioning a reserved constant are hidden;
``full=True`` shows everything. Filtering affects visibility only, never
membership.

One ``_Render`` serves one render call, in one format, and keeps nothing
after it:

* per universe, the visible names (all atoms with ``full``; otherwise those
  below the reserved constants), the interned atom groups, one row memo
  and, per distinct labels tuple (``Partition.atoms``), that tuple's groups and rows.
  Each visible atom's one-atom group is interned once, with the universe.
  The labels alone fix which atoms share a class, so ``_base`` works once
  per labels tuple, however many values share it: it starts each class as
  its representative's one-atom group, walks only the atoms that are not a
  representative, interns each larger group once per render as its id and
  sorted names, and lists, sorted, each atom class alone and each pair of
  operand groups as a class of pairs only, the rows of a value with those
  labels and no definition. A value's rows sort by their least members,
  since classes are disjoint, and those members tell its rows apart, so
  ``rows`` edits a copy of that list by bisection: it deletes the rows its
  definition triples own (a triple's atom class and its operand pair) and
  inserts one row per triple, the class's atoms and the pairs over its
  operand groups. The memo is keyed by a row's group ids and holds its
  least member and its text. A miss formats only that row's members, so no
  table of the m² pair names is built, and a row that recurs across the
  values of a report is formatted once. A pair row over groups l × r is one
  join with no sort: its members ``a+b``, for each name ``a`` of l and then
  each name ``b`` of r, are in order, since both groups are sorted and
  every character after a name's first sorts above ``+``. An atom class's
  row is its group's sorted names. Only a triple row, which merges a
  class's atoms with its pairs, is sorted after its members are formatted;
* one entry memo keyed by value. A point's entry is what follows
  ``node k: `` in text and the ``"id"`` field in JSON. Each distinct value's
  entry is rendered once from its class rows, so a value's classes are
  listed once per report however many points share it. A ``--trace``
  iterate is its points, joined and indented one level deeper as one text;
* one points writer for both formats. JSON has the layout of
  ``json.dumps(indent=2)`` but is written directly. A JSON row is its
  member names quoted and joined, unescaped: JSON escapes no character
  that the name rule admits.

This module is the only one that knows how a report looks: every
subcommand's report, ``verify``'s and ``check``'s included, is rendered
here, and ``FORMATS`` lists the formats. Every report is written, not
returned: each writer (``render_points``, ``emit_report``, ``render_mop``,
``render_verify`` and ``render_check``) takes the output stream ``out``
first, writes to it and returns nothing. It writes one piece per point of
the state, one per ``--trace`` iterate and one per ``verify`` text line,
so no report is held whole: a render keeps only its memos, the rows and
each distinct value's entry. Any other ``fmt`` raises ``ValueError``
before the first piece.
"""

from __future__ import annotations

import json
from bisect import bisect_left, insort
from itertools import chain, compress
from operator import itemgetter, ne
from typing import Iterable, TextIO

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


def _write_array(out: TextIO, items: Iterable[str]) -> None:
    """Write a top-level JSON array of rendered items to ``out``, one piece
    per item."""
    sep = "[\n    "
    for item in items:
        out.write(sep + item)
        sep = ",\n    "
    out.write("\n  ]" if sep[0] == "," else "[]")


# one value per node, by node
_State = tuple[LatticeElem, ...]
# a class row: its least member and its text in the render's format
_Row = tuple[str, str]
# an interned atom group: its id in the render and its sorted visible names
_Group = tuple[int, list[str]]
# one labels tuple's groups, keyed by representative, and the sorted rows of
# a value with those labels and no definition
_Base = tuple[dict[int, _Group], list[_Row]]
# one universe's visible names, their interned groups (each visible atom's
# one-atom group among them), row memo and labels' bases
_Known = tuple[list[str], dict[tuple[int, ...], _Group], dict[tuple, _Row], dict[tuple[int, ...], _Base]]


class _Render:
    """One render call: per universe its visible names, interned atom groups,
    row memo and labels' bases, and each value's entry."""

    def __init__(self, fmt: str, full: bool) -> None:
        self.json = _is_json(fmt)
        self.full = full
        # a class row's text: its sorted members, joined and wrapped
        self.row = ('[\n          "', '",\n          "', '"\n        ]') if self.json else ("\n  [", ", ", "]")
        # a shown class has at least this many visible members
        self.least = 1 if full else 2
        self.universes: dict[TermUniverse, _Known] = {}
        self.entries: dict[LatticeElem, str] = {}

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
            # the empty group, then each visible atom alone
            ids = {(): (0, [])}
            ids.update(((i,), (i + 1, [name])) for i, name in enumerate(names))
            known = self.universes[elem.universe] = (names, ids, {}, {})
        names, ids, memo, bases = known
        base = bases.get(elem.atoms)
        if base is None:
            base = bases[elem.atoms] = self._base(elem.atoms, names, ids, memo)
        groups, shown = base
        rows = shown[:]
        # a class with no visible atom has the empty group
        empty = ids[()]
        least = self.least
        # each triple (c, l, r) owns atom class c and the operand pair (l, r):
        # it swaps their rows for its own; classes are disjoint, so rows sort
        # by their least members, and a row is found by its least member
        for c, lc, rc in elem.defs:
            (c, own), (l, left), (r, right) = groups.get(c, empty), groups.get(lc, empty), groups.get(rc, empty)
            if len(own) >= least:
                del rows[bisect_left(rows, (memo[c, -1, -1][0],))]
            pairs = len(left) * len(right)
            if pairs >= least:
                del rows[bisect_left(rows, (memo[l, r][0],))]
            if len(own) + pairs >= least:
                key = (c, l, r)
                insort(rows, memo.get(key) or self._miss(memo, key, [f"{a}+{b}" for a in left for b in right] + own))
        return rows

    def _base(
        self,
        atoms: tuple[int, ...],
        names: list[str],
        ids: dict[tuple[int, ...], _Group],
        memo: dict[tuple, _Row],
    ) -> _Base:
        """The interned atom groups of one labels tuple, keyed by
        representative, and the sorted rows of a value with those labels
        and no definition: each atom class alone, and each operand class
        pair as a class of pairs only."""
        # each shown class's visible atoms, interned as (id, sorted names) and
        # keyed by its representative, in ascending order; a visible atom's
        # representative is at most its own index, so is visible too. Each
        # class starts as its representative's one-atom group, and only the
        # atoms that are not a representative join their class's group
        k = len(names)
        groups = {c: ids[c,] for c in dict.fromkeys(atoms[:k])}
        merged: dict[int, list[int]] = {}
        for i in compress(range(k), map(ne, atoms, range(k))):
            merged.setdefault(atoms[i], [atoms[i]]).append(i)
        for c, group in merged.items():
            key = tuple(group)
            interned = ids.get(key)
            if interned is None:
                interned = ids[key] = (len(ids), sorted([names[i] for i in group]))
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
                rows.append(memo.get(key) or self._pair(memo, key, left, right))
        rows.sort(key=itemgetter(0))
        return groups, rows

    def _pair(self, memo: dict[tuple, _Row], key: tuple, left: list[str], right: list[str]) -> _Row:
        """Format and keep the row of the pairs over two groups: "a+b" for
        each name a of the left group and then each name b of the right
        group, joined with no sort. Both groups are sorted, and under
        ``TermUniverse``'s name rule every character after a name's first
        sorts above "+", so ``a+b`` < ``a'+b'`` whenever ``a`` < ``a'``: the
        members are already in order. Over one right name b, or one left
        name a, the row is one join of the other group's names."""
        head, sep, tail = self.row
        if len(right) == 1:
            b = "+" + right[0]
            members = (b + sep).join(left) + b
        elif len(left) == 1:
            a = left[0] + "+"
            members = a + (sep + a).join(right)
        else:
            members = sep.join([a + "+" + (sep + a + "+").join(right) for a in left])
        row = memo[key] = (f"{left[0]}+{right[0]}", head + members + tail)
        return row

    def _miss(self, memo: dict[tuple, _Row], key: tuple, members: list[str]) -> _Row:
        """Format and keep a row not yet in ``memo``, from its members."""
        members.sort()
        head, sep, tail = self.row
        row = memo[key] = (members[0], head + sep.join(members) + tail)
        return row

    def entry(self, elem: LatticeElem) -> str:
        entry = self.entries.get(elem)
        if entry is None:
            rows = self.rows(elem)
            if not self.json:
                entry = "top" if rows is None else "partition" + "".join(row[1] for row in rows)
            elif rows is None:
                entry = '\n      "status": "top"\n    }'
            else:
                classes = _json_array([row[1] for row in rows], "      ")
                entry = f'\n      "status": "partition",\n      "classes": {classes}\n    }}'
            self.entries[elem] = entry
        return entry

    def point(self, k: int, elem: LatticeElem) -> str:
        """Point ``k``: a text line or a JSON object."""
        return f'{{\n      "id": {k},{self.entry(elem)}' if self.json else f"node {k}: {self.entry(elem)}\n"

    def iterate(self, l: int, row: _State) -> str:
        """Iterate ``l`` of a trace: its points joined and indented one
        level deeper, past each newline."""
        points = [self.point(k, e) for k, e in enumerate(row, start=1)]
        if self.json:
            points = _json_array(points, "  ").replace("\n", "\n    ")
            return f'{{\n      "iteration": {l},\n      "points": {points}\n    }}'
        # each point ends in a newline: indent after every newline but that last one
        return f"iterate {l}:" + ("\n" + "".join(points))[:-1].replace("\n", "\n  ") + "\n"


def render_points(
    out: TextIO,
    head: dict,
    state: Iterable[LatticeElem],
    fmt: str = "text",
    full: bool = False,
    trace: list[_State] | None = None,
) -> None:
    """Write a report to ``out``: the ``head`` fields, then the points of
    ``state``, one piece each, then the iterates of ``trace``, one piece
    each.

    ``head`` maps field names to strings, integers or booleans; text shows a
    boolean as ``yes`` or ``no``.
    """
    render = _Render(fmt, full)
    points = (render.point(k, e) for k, e in enumerate(state, start=1))
    iterates = (render.iterate(l, row) for l, row in enumerate(trace or ()))
    if not render.json:
        for key, value in head.items():
            out.write(f"{key}: {'yes' if value is True else 'no' if value is False else value}\n")
        out.writelines(chain(points, iterates))
        return
    fields = "".join(f"  {json.dumps(key)}: {json.dumps(value)},\n" for key, value in head.items())
    out.write("{\n" + fields + '  "points": ')
    _write_array(out, points)
    if trace is not None:
        out.write(',\n  "trace": ')
        _write_array(out, iterates)
    out.write("\n}\n")


def emit_report(
    out: TextIO,
    state: Iterable[LatticeElem],
    iterations: int,
    fmt: str = "text",
    full: bool = False,
    trace: list[_State] | None = None,
) -> None:
    """Write the report of an analysis state to ``out``; ``fmt`` is one of
    ``FORMATS``."""
    render_points(out, {"solver": "jacobi", "iterations": iterations}, state, fmt, full, trace)


def render_mop(out: TextIO, rows: list[_State], max_len: int, fmt: str = "text", full: bool = False) -> None:
    """Write the report of the last row of a ``mop_table`` bounded by
    ``max_len`` to ``out``."""
    render_points(out, {"solver": "mop", "max_len": max_len, "stabilized": stabilized(rows)}, rows[-1], fmt, full)


def render_verify(out: TextIO, report: VerifyReport, fmt: str = "text") -> None:
    """Write a ``verify_mop_mfp`` report to ``out``. Text is one piece per
    line: one line per length, the nodes that mismatch at it sorted, then
    the fixpoint check and the verdict. JSON is one piece."""
    if _is_json(fmt):
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
        out.write(json.dumps(fields, indent=2) + "\n")
        return
    bad: dict[int, list[int]] = {}
    for k, l in report.iterate_mismatches:
        bad.setdefault(l, []).append(k)
    ok = f"ok ({report.node_count} nodes)\n"
    for l in range(report.max_len + 1):
        out.write(f"length {l}: MISMATCH at nodes {sorted(bad[l])}\n" if l in bad else f"length {l}: {ok}")
    out.write(f"stabilized within bound: {'yes' if report.stabilized else 'no'}\n")
    if report.stabilized:
        fixpoint = report.fixpoint_mismatches
        out.write(f"path meet vs fixpoint: {f'MISMATCH at nodes {fixpoint}' if fixpoint else 'ok'}\n")
    out.write("ok\n" if report.ok else "FAILED\n")


def render_check(out: TextIO, universe: TermUniverse, graph: FlowGraph) -> None:
    """Write the one-line summary of a program that parsed and validated to
    ``out``."""
    counts = f"{len(universe.variables)} vars, {len(universe.constants)} consts, {len(universe)} universe terms"
    out.write(f"ok: {graph.n} nodes, {counts}\n")
