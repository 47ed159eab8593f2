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
  below the reserved constants), the interned atom groups, their row
  vectors, one memo of the other rows and, per distinct labels tuple
  (``Partition.atoms``), that tuple's groups and rows. Group 0 is the empty
  group and group i + 1 visible atom i alone. The labels alone fix which
  atoms share a class, so ``_base`` works once per labels tuple, however
  many values share it: it walks only the atoms that are not a
  representative, interns each group of two or more once per render as
  its id and sorted names, and lists, sorted, each atom class alone and
  each pair of operand groups as a class of pairs only, the rows of a
  value with those labels and no definition. A group's rows are formatted
  once per render, when it is first shown: its atom-class row, its sorted
  names joined, and its row vector, the pair rows ``group + b`` for each
  visible name b and then, for a group of two or more, ``a + group`` for
  each a. Each half of a vector is built in one C-level pass that fills a
  per-group template, and its rows are in order with no sort, since the
  group is sorted and every character after a name's first sorts above
  ``+``. A labels tuple gathers its rows over one-atom classes from the
  vectors with ``compress``, so every labels tuple that shows a group
  shares its rows, and only a shown group has a vector. A pair row over
  two groups of two or more is one join with no sort, kept in the memo by
  the groups' ids. Only a triple row, which merges a class's atoms with
  the pairs over its operand groups, is sorted after its members are
  formatted; the memo keeps it by its triple. A value's rows sort by
  their least members, since classes are disjoint, and those members tell
  its rows apart, so ``rows`` edits a copy of its labels' list by
  bisection: it deletes the rows its definition triples own (a triple's
  atom class and its operand pair) and inserts one triple row per triple;
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
here, and ``FORMATS`` lists the formats. Every JSON report, its head fields
and ``verify``'s whole report included, has the layout of
``json.dumps(indent=2)`` and is written directly, by ``_json_value`` and
``_json_array``: the module imports no ``json``. Every report is written, not
returned: each writer (``render_points``, ``emit_report``, ``render_mop``,
``render_verify`` and ``render_check``) takes the output stream ``out``
first, writes to it and returns nothing. It writes one piece per point of
the state, one per ``--trace`` iterate and one per ``verify`` text line,
so no report is held whole: a render keeps only its memos, the rows and
each distinct value's entry. Any other ``fmt`` raises ``ValueError``
before the first piece.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from itertools import chain, compress, repeat
from operator import add, eq, itemgetter, ne
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


def _json_value(value: object, indent: str) -> str:
    """A report field's value in JSON, as ``json.dumps(indent=2)`` writes it
    at ``indent``: a boolean, an integer, a solver name, which JSON escapes
    nothing of, or a list or tuple of them."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return f'"{value}"'
    if isinstance(value, (list, tuple)):
        return _json_array([_json_value(item, indent + "  ") for item in value], indent)
    return str(value)


def _json_fields(fields: dict) -> list[str]:
    """Each field as a member of a top-level JSON object, without its comma."""
    return [f'  "{key}": {_json_value(value, "  ")}' for key, value in fields.items()]


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
# one labels tuple's groups, by representative (each other atom has its
# one-atom group), and the sorted rows of a value with those labels and no
# definition
_Base = tuple[list[_Group], list[_Row]]
# an interned group's atom-class row and its row vector: its pair rows
# ``group + b`` for each visible name b, then, for a group of two or more,
# ``a + group`` for each a
_Vectors = tuple[_Row, list[_Row]]
# one universe's visible names, each atom's one-atom group (the empty group
# for a hidden atom), the interned groups of two or more names, the groups'
# row vectors by id, the memo of the other rows and the labels' bases
_Known = tuple[
    list[str],
    list[_Group],
    dict[tuple[int, ...], _Group],
    dict[int, _Vectors],
    dict[tuple, _Row],
    dict[tuple[int, ...], _Base],
]


class _Render:
    """One render call: per universe its visible names, interned atom groups,
    their row vectors, the row memo and labels' bases, and each value's
    entry."""

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
            hidden = 0 if self.full else len(elem.universe.reserved)
            names = names[: len(names) - hidden]
            # group 0 is the empty group, and group i + 1 visible atom i alone
            alone = [(i + 1, [name]) for i, name in enumerate(names)] + [(0, [])] * hidden
            known = self.universes[elem.universe] = (names, alone, {}, {}, {}, {})
        memo, bases = known[4:]
        base = bases.get(elem.atoms)
        if base is None:
            base = bases[elem.atoms] = self._base(elem.atoms, known)
        groups, shown = base
        rows = shown[:]
        least = self.least
        # each triple (c, l, r) owns atom class c and the operand pair (l, r):
        # it swaps their rows for its own; classes are disjoint, so rows sort
        # by their least members, and a row is found by its least member
        for c, lc, rc in elem.defs:
            (c, own), (l, left), (r, right) = groups[c], groups[lc], groups[rc]
            if len(own) >= least:
                del rows[bisect_left(rows, (own[0],))]
            pairs = len(left) * len(right)
            if pairs >= least:
                del rows[bisect_left(rows, (left[0] + "+" + right[0],))]
            if len(own) + pairs >= least:
                key = (c, l, r)
                insort(rows, memo.get(key) or self._miss(memo, key, [f"{a}+{b}" for a in left for b in right] + own))
        return rows

    def _base(self, atoms: tuple[int, ...], known: _Known) -> _Base:
        """The atom groups of one labels tuple, by representative, and the
        sorted rows of a value with those labels and no definition: each
        atom class alone, and each operand class pair as a class of pairs
        only."""
        names, alone, ids, vectors, memo, _ = known
        # each class with two or more visible atoms, interned as (id, sorted
        # names); a visible atom's representative is at most its own index,
        # so is visible too. Every other class keeps its representative's
        # one-atom group, so only the atoms that are not a representative
        # are walked
        k = len(names)
        merged: dict[int, list[int]] = {}
        for i in compress(range(k), map(ne, atoms, range(k))):
            merged.setdefault(atoms[i], [atoms[i]]).append(i)
        groups = alone[:]
        # whether each visible atom is a class alone: its index is its
        # place in both halves of a row vector
        single = list(map(eq, atoms, range(k)))
        shared = []
        for c, group in merged.items():
            key = tuple(group)
            interned = ids.get(key)
            if interned is None:
                interned = ids[key] = (k + 1 + len(ids), sorted([names[i] for i in group]))
            groups[c] = interned
            shared.append(interned)
            single[c] = False
        rows = []
        # a class of pairs over (l, r) has |l| * |r| members: over a group
        # of two or more it is shown, over two one-atom groups only with
        # ``full``, as is a one-atom class
        halves = single * 2
        for l, left in shared:
            row, vector = vectors.get(l) or self._vectors(vectors, l, left, names)
            rows.append(row)
            rows += compress(vector, halves)
            for r, right in shared:
                rows.append(memo.get((l, r)) or self._pair(memo, (l, r), left, right))
        if self.full:
            for c in compress(range(k), single):
                row, vector = vectors.get(c + 1) or self._vectors(vectors, c + 1, alone[c][1], names)
                rows.append(row)
                rows += compress(vector, single)
        rows.sort(key=itemgetter(0))
        return groups, rows

    def _vectors(self, vectors: dict[int, _Vectors], l: int, group: list[str], names: list[str]) -> _Vectors:
        """Format and keep the rows of interned group ``l``: its atom-class
        row, its sorted names joined, and its row vector, the pair rows of
        ``group + b`` for each visible name b and then, for a group of two
        or more, of ``a + group`` for each visible name a (a one-atom
        class's row ``a + c`` is in a's own first half). Each half is one
        C-level pass that fills a template, in which "\0" stands for the
        other name, and pairs it with the row's least member. Over one name
        b, ``a+b`` < ``a'+b`` whenever ``a`` < ``a'``, since under
        ``TermUniverse``'s name rule every character after a name's first
        sorts above "+": the group's sorted names give sorted members, with
        no sort."""
        head, sep, tail = self.row
        first = group[0]
        after = head + ("+\0" + sep).join(group) + "+\0" + tail
        leasts = map(add, repeat(first + "+"), names)
        texts = map(after.replace, repeat("\0"), names)
        if len(group) > 1:
            before = head + "\0+" + (sep + "\0+").join(group) + tail
            leasts = chain(leasts, map(add, names, repeat("+" + first)))
            texts = chain(texts, map(before.replace, repeat("\0"), names))
        rows = vectors[l] = ((first, head + sep.join(group) + tail), list(zip(leasts, texts)))
        return rows

    def _pair(self, memo: dict[tuple, _Row], key: tuple, left: list[str], right: list[str]) -> _Row:
        """Format and keep the row of the pairs over two groups of two or
        more names: "a+b" for each name a of the left group and then each
        name b of the right group, joined with no sort, in order as in a
        row vector's."""
        head, sep, tail = self.row
        members = sep.join([a + "+" + (sep + a + "+").join(right) for a in left])
        row = memo[key] = (f"{left[0]}+{right[0]}", head + members + tail)
        return row

    def _miss(self, memo: dict[tuple, _Row], key: tuple, members: list[str]) -> _Row:
        """Format and keep a triple row not yet in ``memo``, from its
        members: the one row whose members are sorted here."""
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
    out.write("{\n" + "".join(member + ",\n" for member in _json_fields(head)) + '  "points": ')
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
        out.write("{\n" + ",\n".join(_json_fields(fields)) + "\n}\n")
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
