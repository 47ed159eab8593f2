"""Deterministic text and JSON rendering of per-node results.

Class labels are internal, so reports list classes as sorted term strings,
sorted again across classes; re-running an analysis reproduces the output
byte for byte. By default singleton classes and terms mentioning a reserved
constant are hidden; ``full=True`` shows everything. Filtering affects
visibility only, never membership.

One render call does each piece of work once:

* a *layout* per universe holds the visible atoms (all of them with
  ``full``; otherwise those below the reserved constants) and the names of
  them and of their pairs, formatted once (``a``, ``a+b``);
* a memo from value to class rows, so nodes and ``--trace`` iterates that
  share a value render it once. ``Partition.members`` lists a value's
  classes over the visible names;
* a writer for the fixed shape of a points list, in text or in the JSON
  layout of ``json.dumps(indent=2)`` with strings escaped by its encoder,
  ``encode_basestring_ascii``. It renders each distinct value's entry once
  per indentation.

Nothing is kept from one call to the next.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from typing import Iterable

from .congruence import LatticeElem, Partition, is_top
from .terms import TermUniverse


class _Layout:
    """The visible atoms of one universe, their names and their pairs' names."""

    def __init__(self, universe: TermUniverse, full: bool) -> None:
        names = [atom.name for atom in universe.atoms]
        if not full:
            names = names[: len(names) - len(universe.reserved)]
        self.names = names
        self.pair_names = [[f"{a}+{b}" for b in names] for a in names]
        # a shown class has at least this many visible members
        self.least = 1 if full else 2

    def rows(self, p: Partition) -> list[list[str]]:
        return sorted(map(sorted, p.members(self.names, self.pair_names, self.least)))


def _json_array(items: list[str], indent: str) -> str:
    """A JSON array of rendered items, closed at ``indent``."""
    if not items:
        return "[]"
    inner = "\n" + indent + "  "
    return "[" + inner + ("," + inner).join(items) + "\n" + indent + "]"


class _Render:
    """One render call: a layout per universe, rows and entries per value."""

    def __init__(self, full: bool) -> None:
        self.full = full
        self.layouts: dict[TermUniverse, _Layout] = {}
        self.memo: dict[LatticeElem, list[list[str]] | None] = {}
        # one format per call, so the indentation tells the entry tables apart
        self.entries: dict[str, dict[LatticeElem, str]] = {}

    def rows(self, elem: LatticeElem) -> list[list[str]] | None:
        if elem in self.memo:
            return self.memo[elem]
        rows = None
        if not is_top(elem):
            assert isinstance(elem, Partition)
            layout = self.layouts.get(elem.universe)
            if layout is None:
                layout = self.layouts[elem.universe] = _Layout(elem.universe, self.full)
            rows = layout.rows(elem)
        self.memo[elem] = rows
        return rows

    def text_points(self, state: Iterable[LatticeElem], indent: str = "") -> list[str]:
        entries = self.entries.setdefault(indent, {})
        lines = []
        for node_id, elem in enumerate(state, start=1):
            entry = entries.get(elem)
            if entry is None:
                rows = self.rows(elem)
                if rows is None:
                    entry = "top"
                else:
                    entry = "partition" + "".join(f"\n{indent}  [" + ", ".join(row) + "]" for row in rows)
                entries[elem] = entry
            lines.append(f"{indent}node {node_id}: {entry}")
        return lines

    def json_points(self, state: Iterable[LatticeElem], indent: str) -> str:
        """The points array of ``state``, closed at ``indent``."""
        item = indent + "  "
        field = item + "  "
        entries = self.entries.setdefault(indent, {})
        points = []
        for node_id, elem in enumerate(state, start=1):
            entry = entries.get(elem)
            if entry is None:
                rows = self.rows(elem)
                if rows is None:
                    entry = f'{field}"status": "top"\n{item}}}'
                else:
                    classes = [_json_array(list(map(encode_basestring_ascii, row)), field + "  ") for row in rows]
                    entry = f'{field}"status": "partition",\n{field}"classes": {_json_array(classes, field)}\n{item}}}'
                entries[elem] = entry
            points.append(f'{{\n{field}"id": {node_id},\n{entry}')
        return _json_array(points, indent)


def visible_classes(elem: LatticeElem, full: bool = False) -> list[list[str]] | None:
    """Class lists for one node, or ``None`` for a ``TOP`` node."""
    return _Render(full).rows(elem)


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
    render = _Render(full)
    if fmt == "json":
        fields = [f"  {json.dumps(key)}: {json.dumps(value)}" for key, value in head.items()]
        fields.append(f'  "points": {render.json_points(state, "  ")}')
        if trace is not None:
            iterates = [
                f'{{\n      "iteration": {l},\n      "points": {render.json_points(row, "      ")}\n    }}'
                for l, row in enumerate(trace)
            ]
            fields.append(f'  "trace": {_json_array(iterates, "  ")}')
        return "{\n" + ",\n".join(fields) + "\n}\n"
    lines = [
        f"{key}: {'yes' if value is True else 'no' if value is False else value}"
        for key, value in head.items()
    ]
    lines.extend(render.text_points(state))
    if trace is not None:
        for l, row in enumerate(trace):
            lines.append(f"iterate {l}:")
            lines.extend(render.text_points(row, "  "))
    return "\n".join(lines) + "\n"


def emit_report(
    state: Iterable[LatticeElem],
    iterations: int,
    fmt: str = "text",
    full: bool = False,
    trace: list[tuple[LatticeElem, ...]] | None = None,
) -> str:
    """Render an analysis state; ``fmt`` is ``text`` or ``json``."""
    return render_points({"solver": "jacobi", "iterations": iterations}, state, fmt, full, trace)
