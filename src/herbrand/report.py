"""Deterministic text and JSON rendering of per-node results.

Class labels are internal, so reports list classes as sorted term strings,
sorted again across classes; re-running an analysis reproduces the output
byte for byte. By default singleton classes and terms mentioning a reserved
constant are hidden; ``full=True`` shows everything. Filtering affects
visibility only, never membership.

One ``_Render`` serves one render call, in one format, and keeps nothing
after it:

* the visible names of each universe (all atoms with ``full``; otherwise
  those below the reserved constants) and their pairs' names, formatted
  once (``a``, ``a+b``); ``Partition.members`` lists a value's classes over
  them;
* one entry memo keyed by depth and value. A point's entry is what follows
  ``node k: `` in text and the ``"id"`` field in JSON. Each distinct value's
  top-level entry is rendered once from its class rows, and a ``--trace``
  iterate's entry is that text indented one level deeper, so a value's
  classes are listed once per report however many points share it;
* one points writer for both formats. JSON has the layout of
  ``json.dumps(indent=2)``, with strings escaped by its encoder,
  ``encode_basestring_ascii``, but is written directly.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from typing import Iterable

from .congruence import LatticeElem, Partition, is_top
from .terms import TermUniverse


def _json_array(items: list[str], indent: str) -> str:
    """A JSON array of rendered items, closed at ``indent``."""
    if not items:
        return "[]"
    inner = "\n" + indent + "  "
    return "[" + inner + ("," + inner).join(items) + "\n" + indent + "]"


class _Render:
    """One render call: the names of each universe and each value's entry."""

    def __init__(self, fmt: str, full: bool) -> None:
        self.json = fmt == "json"
        self.full = full
        # a trace iterate's points sit one level deeper than the state's
        self.step = "    " if self.json else "  "
        self.names: dict[TermUniverse, tuple[list[str], list[list[str]]]] = {}
        self.entries: dict[tuple[bool, LatticeElem], str] = {}

    def rows(self, elem: LatticeElem) -> list[list[str]] | None:
        if is_top(elem):
            return None
        assert isinstance(elem, Partition)
        names = self.names.get(elem.universe)
        if names is None:
            shown = [atom.name for atom in elem.universe.atoms]
            if not self.full:
                shown = shown[: len(shown) - len(elem.universe.reserved)]
            names = self.names[elem.universe] = (shown, [[f"{a}+{b}" for b in shown] for a in shown])
        # a shown class has at least this many visible members
        return sorted(map(sorted, elem.members(*names, 1 if self.full else 2)))

    def entry(self, elem: LatticeElem, deep: bool) -> str:
        entry = self.entries.get((deep, elem))
        if entry is None:
            if deep:
                entry = self.entry(elem, False).replace("\n", "\n" + self.step)
            else:
                rows = self.rows(elem)
                if not self.json:
                    entry = "top" if rows is None else "partition" + "".join(f"\n  [{', '.join(row)}]" for row in rows)
                elif rows is None:
                    entry = '\n      "status": "top"\n    }'
                else:
                    classes = [_json_array(list(map(encode_basestring_ascii, row)), "        ") for row in rows]
                    entry = f'\n      "status": "partition",\n      "classes": {_json_array(classes, "      ")}\n    }}'
            self.entries[deep, elem] = entry
        return entry

    def points(self, state: Iterable[LatticeElem], deep: bool = False) -> list[str]:
        """One item per point of ``state``, a trace iterate's when ``deep``:
        a text line or a JSON object."""
        pad = self.step if deep else ""
        head = '{{\n{}      "id": {},' if self.json else "{}node {}: "
        return [head.format(pad, k) + self.entry(e, deep) for k, e in enumerate(state, start=1)]


def visible_classes(elem: LatticeElem, full: bool = False) -> list[list[str]] | None:
    """Class lists for one node, or ``None`` for a ``TOP`` node."""
    return _Render("text", full).rows(elem)


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
    if fmt == "json":
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
    """Render an analysis state; ``fmt`` is ``text`` or ``json``."""
    return render_points({"solver": "jacobi", "iterations": iterations}, state, fmt, full, trace)
