"""Deterministic text and JSON rendering of per-node results.

Class labels are internal, so reports list classes as sorted term strings,
sorted again across classes; re-running an analysis reproduces the output
byte for byte. By default singleton classes and terms mentioning a reserved
constant are hidden; ``full=True`` shows everything. Filtering affects
visibility only, never membership.
"""

from __future__ import annotations

import json
from itertools import chain
from typing import Iterable

from .congruence import LatticeElem, Partition, is_top
from .terms import format_term


def visible_classes(elem: LatticeElem, full: bool = False) -> list[list[str]] | None:
    """Class lists for one node, or ``None`` for a ``TOP`` node.

    The reserved constants are the last atoms of the universe, so unless
    ``full`` is set only the atoms below index ``k`` and the pairs of such
    atoms are visible; only the kept classes are formatted.
    """
    if is_top(elem):
        return None
    assert isinstance(elem, Partition)
    universe = elem.universe
    labels = elem.labels
    if full:
        positions: Iterable[int] = range(len(labels))
    else:
        m = len(universe.atoms)
        k = m - len(universe.reserved)
        pair_rows = (range(m + i * m, m + i * m + k) for i in range(k))
        positions = chain(range(k), *pair_rows)
    members: dict[int, list[int]] = {}
    for pos in positions:
        members.setdefault(labels[pos], []).append(pos)
    terms = universe.terms
    rows = [
        sorted(format_term(terms[pos]) for pos in group)
        for group in members.values()
        if full or len(group) > 1
    ]
    rows.sort()
    return rows


def point_entries(state: Iterable[LatticeElem], full: bool = False) -> list[dict]:
    points = []
    for node_id, elem in enumerate(state, start=1):
        rows = visible_classes(elem, full)
        if rows is None:
            points.append({"id": node_id, "status": "top"})
        else:
            points.append({"id": node_id, "status": "partition", "classes": rows})
    return points


def render_json(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def render_points_text(points: list[dict], indent: str = "") -> list[str]:
    lines = []
    for point in points:
        lines.append(f"{indent}node {point['id']}: {point['status']}")
        for row in point.get("classes", ()):
            lines.append(f"{indent}  [" + ", ".join(row) + "]")
    return lines


def emit_report(
    state: Iterable[LatticeElem],
    iterations: int,
    fmt: str = "text",
    full: bool = False,
    trace: list[tuple[LatticeElem, ...]] | None = None,
) -> str:
    """Render an analysis state; ``fmt`` is ``text`` or ``json``."""
    points = point_entries(state, full)
    if fmt == "json":
        payload: dict = {"solver": "jacobi", "iterations": iterations, "points": points}
        if trace is not None:
            payload["trace"] = [
                {"iteration": l, "points": point_entries(row, full)}
                for l, row in enumerate(trace)
            ]
        return render_json(payload)
    lines = ["solver: jacobi", f"iterations: {iterations}"]
    lines.extend(render_points_text(points))
    if trace is not None:
        for l, row in enumerate(trace):
            lines.append(f"iterate {l}:")
            lines.extend(render_points_text(point_entries(row, full), indent="  "))
    return "\n".join(lines) + "\n"
