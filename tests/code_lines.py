"""Code lines of ``src/herbrand``: the source size that ``ROADMAP.md`` and
``CHANGES.md`` track.

Usage, from any directory: ``python3 tests/code_lines.py``. A code line is a
non-blank line that is neither a whole-line comment nor part of a module,
class or function docstring; docstrings are found with ``ast``. The script
prints each module's count and then the total, and always exits 0: it sets
no threshold. It needs only the standard library.
"""

from __future__ import annotations

import ast
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "herbrand")


def code_lines(source: str) -> int:
    docstrings: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    return sum(
        1
        for number, line in enumerate(source.splitlines(), 1)
        if line.strip() and not line.lstrip().startswith("#") and number not in docstrings
    )


def main() -> int:
    total = 0
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as f:
                count = code_lines(f.read())
            total += count
            print(f"{count:5d}  src/herbrand/{name}")
    print(f"{total:5d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
