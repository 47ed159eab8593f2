"""Line coverage of ``src/herbrand`` by the tier-1 tests.

Usage, from the repository root: ``python3 tests/line_coverage.py``. It
runs the tier-1 tests in-process under a ``sys.settrace`` line tracer that
follows only frames of ``src/herbrand/*.py``, so the package is imported,
and its module-level lines run, under the tracer. A line is
executable when some code object compiled from the file maps an instruction
to it; a function's ``def`` line counts as run when the function is called.
The one line left out is the body of the ``if __name__ == "__main__":``
guard, which only a subprocess runs. The script prints every executable
line that no test ran, as ``path:line``, and exits 1 if there is one; a
failing test run exits with pytest's own status. It needs only the
standard library and pytest.
"""

from __future__ import annotations

import ast
import os
import sys
from types import CodeType

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "herbrand")


def executable_lines(path: str) -> set[int]:
    """Lines that some instruction of the file's code objects maps to,
    without the body of a ``__main__`` guard."""
    with open(path, encoding="utf-8") as f:
        source = f.read()
    lines: set[int] = set()
    todo = [compile(source, path, "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo += [const for const in code.co_consts if isinstance(const, CodeType)]
    for node in ast.parse(source).body:
        test = node.test if isinstance(node, ast.If) else None
        if isinstance(test, ast.Compare) and ast.unparse(test) == "__name__ == '__main__'":
            for stmt in node.body:
                lines.difference_update(range(stmt.lineno, stmt.end_lineno + 1))
    return lines


def main() -> int:
    hits: dict[str, set[int]] = {}
    prefix = PACKAGE + os.sep

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        hits.setdefault(filename, set()).add(frame.f_lineno)
        return local

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import pytest

    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider"])
    finally:
        sys.settrace(None)
    if status != 0:
        return int(status)
    missed = []
    total = 0
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            path = os.path.join(PACKAGE, name)
            lines = executable_lines(path)
            total += len(lines)
            missed += [f"{os.path.relpath(path, ROOT)}:{line}" for line in sorted(lines - hits.get(path, set()))]
    for entry in missed:
        print(f"not run: {entry}")
    print(f"line coverage: {total - len(missed)} of {total} executable lines in src/herbrand")
    return 1 if missed else 0


if __name__ == "__main__":
    os.chdir(ROOT)
    sys.exit(main())
