"""Record the command line's output digests on the program corpus.

Usage, from the repository root: ``python3 tests/golden/record_cli_digests.py``.
It runs the ``herbrand`` under ``src/`` in-process on every command of
``helpers.cli_commands()`` and rewrites ``tests/golden/cli_digests.json``
with the SHA-256 of each command's stdout and stderr and its exit code.
``tests/test_cli_digests.py`` recomputes the table and compares it with the
file, so record it only from code whose command line output is known good.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
TESTS = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(os.path.dirname(TESTS), "src"), TESTS]

import helpers  # noqa: E402


def main() -> None:
    table = helpers.cli_digest_table()
    with open(helpers.CLI_DIGESTS, "w", encoding="utf-8") as f:
        json.dump(table, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
