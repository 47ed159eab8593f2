"""Record the SHA-256 of ``analyze`` stdout for seeds 0 to SEEDS - 1.

Usage, from the repository root: ``python3 perfbench/record_digests.py``.
It runs the ``herbrand`` under ``src/`` on every ``analyze`` call of every
workload and rewrites ``perfbench/digests.json``. The file in the repository
was recorded at the commit that added the benchmark; ``run.py`` checks each
``analyze`` call against it, and against ``reference.py`` for seeds it does
not hold.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import run
import workloads

SEEDS = 16


def main() -> None:
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    import herbrand.cli

    os.makedirs(run.WORK, exist_ok=True)
    path = os.path.join(run.WORK, "record.dfg")
    digests = {}
    try:
        for name in sorted(workloads.WORKLOADS):
            for seed in range(SEEDS):
                for case in workloads.build(name, seed):
                    if case.command != "analyze":
                        continue
                    with open(path, "w", encoding="utf-8") as f:
                        f.write(case.program.text())
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out):
                        if herbrand.cli.main(case.argv(path)) != 0:
                            raise SystemExit(f"{name} seed {seed}: analyze failed")
                    digests[run.call_key(case)] = run.sha256(out.getvalue())
    finally:
        os.remove(path)
    with open(os.path.join(run.HERE, "digests.json"), "w", encoding="utf-8") as f:
        json.dump(dict(sorted(digests.items())), f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
