"""The benchmark's workloads: a seeded, fixed set of CLI calls each.

Sizes are fixed per workload and the seed draws every statement (targets
and operands). The wiring of each random program is fixed per ladder rung
(``WIDE_RUNGS``, ``DEEP_RUNGS``), so every seed costs about the same. Each
workload has five programs whose costs differ by a fifth or more from one
to the next, so the median and the tail percentile of call latency
(``run.TAIL``, the 70th) fall in the middle of one program's calls rather
than on the boundary between two.

* ``analyze-wide``: ``analyze --format json`` on five 41-node programs whose
  universe grows from |U| = 272 to 1,640 (8 layers, 11 Jacobi iterations).
  Per-call cost follows |U|: this is where a faster transfer kernel or a
  compact congruence shows. ``mop`` is never called.
* ``analyze-deep``: the same command on five programs with small universes
  (|U| = 56 to 90) and 151 to 351 nodes in 25 layers (about 28
  iterations). Cost follows the number of transfer calls, not their size:
  incremental Jacobi shows here, a faster per-call kernel much less.
* ``verify-paths``: ``verify --max-len 3k+3`` on diamond chains. Shared-state
  chains (k = 11, 12 and 14) collapse 2^k paths onto at most two values per
  node; distinct-state chains (k = 9 and 10) give every path its own value. A
  deduplicated path frontier shows on the first kind and not the second.
  Statement transfers are about a third of the time here (see README.md).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import gen


@dataclass(frozen=True)
class Case:
    """One CLI call: ``herbrand <command> <program file> <args...>``."""

    command: str
    program: gen.Program
    args: tuple[str, ...]

    def argv(self, path: str) -> list[str]:
        return [self.command, path, *self.args]


JSON = ("--format", "json")

# One program per rung of each ladder. The wiring of a rung is the same for
# every seed (see gen.py) and comes from the rung's salt. These salts give
# each rung the same Jacobi iteration count, within two, on seeds 0 to 11;
# with other salts a rung's count swings by up to seven with the statements,
# which makes the cost of a call depend on the seed.
WIDE_RUNGS = ((16, "t0"), (22, "s1"), (28, "s2"), (34, "t0"), (40, "s4"))  # (atoms, salt)
DEEP_RUNGS = ((7, 6, "t2"), (7, 9, "s1"), (9, 8, "s0"), (9, 10, "t0"), (9, 14, "s0"))  # (atoms, width, salt)
SHARED_K = (11, 12, 14)
DISTINCT_K = (9, 10)


def _wide(rng: random.Random) -> list[Case]:
    return [
        Case("analyze", gen.random_program(random.Random(salt), rng, atoms=m, layers=8, width=5), JSON)
        for m, salt in WIDE_RUNGS
    ]


def _deep(rng: random.Random) -> list[Case]:
    return [
        Case("analyze", gen.random_program(random.Random(salt), rng, atoms=m, layers=25, width=w), JSON)
        for m, w, salt in DEEP_RUNGS
    ]


def _verify(rng: random.Random) -> list[Case]:
    chains = [(gen.shared_chain(rng, k), k) for k in SHARED_K]
    chains += [(gen.distinct_chain(rng, k), k) for k in DISTINCT_K]
    return [Case("verify", p, ("--max-len", str(3 * k + 3))) for p, k in chains]


WORKLOADS = {"analyze-wide": _wide, "analyze-deep": _deep, "verify-paths": _verify}

# The worker's calibration job (see worker.calibration): one fixed program,
# the same for every workload, analysed by ``reference.analyze_json`` in
# about 40 ms.
CALIBRATION = dict(atoms=8, layers=25, width=6)


def calibration_program() -> gen.Program:
    return gen.random_program(random.Random("calibration"), random.Random(0), **CALIBRATION)


def build(name: str, seed: int) -> list[Case]:
    """The workload's calls for ``seed``; the same seed gives the same bytes."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"))
