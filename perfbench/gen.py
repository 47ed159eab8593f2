"""Seeded generators for the benchmark's `.dfg` inputs.

Three families, each a pure function of a ``random.Random``:

* ``random_program``: a layered graph. Node ids grow with the layer, every
  node takes its first predecessor from the previous layer (so every node is
  reachable and the graph depth is exactly ``layers``), and a confluence takes
  its second predecessor from the next layer (a back edge) when there is
  one. Node kinds come from an exact multiset, so the share of
  confluences, ``*`` statements and pair right-hand sides is fixed. Two
  generators split the draws: ``shape`` draws the node kinds and the wiring,
  ``rng`` draws every target and operand. A caller that fixes ``shape`` per
  ladder rung keeps the Jacobi iteration count, and so the cost, of that
  rung nearly the same from seed to seed while the statements still change.
* ``shared_chain``: ``k`` diamonds that all reassign the same ``y``, so the
  2^k paths collapse onto at most two values per node.
* ``distinct_chain``: ``k`` diamonds where diamond i assigns its own ``v_i``
  two different ways, so every path carries its own value.

In both chain families one branch of every fourth diamond is a ``*``
statement; ``rng`` draws the other statements.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Share of the non-confluence, non-``*`` nodes of a random program whose
# right-hand side is a pair.
PAIR_SHARE = 0.5


@dataclass(frozen=True)
class Program:
    """A generated program: declarations plus node lines in id order.

    A node is ``("entry",)``, ``("assign", y, rhs, pred)`` with ``rhs`` a
    tuple of one or two atom names, ``("nondet", y, pred)`` or
    ``("confluence", p, q)``.
    """

    variables: tuple[str, ...]
    constants: tuple[str, ...]
    nodes: tuple[tuple, ...]

    def text(self) -> str:
        lines = ["vars " + " ".join(self.variables), "consts " + " ".join(self.constants)]
        for k, node in enumerate(self.nodes, start=1):
            if node[0] == "entry":
                lines.append(f"node {k} entry")
            elif node[0] == "assign":
                _, y, rhs, p = node
                lines.append(f"node {k} assign {y} := {' + '.join(rhs)} pred {p}")
            elif node[0] == "nondet":
                lines.append(f"node {k} nondet {node[1]} pred {node[2]}")
            else:
                lines.append(f"node {k} confluence pred {node[1]} {node[2]}")
        return "\n".join(lines) + "\n"


def _declared(atoms: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
    # ``atoms`` counts the two reserved constants the analyzer adds, so
    # |U| = atoms + atoms**2 is fixed by it.
    declared = atoms - 2
    consts = max(1, declared // 5)
    variables = tuple(f"v{i}" for i in range(declared - consts))
    return variables, tuple(f"c{i}" for i in range(consts))


def _assign(rng: random.Random, y: str, pool: list[str], pair: bool, pred: int) -> tuple:
    rest = [a for a in pool if a != y]
    rhs = (rng.choice(rest), rng.choice(rest)) if pair else (rng.choice(rest),)
    return ("assign", y, rhs, pred)


def random_program(
    shape: random.Random,
    rng: random.Random,
    *,
    atoms: int,
    layers: int,
    width: int,
    confluence_share: float = 0.3,
    star_share: float = 0.15,
) -> Program:
    """A layered random program with ``1 + layers * width`` nodes."""
    variables, constants = _declared(atoms)
    pool = list(variables + constants)
    body = layers * width
    n_conf = round(confluence_share * body)
    n_star = round(star_share * body)
    n_pair = round(PAIR_SHARE * (body - n_conf - n_star))
    kinds = ["conf"] * n_conf + ["star"] * n_star + ["pair"] * n_pair
    kinds += ["atom"] * (body - len(kinds))
    shape.shuffle(kinds)

    def layer(l: int) -> range:
        return range(2 + l * width, 2 + (l + 1) * width)

    nodes: list[tuple] = [("entry",)]
    for k, kind in enumerate(kinds, start=2):
        l = (k - 2) // width
        p = shape.choice(layer(l - 1)) if l else 1
        if kind == "conf":
            if l + 1 < layers:
                q = shape.choice(layer(l + 1))
            else:
                q = shape.choice(layer(l - 1)) if l else 1
            nodes.append(("confluence", p, q))
        elif kind == "star":
            nodes.append(("nondet", rng.choice(variables), p))
        else:
            nodes.append(_assign(rng, rng.choice(variables), pool, kind == "pair", p))
    return Program(variables, constants, tuple(nodes))


def _diamond(nodes: list[tuple], prev: int, left: tuple, right: tuple) -> int:
    """Append a diamond after node ``prev``; ``left``/``right`` are node
    tuples whose predecessor slot is filled in. Returns the confluence id."""
    a = len(nodes) + 1
    nodes.append(left[:-1] + (prev,))
    nodes.append(right[:-1] + (prev,))
    nodes.append(("confluence", a, a + 1))
    return a + 2


def _nondet_diamond(i: int) -> bool:
    # Every fourth diamond has a ``*`` branch. Fixed places keep the cost of
    # a chain the same for every seed: a ``*`` early in the chain is run on
    # more paths than one late in it.
    return i % 4 == 3


def shared_chain(rng: random.Random, k: int) -> Program:
    """``k`` diamonds whose branches all reassign ``y``."""
    variables = ("y", "x0", "x1", "x2")
    constants = ("a", "b")
    pool = ["x0", "x1", "x2", "a", "b"]
    nodes: list[tuple] = [("entry",)]
    prev = 1
    for i in range(k):
        first, second = rng.sample(pool, 2)
        left = ("assign", "y", (first,), 0)
        if _nondet_diamond(i):
            right = ("nondet", "y", 0)
        else:
            right = ("assign", "y", (second, rng.choice(pool)), 0)
        prev = _diamond(nodes, prev, left, right)
    return Program(variables, constants, tuple(nodes))


def distinct_chain(rng: random.Random, k: int) -> Program:
    """``k`` diamonds; diamond i assigns ``v_i`` differently on each branch."""
    variables = tuple(f"v{i}" for i in range(k)) + ("x",)
    constants = ("a", "b")
    nodes: list[tuple] = [("entry",)]
    prev = 1
    for i in range(k):
        first, second = rng.sample(["x", "a", "b"], 2)
        left = ("assign", f"v{i}", (first,), 0)
        right = ("nondet", f"v{i}", 0) if _nondet_diamond(i) else ("assign", f"v{i}", (second,), 0)
        prev = _diamond(nodes, prev, left, right)
    return Program(variables, constants, tuple(nodes))
