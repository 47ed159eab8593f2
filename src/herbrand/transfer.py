"""Statement semantics on the congruence lattice.

A deterministic assignment ``y := beta`` maps a partition through inverse
substitution: two terms are equivalent afterwards exactly when substituting
``beta`` for ``y`` in both yields equivalent terms beforehand. A
non-deterministic assignment ``y := *`` (input statement) keeps a pair
equivalent only if the equivalence survives every ``y``-free substitution,
which reduces to substituting two distinct fresh constants. Both map ``TOP``
to ``TOP`` without looking at the statement.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Union

from .congruence import LatticeElem, Partition, is_top, meet_all
from .errors import DeclarationError, SelfReferenceError, UniverseMismatchError
from .terms import Atom, AtomRef, Term, TermUniverse, VARIABLE, occurs


@dataclass(frozen=True)
class Assign:
    target: Atom
    rhs: Term

    def __post_init__(self) -> None:
        if occurs(self.rhs, self.target):
            raise SelfReferenceError(
                f"right-hand side of {self.target.name!r} assignment mentions the target"
            )


@dataclass(frozen=True)
class NonDet:
    target: Atom


Statement = Union[Assign, NonDet]


def _check_target(universe: TermUniverse, y: Atom) -> None:
    if universe.by_name.get(y.name) != y or y.kind != VARIABLE:
        raise DeclarationError(f"{y.name!r} is not a declared variable")


def _check_rhs(universe: TermUniverse, beta: Term) -> None:
    if beta in universe.index:
        return
    if isinstance(beta, AtomRef):
        raise DeclarationError(f"undeclared atom {beta.atom.name!r}")
    raise UniverseMismatchError("right-hand side must be an atom or a sum of two atoms")


def assign_transfer(elem: LatticeElem, y: Atom, beta: Term) -> LatticeElem:
    """Semantics of ``y := beta``; requires ``y`` not to occur in ``beta``.

    Works on the universe grid (atom ``i`` at position ``i``, pair ``(i, j)``
    at ``m + i*m + j``). Only the ``2m`` positions mentioning ``y`` change:
    each takes the class of its image under ``[beta/y]``. For an atom ``b``
    the image is another universe position; for a pair ``beta`` the image of
    ``y+j`` or ``i+y`` is a depth-2 term, whose key is the universe class
    with the same operand classes, if any, else the operand class pair.
    """
    if is_top(elem):
        return elem
    assert isinstance(elem, Partition)
    universe = elem.universe
    _check_target(universe, y)
    _check_rhs(universe, beta)
    if occurs(beta, y):
        raise SelfReferenceError(f"{y.name!r} occurs in its own right-hand side")
    labels = elem.labels
    m = len(universe.atoms)
    yi = universe.index[AtomRef(y)]
    bpos = universe.index[beta]
    row = m + yi * m
    keys: list[object] = list(labels)
    if bpos < m:
        brow = m + bpos * m
        keys[yi] = labels[bpos]
        keys[row : row + m] = labels[brow : brow + m]
        keys[m + yi :: m] = labels[m + bpos :: m]
        keys[row + yi] = labels[brow + bpos]
    else:
        cb = labels[bpos]
        pair_classes = elem.pair_classes()
        operands = list(labels[:m])
        operands[yi] = cb
        row_pairs = list(zip(repeat(cb), operands))
        column_pairs = list(zip(operands, repeat(cb)))
        keys[yi] = cb
        keys[row : row + m] = map(pair_classes.get, row_pairs, row_pairs)
        keys[m + yi :: m] = list(map(pair_classes.get, column_pairs, column_pairs))
    return Partition(universe, keys)


def nondet_transfer(elem: LatticeElem, y: Atom) -> LatticeElem:
    """Semantics of ``y := *`` via the two reserved constants."""
    if is_top(elem):
        return elem
    assert isinstance(elem, Partition)
    _check_target(elem.universe, y)
    c1, c2 = elem.universe.reserved
    return meet_all(
        [
            elem,
            assign_transfer(elem, y, AtomRef(c1)),
            assign_transfer(elem, y, AtomRef(c2)),
        ]
    )


def apply_statement(elem: LatticeElem, stmt: Statement) -> LatticeElem:
    if isinstance(stmt, Assign):
        return assign_transfer(elem, stmt.target, stmt.rhs)
    return nondet_transfer(elem, stmt.target)

