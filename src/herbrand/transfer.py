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
from .terms import Atom, Term, VARIABLE, occurs


def _check_not_self_referential(y: Atom, beta: Term) -> None:
    if occurs(beta, y):
        raise SelfReferenceError(f"{y.name!r} appears in its own right-hand side")


@dataclass(frozen=True)
class Assign:
    target: Atom
    rhs: Term

    def __post_init__(self) -> None:
        _check_not_self_referential(self.target, self.rhs)


@dataclass(frozen=True)
class NonDet:
    target: Atom


Statement = Union[Assign, NonDet]


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
    yi = universe.index.get(y)
    if yi is None or y.kind != VARIABLE:
        raise DeclarationError(f"{y.name!r} is not a declared variable")
    bpos = universe.index.get(beta)
    if bpos is None:
        if isinstance(beta, Atom):
            raise DeclarationError(f"undeclared atom {beta.name!r}")
        raise UniverseMismatchError("right-hand side must be an atom or a sum of two atoms")
    _check_not_self_referential(y, beta)
    labels = elem.labels
    m = len(universe.atoms)
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
    """Semantics of ``y := *`` via the two reserved constants; the first
    ``assign_transfer`` checks that ``y`` is a declared variable."""
    if is_top(elem):
        return elem
    assert isinstance(elem, Partition)
    c1, c2 = elem.universe.reserved
    return meet_all([elem, assign_transfer(elem, y, c1), assign_transfer(elem, y, c2)])


def apply_statement(elem: LatticeElem, stmt: Statement) -> LatticeElem:
    if isinstance(stmt, Assign):
        return assign_transfer(elem, stmt.target, stmt.rhs)
    return nondet_transfer(elem, stmt.target)

