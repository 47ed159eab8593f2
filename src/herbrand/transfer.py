"""Statement semantics on the congruence lattice.

A deterministic assignment ``y := beta`` maps a partition through inverse
substitution: two terms are equivalent afterwards exactly when substituting
``beta`` for ``y`` in both yields equivalent terms beforehand. On a
``Partition`` that moves the atom ``y`` alone, into the class of ``beta``;
every pair follows its operands' classes by C2. A non-deterministic
assignment ``y := *`` (input statement) keeps a pair equivalent only if the
equivalence survives every ``y``-free substitution, which reduces to
substituting two distinct fresh constants; that moves ``y`` into a fresh
class of its own. When ``y`` was the last atom of its old class, the
constructor drops that class and every definition that uses it. Both
transfers map ``TOP`` to ``TOP`` without looking at the statement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .congruence import LatticeElem, Partition, is_top
from .errors import DeclarationError, SelfReferenceError, UniverseMismatchError
from .terms import Atom, Term, TermUniverse, VARIABLE, occurs


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


def _variable_position(universe: TermUniverse, y: Atom) -> int:
    yi = universe.index.get(y)
    if yi is None or y.kind != VARIABLE:
        raise DeclarationError(f"{y.name!r} is not a declared variable")
    return yi


def assign_transfer(elem: LatticeElem, y: Atom, beta: Term) -> LatticeElem:
    """Semantics of ``y := beta``; requires ``y`` not to occur in ``beta``.

    ``y`` joins the class of ``beta``. For an atom that is the atom's class;
    for a pair ``a+b`` it is the atom class defined as (class a, class b) if
    there is one, else a fresh class with that definition. Every other atom
    keeps its class, and every pair follows its operands' classes by C2.
    """
    if is_top(elem):
        return elem
    assert isinstance(elem, Partition)
    universe = elem.universe
    yi = _variable_position(universe, y)
    if beta not in universe:
        if isinstance(beta, Atom):
            raise DeclarationError(f"undeclared atom {beta.name!r}")
        raise UniverseMismatchError("right-hand side must be an atom or a sum of two atoms")
    _check_not_self_referential(y, beta)
    atoms = list(elem.atoms)
    defs = elem.defs
    if isinstance(beta, Atom):
        atoms[yi] = atoms[universe.index[beta]]
    else:
        pair = (atoms[universe.index[beta.left]], atoms[universe.index[beta.right]])
        if pair not in defs:
            defs = (*defs, pair)
        atoms[yi] = defs.index(pair)
    return Partition(universe, atoms, defs)


def nondet_transfer(elem: LatticeElem, y: Atom) -> LatticeElem:
    """Semantics of ``y := *``: ``y`` moves to a fresh class with no
    definition, which is the meet of ``elem`` with ``y := $nd1`` and
    ``y := $nd2`` over the two reserved constants."""
    if is_top(elem):
        return elem
    assert isinstance(elem, Partition)
    atoms = list(elem.atoms)
    atoms[_variable_position(elem.universe, y)] = len(elem.defs)
    return Partition(elem.universe, atoms, elem.defs)


def apply_statement(elem: LatticeElem, stmt: Statement) -> LatticeElem:
    if isinstance(stmt, Assign):
        return assign_transfer(elem, stmt.target, stmt.rhs)
    return nondet_transfer(elem, stmt.target)

