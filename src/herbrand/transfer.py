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

Each transfer returns its input itself, building no value, when the moved
partition would equal it: an assignment when ``y`` already has the class
of ``beta``, and an input statement when ``y`` is already alone in a class
that has no definition and is no definition's operand. Otherwise it builds
one value through the ``Partition`` constructor. An assignment looks up
each right-hand-side atom's position once; that one lookup also finds an
undeclared atom and a right-hand side that names ``y``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .congruence import LatticeElem, Partition, is_top
from .errors import DeclarationError, SelfReferenceError, UniverseMismatchError
from .terms import Atom, Sum, Term, TermUniverse, VARIABLE, occurs


@dataclass(frozen=True)
class Assign:
    target: Atom
    rhs: Term

    def __post_init__(self) -> None:
        if occurs(self.rhs, self.target):
            raise SelfReferenceError(f"{self.target.name!r} appears in its own right-hand side")


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
    When ``y`` already has that class, ``elem`` itself is returned.
    """
    if is_top(elem):
        return elem
    assert isinstance(elem, Partition)
    yi = _variable_position(elem.universe, y)
    # one position lookup per right-hand-side atom: None marks an undeclared
    # atom or an operand that is no atom, and y's own position marks y in beta
    get = elem.universe.index.get
    pos = (get(beta.left), get(beta.right)) if isinstance(beta, Sum) else (get(beta),)
    if None in pos:
        if isinstance(beta, Atom):
            raise DeclarationError(f"undeclared atom {beta.name!r}")
        raise UniverseMismatchError("right-hand side must be an atom or a sum of two atoms")
    if yi in pos:
        raise SelfReferenceError(f"{y.name!r} appears in its own right-hand side")
    atoms, defs = elem.atoms, elem.defs
    if len(pos) == 1:
        c = atoms[pos[0]]
    else:
        pair = (atoms[pos[0]], atoms[pos[1]])
        defs = defs if pair in defs else (*defs, pair)
        c = defs.index(pair)
    if atoms[yi] == c:
        return elem
    moved = list(atoms)
    moved[yi] = c
    return Partition(elem.universe, moved, defs)


def nondet_transfer(elem: LatticeElem, y: Atom) -> LatticeElem:
    """Semantics of ``y := *``: ``y`` moves to a fresh class with no
    definition, which is the meet of ``elem`` with ``y := $nd1`` and
    ``y := $nd2`` over the two reserved constants. When ``y`` is already
    alone in a class that has no definition and is no definition's operand,
    ``elem`` itself is returned."""
    if is_top(elem):
        return elem
    assert isinstance(elem, Partition)
    atoms, defs = elem.atoms, elem.defs
    yi = _variable_position(elem.universe, y)
    c = atoms[yi]
    if defs[c] is None and atoms.count(c) == 1 and all(d is None or c not in d for d in defs):
        return elem
    moved = list(atoms)
    moved[yi] = len(defs)
    return Partition(elem.universe, moved, defs)


def apply_statement(elem: LatticeElem, stmt: Statement) -> LatticeElem:
    if isinstance(stmt, Assign):
        return assign_transfer(elem, stmt.target, stmt.rhs)
    return nondet_transfer(elem, stmt.target)

