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
one value through the ``Partition`` constructor: it copies the input's
representative labels with ``y``'s one entry changed, to the label of
``beta``'s class or to the fresh key -1, and passes the input's definition
triples, plus one ``(-1, l, r)`` for a new pair class. No transfer re-picks
a representative. When ``y`` was one, or moves below its new class's, the
constructor's first-position labeling does it.

Each transfer checks its statement on every call, in this order: the
target, then the right-hand side's atoms, then self-reference. An
assignment looks up the target's and each right-hand-side atom's position
once, through one bound ``universe.index.get``; the atom lookups also find
an undeclared atom and a right-hand side that names ``y``. A ``TOP`` input
returns before any check, one type test; the solver passes none.
"""

from __future__ import annotations

from typing import NamedTuple, Union

from .congruence import LatticeElem, Partition, Top
from .errors import DeclarationError, SelfReferenceError, UniverseMismatchError
from .terms import Atom, Frozen, Sum, Term, VARIABLE, occurs


class Assign(Frozen):
    _fields = ("target", "rhs")

    def __init__(self, target: Atom, rhs: Term) -> None:
        if occurs(rhs, target):
            raise SelfReferenceError(f"{target.name!r} appears in its own right-hand side")
        self.__dict__.update(target=target, rhs=rhs)


class NonDet(NamedTuple):
    target: Atom


Statement = Union[Assign, NonDet]


def _not_a_variable(y: Atom) -> DeclarationError:
    return DeclarationError(f"{y.name!r} is not a declared variable")


def assign_transfer(elem: LatticeElem, y: Atom, beta: Term) -> LatticeElem:
    """Semantics of ``y := beta``; requires ``y`` not to occur in ``beta``.

    ``y`` joins the class of ``beta``. For an atom that is the atom's class;
    for a pair ``a+b`` it is the atom class defined as (class a, class b) if
    there is one, else a fresh class with that definition. Every other atom
    keeps its class, and every pair follows its operands' classes by C2.
    When ``y`` already has that class, ``elem`` itself is returned.
    """
    if type(elem) is Top:
        return elem
    assert isinstance(elem, Partition)
    get = elem.universe.index.get
    yi = get(y)
    if yi is None or y.kind != VARIABLE:
        raise _not_a_variable(y)
    # one position lookup per right-hand-side atom: None marks an undeclared
    # atom or an operand that is no atom, and y's own position marks y in beta
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
        # the class defined by beta's operand classes, or a fresh key -1
        left, right = atoms[pos[0]], atoms[pos[1]]
        for c, l, r in defs:
            if l == left and r == right:
                break
        else:
            c = -1
            defs = (*defs, (c, left, right))
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
    if type(elem) is Top:
        return elem
    assert isinstance(elem, Partition)
    yi = elem.universe.index.get(y)
    if yi is None or y.kind != VARIABLE:
        raise _not_a_variable(y)
    atoms, defs = elem.atoms, elem.defs
    c = atoms[yi]
    if atoms.count(c) == 1 and all(c not in d for d in defs):
        return elem
    moved = list(atoms)
    moved[yi] = -1
    return Partition(elem.universe, moved, defs)


def apply_statement(elem: LatticeElem, stmt: Statement) -> LatticeElem:
    if isinstance(stmt, Assign):
        return assign_transfer(elem, stmt.target, stmt.rhs)
    return nondet_transfer(elem, stmt.target)

