"""Herbrand congruences over a term universe and their meet semilattice.

A congruence on the universe (atoms plus ordered atom pairs) satisfies:

  C1  distinct constants (including the reserved pair) lie in distinct
      classes;
  C2  two compound terms share a class exactly when their left operands
      share a class and their right operands share a class;
  C3  a class containing a constant contains, besides that constant, only
      variables.

By C2 a pair's class is a function of its operands' classes. So a
``Partition`` holds m atom labels and, per defined atom class, one
definition: the operand class pair whose pairs lie in that class (the
strong equivalence DAG of Gulwani and Necula, SAS 2004, cut to depth 1).
An atom's label is the least atom index of its class, its representative,
and a definition is a ``(c, l, r)`` triple of representatives. Both are
canonical as built, so equal congruences have equal fields with no
renumbering. Every undefined operand class pair is a class of pairs only.

Every class is named by the universe position of its least member (atom i
at i, pair (i, j) at m + i*m + j), read off the labels: an atom class by
its representative, a defined pair class by its atom class, and a class of
pairs only, over the operand classes l and r, by m + l*m + r, the position
of its least pair. So an anonymous class, a class of pairs with no atom
that an analysis keeping deeper terms would add as a definition's operand,
is named too. The solver never queries a class; ``get_class`` reads one
class from the labels and triples, and the report lists a value's classes
from them itself.

``TOP`` is an artificial greatest element, so that the meet of an empty
collection is defined. Lattice values compare with ``==``, and equal values
hash equal. The meet is the product of the two partitions (Kildall, POPL
1973). ``meet`` builds it only when five cheap exits fail, in this order:
the same object on both sides, ``TOP`` on either side, the universe check,
the finest congruence on either side, and a left operand that refines the
right, which an equal left operand does. All but the last cost O(1): a
value flags itself as the finest congruence when it is built. The
refinement test is one O(m) label map in one C call and one tuple compare,
plus one lookup per left definition. The running path meet of
``mop_table`` rarely gets past them; the README gives the counts on the
``perfbench`` chains.

``term_value`` folds a term of any depth bottom-up into an ``int`` class
name or a pair (tuple) of operand values, collapsing each operand pair of
atom classes into its pair class, which it finds by scanning the triples,
as ``assign_transfer`` and ``get_class`` do. A value keeps no other copy of
its definitions, so it gains no state after construction. Two terms of any
depth are equivalent under a value exactly when their values coincide.

Equivalence under a value is exact for that value, and the value is a
sound under-approximation of Herbrand equivalence: a definition is dropped
once its operand class has no atom, and the depth-2 fact it carried cannot
come back. In the README's 7-line program, y+c ≡ z holds at node 5 on the
only path, but ``equivalent`` returns ``False`` there.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable
from itertools import count
from operator import itemgetter
from typing import Union

from .errors import DeclarationError, UniverseMismatchError
from .terms import Atom, Frozen, Sum, Term, TermUniverse


class Top:
    """The artificial greatest element; meet with anything returns the other side."""

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Top)

    def __hash__(self) -> int:
        return hash(Top)

    def __repr__(self) -> str:
        return "TOP"


TOP = Top()


class Partition(Frozen):
    """A congruence of the universe terms, labeled by representatives.

    ``atoms[i]`` is the least atom index of the class of
    ``universe.atoms[i]``, its representative label, and ``defs`` is the
    sorted tuple of ``(c, l, r)`` triples, one per defined atom class c,
    whose pairs are those over the operand classes l and r; a class of
    pairs only over l and r, anonymous or not, is named m + l*m + r, the
    universe position of its least pair. The constructor
    takes any m hashable keys for the atoms and an iterable of
    ``(key, left key, right key)`` triples, so ``Partition(u, p.atoms,
    p.defs) == p``. It labels each key by its first position, in one pass,
    and drops a triple whose class or operand key no atom has, since no
    universe pair can then reach it. A triple that is not three keys raises
    ``ValueError``, and so do two triples for one class and two classes with
    one definition, which would be one class. The hash is computed once per
    value, in the constructor, and so is the ``_finest`` flag that ``meet``
    reads: no triple and every atom its own representative. Neither is a
    field, so ``==`` ignores them and a value rebuilt from its own fields
    gets them again. The repr shows the labels and the triples, not the
    universe.
    """

    _fields = ("universe", "atoms", "defs")

    def __init__(self, universe: TermUniverse, atoms: Iterable[Hashable], defs: Iterable[tuple]) -> None:
        ids: dict[Hashable, int] = {}
        labels = tuple(map(ids.setdefault, atoms, count()))
        if len(labels) != len(universe.atoms):
            raise ValueError(f"expected {len(universe.atoms)} atom labels, got {len(labels)}")
        get = ids.get
        out = []
        for c, left, right in defs:
            triple = (get(c), get(left), get(right))
            if None not in triple:
                out.append(triple)
        if len(out) > 1:
            out.sort()
            if len({triple[0] for triple in out}) != len(out) or len({triple[1:] for triple in out}) != len(out):
                raise ValueError("two atom classes share a definition, or one class has two")
        triples = tuple(out)
        finest = not triples and labels == universe.positions
        self.__dict__.update(
            universe=universe, atoms=labels, defs=triples, _hash=hash((labels, triples)), _finest=finest
        )

    def __eq__(self, other: object) -> bool:
        # the fields' ``==``; equal values have equal hashes, so one int
        # compare tells most unequal values apart
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._hash == other._hash and self.atoms == other.atoms and self.defs == other.defs and (
            self.universe is other.universe
        )

    def __hash__(self) -> int:
        # equal partitions have equal labels and definitions; ``==`` still
        # tells partitions over different universes apart
        return self._hash

    def __repr__(self) -> str:
        # the labels and triples, not the universe's atoms and maps
        return f"Partition(atoms={self.atoms!r}, defs={self.defs!r})"

    def class_of(self, t: Term) -> int:
        if t not in self.universe:
            raise DeclarationError(f"term not in universe: {t}")
        return term_value(t, self)


LatticeElem = Union[Top, Partition]


def is_top(elem: LatticeElem) -> bool:
    return isinstance(elem, Top)


def bottom(universe: TermUniverse) -> Partition:
    """The finest partition: every universe term in its own class."""
    return Partition(universe, universe.positions, ())


def term_value(t: Term, p: Partition) -> int | tuple:
    """Canonical class value of a term of arbitrary depth under ``p``: the
    ``int`` universe position of its class's least member, or the pair of
    the operand values of a sum whose operands are not both atom classes.
    Equal values mean equivalence under ``p``, which is exact for ``p`` but
    may miss a Herbrand equivalence that ``p``'s depth-1 definitions could
    not keep (see the module docstring). Each pair of atom classes is looked
    up by a scan of the k triples of ``p.defs``, so a sum costs O(k)."""
    index, labels, defs = p.universe.index, p.atoms, p.defs
    m = len(labels)

    def value(t: Term) -> int | tuple:
        if isinstance(t, Atom):
            pos = index.get(t)
            if pos is None:
                raise DeclarationError(f"undeclared atom {t.name!r}")
            return labels[pos]
        assert isinstance(t, Sum)
        left, right = value(t.left), value(t.right)
        if type(left) is int and type(right) is int and left < m and right < m:
            return next((c for c, l, r in defs if l == left and r == right), m + left * m + right)
        return (left, right)

    return value(t)


def equivalent(t1: Term, t2: Term, p: Partition) -> bool:
    return term_value(t1, p) == term_value(t2, p)


def meet(l1: LatticeElem, l2: LatticeElem) -> LatticeElem:
    """Greatest lower bound: the product of the two congruences.

    Atom i goes to the class of its label pair. A product class keeps a
    definition when both sides define it, built from the two definitions'
    operand product classes; the constructor drops it unless both of those
    have atoms.

    Exits, tried in this order before any product is built:

    1. ``l1 is l2``: ``l1``, one identity test.
    2. ``TOP`` on either side: the other side, one type test each.
    3. Different universes raise ``UniverseMismatchError``.
    4. The finest congruence, no definition and every atom its own
       representative, on either side: that side, ``l1`` tested first. It
       is the least element, so it is the product. One read per side of
       the flag the constructor set.
    5. ``l1`` refines ``l2``: ``l1``. Each atom's ``l1`` representative must
       have the atom's ``l2`` label: the label image is built by one
       ``itemgetter`` call and compared with ``l2``'s labels, O(m) in C.
       Then, only when ``l1`` has triples, each one, read through ``l2``'s
       labels, must be an ``l2`` triple. An ``l1`` equal to ``l2`` refines
       it, so equal values return ``l1`` here.
    """
    if l1 is l2:
        return l1
    if type(l1) is Top:
        return l2
    if type(l2) is Top:
        return l1
    if l1.universe is not l2.universe:
        raise UniverseMismatchError("partitions built over different universes")
    # the finest congruence is the least element: its product with any
    # congruence has m singleton atom classes and no definition, so is itself
    if l1._finest:
        return l1
    if l2._finest:
        return l2
    atoms1, atoms2, defs1, defs2 = l1.atoms, l2.atoms, l1.defs, l2.defs
    # the product has l1's atom classes, each inside one l2 class; it keeps
    # l1's definitions when l2 defines each such class by the operands' ones.
    # m >= 2 (the reserved pair), so the getter always returns a tuple
    if itemgetter(*atoms1)(atoms2) == atoms2 and (
        not defs1 or all((atoms2[c], atoms2[l], atoms2[r]) in defs2 for c, l, r in defs1)
    ):
        return l1
    defs = [((c1, c2), (a1, a2), (b1, b2)) for c1, a1, b1 in defs1 for c2, a2, b2 in defs2]
    return Partition(l1.universe, zip(atoms1, atoms2), defs)


def get_class(t: Term, p: Partition) -> set[Term]:
    """All universe terms sharing the class of ``t``: the atoms labeled with
    its name and the pairs over its operand class pair, the pair a triple
    gives an atom class and the one a pair-only class's name encodes, read
    in O(m + |class|)."""
    c = p.class_of(t)
    m = len(p.atoms)
    pair = divmod(c - m, m) if c >= m else next(((l, r) for d, l, r in p.defs if d == c), None)

    def atoms(d: int) -> list[Atom]:
        return [a for a, label in zip(p.universe.atoms, p.atoms) if label == d]

    members: set[Term] = set(atoms(c))
    if pair is not None:
        members.update(Sum(a, b) for a in atoms(pair[0]) for b in atoms(pair[1]))
    return members
