"""Herbrand congruences over a term universe and their meet semilattice.

A congruence on the universe (atoms plus ordered atom pairs) satisfies:

  C1  distinct constants (including the reserved pair) lie in distinct
      classes;
  C2  two compound terms share a class exactly when their left operands
      share a class and their right operands share a class;
  C3  a class containing a constant contains, besides that constant, only
      variables.

By C2 a pair's class is a function of its operands' classes. So a
``Partition`` holds m atom labels and, per atom class, at most one
definition: the operand class pair whose pairs lie in that class (the
strong equivalence DAG of Gulwani and Necula, SAS 2004, cut to depth 1).
Every undefined operand class pair is a class of pairs only. Queries number
the classes as first occurrence over the universe would: the k atom classes
0..k-1, then the undefined pair classes (l, r) in lexicographic order.
``get_class`` reads one class from the labels and definitions; the report
lists a value's classes from the same two tuples itself.

``TOP`` is an artificial greatest element, so that the meet of an empty
collection is defined. Lattice values compare with ``==``, and equal values
hash equal. The meet is the product of the two partitions (Kildall, POPL
1973). ``meet`` builds it only when six cheap exits fail, in this order:
the same object on both sides, ``TOP`` on either side, the universe check,
equal labels and definitions, the finest congruence on either side, and a
left operand that refines the right. All but the last cost O(1), two tuple
compares or one pass over k definitions; the refinement test is O(m) plus
O(k) over the left side's definitions. The running path meet of
``mop_table`` rarely gets past them; the README gives the counts on the
``perfbench`` chains.

``term_value`` folds a term of any depth bottom-up into an ``int`` class
label or a pair (tuple) of operand values, collapsing each operand pair of
atom classes into its pair class. Two terms of any depth are equivalent
under a value exactly when their values coincide.

Equivalence under a value is exact for that value, and the value is a
sound under-approximation of Herbrand equivalence: a definition is dropped
once its operand class has no atom, and the depth-2 fact it carried cannot
come back. In the README's 7-line program, y+c ≡ z holds at node 5 on the
only path, but ``equivalent`` returns ``False`` there.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Callable, Hashable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import count
from typing import Union

from .errors import DeclarationError, UniverseMismatchError
from .terms import Atom, Sum, Term, TermUniverse


class Top:
    """The artificial greatest element; meet with anything returns the other side."""

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Top)

    def __hash__(self) -> int:
        return hash(Top)

    def __repr__(self) -> str:
        return "TOP"


TOP = Top()


@dataclass(frozen=True, init=False)
class Partition:
    """A congruence of the universe terms, canonically labeled.

    ``atoms[i]`` is the class of ``universe.atoms[i]``, and ``defs[c]`` is
    ``None`` or the operand class pair ``(l, r)`` of the pairs in atom class
    ``c``. The constructor accepts any hashable keys for the atoms and, for
    the definitions, a mapping from key to a pair of keys or a sequence read
    as the mapping from each index to its entry. It renumbers the
    keys densely in first-occurrence order and drops a definition whose class
    or operand key no atom has, since no universe pair can then reach it.
    A definition other than ``None`` that is not two keys raises
    ``ValueError``, and so do two classes with one definition, which would
    be one class. The hand-written ``__init__`` does all of this in one
    pass and computes the hash there, once per value.
    """

    universe: TermUniverse
    atoms: tuple[int, ...]
    defs: tuple[tuple[int, int] | None, ...]

    def __init__(self, universe: TermUniverse, atoms: Iterable[Hashable], defs: Mapping | Sequence) -> None:
        keys = tuple(atoms)
        if len(keys) != len(universe.atoms):
            raise ValueError(f"expected {len(universe.atoms)} atom labels, got {len(keys)}")
        ids = dict(zip(dict.fromkeys(keys), count()))
        get = ids.get
        out: list[tuple[int, int] | None] = [None] * len(ids)
        for key, pair in defs.items() if hasattr(defs, "items") else enumerate(defs):
            if pair is not None:
                left, right = pair
                c, left, right = get(key), get(left), get(right)
                if c is not None and left is not None and right is not None:
                    out[c] = (left, right)
        # the definitions are distinct exactly when only None repeats in out
        if len(set(out)) + out.count(None) - (None in out) != len(out):
            raise ValueError("two atom classes share a definition")
        labels, pairs = tuple(map(get, keys)), tuple(out)
        self.__dict__.update(universe=universe, atoms=labels, defs=pairs, _hash=hash((labels, pairs)))

    def __hash__(self) -> int:
        # equal partitions have equal labels and definitions; the generated
        # __eq__ still tells partitions over different universes apart
        return self._hash

    @cached_property
    def _pair_class(self) -> Callable[[int, int], int]:
        """Maps operand atom classes ``(l, r)`` to the label of their pair
        class. Built once per partition, on the first query, from the O(k)
        definitions."""
        k = len(self.defs)
        defined = {pair: c for c, pair in enumerate(self.defs) if pair is not None}
        below = sorted(defined)

        def label(left: int, right: int) -> int:
            c = defined.get((left, right))
            return k + left * k + right - bisect_left(below, (left, right)) if c is None else c

        return label

    def class_of(self, t: Term) -> int:
        if t not in self.universe:
            raise DeclarationError(f"term not in universe: {t}")
        return term_value(t, self)


LatticeElem = Union[Top, Partition]


def is_top(elem: LatticeElem) -> bool:
    return isinstance(elem, Top)


def bottom(universe: TermUniverse) -> Partition:
    """The finest partition: every universe term in its own class."""
    return Partition(universe, range(len(universe.atoms)), {})


def term_value(t: Term, p: Partition) -> int | tuple:
    """Canonical class value of a term of arbitrary depth under ``p``: an
    ``int`` class label, or the pair of the operand values of a sum whose
    operands are not both atom classes. Equal values mean equivalence under
    ``p``, which is exact for ``p`` but may miss a Herbrand equivalence that
    ``p``'s depth-1 definitions could not keep (see the module docstring)."""
    index, k = p.universe.index, len(p.defs)
    label = p._pair_class

    def value(t: Term) -> int | tuple:
        if isinstance(t, Atom):
            pos = index.get(t)
            if pos is None:
                raise DeclarationError(f"undeclared atom {t.name!r}")
            return p.atoms[pos]
        assert isinstance(t, Sum)
        left, right = value(t.left), value(t.right)
        if type(left) is int and type(right) is int and left < k and right < k:
            return label(left, right)
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
    4. Equal ``atoms`` and ``defs`` tuples: ``l1``, two tuple compares.
    5. The finest congruence, m atom classes and no definition, on either
       side: that side, ``l1`` tested first. It is the least element, so it
       is the product. One length compare and one ``any`` over the k
       definitions per side.
    6. ``l1`` refines ``l2``: ``l1``. One map from each ``l1`` atom class to
       an ``l2`` class, checked against ``l2``'s labels in O(m); when ``l1``
       defines some class, its O(k) definitions are also checked against
       ``l2``'s.
    """
    if l1 is l2:
        return l1
    if type(l1) is Top:
        return l2
    if type(l2) is Top:
        return l1
    if l1.universe is not l2.universe:
        raise UniverseMismatchError("partitions built over different universes")
    atoms1, atoms2, defs1, defs2 = l1.atoms, l2.atoms, l1.defs, l2.defs
    if atoms1 == atoms2 and defs1 == defs2:
        return l1
    # the finest congruence is the least element: its product with any
    # congruence has m singleton atom classes and no definition, so is itself
    if len(defs1) == len(atoms1) and not any(defs1):
        return l1
    if len(defs2) == len(atoms2) and not any(defs2):
        return l2
    image = dict(zip(atoms1, atoms2))
    if tuple(map(image.__getitem__, atoms1)) == atoms2:
        # the product has l1's atom classes, each inside its image in l2; it
        # keeps l1's definitions when l2 defines each image by the images of
        # the operand classes (a definition is a pair, so ``any`` finds one)
        if not any(defs1) or all(
            d is None or defs2[image[c]] == (image[d[0]], image[d[1]]) for c, d in enumerate(defs1)
        ):
            return l1
    keys = list(zip(atoms1, atoms2))
    defs = {
        (c1, c2): tuple(zip(defs1[c1], defs2[c2]))
        for c1, c2 in dict.fromkeys(keys)
        if defs1[c1] is not None and defs2[c2] is not None
    }
    return Partition(l1.universe, keys, defs)


def refines(l1: LatticeElem, l2: LatticeElem) -> bool:
    """True iff every class of ``l1`` is contained in a class of ``l2``."""
    return meet(l1, l2) == l1


def get_class(t: Term, p: Partition) -> set[Term]:
    """All universe terms sharing the class of ``t``: the atoms labeled with
    its class and the pairs over the class's operand class pair, read from
    ``p``'s labels and definitions in O(m + |class|)."""
    c = p.class_of(t)

    def atoms(d: int) -> list[Atom]:
        return [a for a, label in zip(p.universe.atoms, p.atoms) if label == d]

    # a class past the atom classes has no atoms, and its pairs are those
    # over the classes of ``t``'s own operands
    pair = p.defs[c] if c < len(p.defs) else (p.class_of(t.left), p.class_of(t.right))
    members: set[Term] = set(atoms(c))
    if pair is not None:
        members.update(Sum(a, b) for a in atoms(pair[0]) for b in atoms(pair[1]))
    return members
