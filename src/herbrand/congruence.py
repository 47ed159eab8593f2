"""Congruence partitions over a term universe and their meet semilattice.

A ``Partition`` assigns every universe term a dense class label. Labels are
canonicalized to first-occurrence order at construction, so structurally
equal partitions compare equal no matter how their classes were numbered.
A well-formed congruence additionally satisfies three axioms:

  C1  distinct constants (including the reserved pair) lie in distinct
      classes;
  C2  two compound terms share a class exactly when their left operands
      share a class and their right operands share a class;
  C3  a class containing a constant contains, besides that constant, only
      variables.

``Partition`` itself admits arbitrary partitions; the transfers and the
meet preserve the axioms, and the tests check them. The lattice adds an
artificial greatest element ``TOP`` so that the meet of an empty collection
is defined. Lattice values compare with ``==``: two partitions are equal
when they share the universe object and the canonical labels, and equal
values hash equal (a partition hashes its labels once, at construction).

The meet is the product of the two partitions (Kildall, POPL 1973). When the
left operand already refines the right one that product is the left operand
itself, so ``meet`` returns it unchanged and builds no new partition; the
running path meet of ``mop_table`` almost always takes this route.

Terms are ``Atom | Sum``, so ``p.class_of(atom)`` takes an atom directly.
Queries about terms deeper than the universe go through ``term_value``: the
class structure of a deep term is folded bottom-up into an ``int`` class
label or a pair (tuple) of operand values, collapsing any operand pair that
matches the class pattern of some universe compound (well defined by C2).
Two terms of any depth are equivalent exactly when their values coincide.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count, product
from typing import Iterable, Union

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


@dataclass(frozen=True)
class Partition:
    """A partition of the universe terms, canonically labeled.

    ``labels[i]`` is the class of ``universe.terms[i]``. The constructor
    accepts any hashable grouping keys and renumbers them densely in first
    occurrence order, so callers may pass raw keys produced by a transfer
    or a meet. The hash of the canonical labels is computed once, here.
    """

    universe: TermUniverse
    labels: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.labels) != len(self.universe.terms):
            raise ValueError(
                f"expected {len(self.universe.terms)} labels, got {len(self.labels)}"
            )
        ids = dict(zip(dict.fromkeys(self.labels), count()))
        # via a list: tuple() of a map grows by repeated reallocation, which
        # raised the peak RSS of a large analysis
        dense = list(map(ids.__getitem__, self.labels))
        object.__setattr__(self, "labels", tuple(dense))
        object.__setattr__(self, "_hash", hash(self.labels))

    def __hash__(self) -> int:
        # equal partitions have equal labels; the generated __eq__ still
        # tells partitions over different universes apart
        return self._hash

    @property
    def num_classes(self) -> int:
        return max(self.labels, default=-1) + 1

    def class_of(self, t: Term) -> int:
        pos = self.universe.index.get(t)
        if pos is None:
            raise DeclarationError(f"term not in universe: {t}")
        return self.labels[pos]

    def classes(self) -> list[list[Term]]:
        """Class member lists, ordered by class label, members in term order."""
        out: list[list[Term]] = [[] for _ in range(self.num_classes)]
        for t, lab in zip(self.universe.terms, self.labels):
            out[lab].append(t)
        return out

    def pair_classes(self) -> dict[tuple[int, int], int]:
        """``(class(l), class(r)) -> class(l+r)`` over the universe pairs.

        Functional by C2; otherwise the last pair in row-major order wins.
        Built on each call and not cached, so a long-lived partition does not
        keep an up-to-m² dict alive.
        """
        m = len(self.universe.atoms)
        atom_labels = self.labels[:m]
        return dict(zip(product(atom_labels, atom_labels), self.labels[m:]))


LatticeElem = Union[Top, Partition]


def is_top(elem: LatticeElem) -> bool:
    return isinstance(elem, Top)


def bottom(universe: TermUniverse) -> Partition:
    """The finest partition: every universe term in its own class."""
    return Partition(universe, tuple(range(len(universe.terms))))


# an int class label, or the pair of the operand values of a sum that no
# universe pair matches
ExtendedValue = Union[int, tuple["ExtendedValue", "ExtendedValue"]]


def term_value(t: Term, p: Partition) -> ExtendedValue:
    """Canonical class value of a term of arbitrary depth under ``p``."""
    index = p.universe.index
    pair_classes: dict[tuple[int, int], int] | None = None  # built on first need

    def value(t: Term) -> ExtendedValue:
        nonlocal pair_classes
        pos = index.get(t)
        if pos is not None:
            return p.labels[pos]
        if isinstance(t, Atom):
            raise DeclarationError(f"undeclared atom {t.name!r}")
        assert isinstance(t, Sum)
        pair = (value(t.left), value(t.right))
        if pair_classes is None:
            pair_classes = p.pair_classes()
        return pair_classes.get(pair, pair)

    return value(t)


def equivalent(t1: Term, t2: Term, p: Partition) -> bool:
    return term_value(t1, p) == term_value(t2, p)


def meet(l1: LatticeElem, l2: LatticeElem) -> LatticeElem:
    """Greatest lower bound: pairwise nonempty class intersections.

    ``l1`` itself when it already refines ``l2``.
    """
    if is_top(l1):
        return l2
    if is_top(l2):
        return l1
    assert isinstance(l1, Partition) and isinstance(l2, Partition)
    if refines(l1, l2):
        return l1
    return Partition(l1.universe, tuple(zip(l1.labels, l2.labels)))


def meet_all(elems: Iterable[LatticeElem]) -> LatticeElem:
    """Fold of ``meet``; the empty collection yields ``TOP``."""
    acc: LatticeElem = TOP
    for elem in elems:
        acc = meet(acc, elem)
    return acc


def refines(l1: LatticeElem, l2: LatticeElem) -> bool:
    """True iff every class of ``l1`` is contained in a class of ``l2``."""
    if is_top(l2):
        return True
    if is_top(l1):
        return False
    assert isinstance(l1, Partition) and isinstance(l2, Partition)
    if l1.universe is not l2.universe:
        raise UniverseMismatchError("partitions built over different universes")
    a, b = l1.labels, l2.labels
    # map each class of l1 to a class of l2 it meets; l1 refines l2 exactly
    # when that map sends every position to its own l2 label
    image = dict(zip(a, b))
    return tuple(map(image.__getitem__, a)) == b


def get_class(t: Term, p: Partition) -> set[Term]:
    """All universe terms sharing the class of ``t``."""
    lab = p.class_of(t)
    return {s for s, l in zip(p.universe.terms, p.labels) if l == lab}
