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

``Partition`` itself admits arbitrary partitions; ``congruence_violations``
checks the axioms diagnostically. The lattice adds an artificial greatest
element ``TOP`` so that the meet of an empty collection is defined.

Queries about terms deeper than the universe go through ``term_value``: the
class structure of a deep term is folded bottom-up, collapsing any operand
pair that matches the class pattern of some universe compound (well defined
by C2). Two terms of any depth are equivalent exactly when their values
coincide.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count, product
from typing import Iterable, Union

from .errors import DeclarationError, UniverseMismatchError
from .terms import AtomRef, Sum, Term, TermUniverse


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
    or a meet.
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


@dataclass(frozen=True)
class Base:
    cls: int


@dataclass(frozen=True)
class Pair:
    left: "ExtendedValue"
    right: "ExtendedValue"


ExtendedValue = Union[Base, Pair]


def term_value(t: Term, p: Partition) -> ExtendedValue:
    """Canonical class value of a term of arbitrary depth under ``p``."""
    index = p.universe.index
    pair_classes: dict[tuple[int, int], int] | None = None  # built on first need

    def value(t: Term) -> ExtendedValue:
        nonlocal pair_classes
        pos = index.get(t)
        if pos is not None:
            return Base(p.labels[pos])
        if isinstance(t, AtomRef):
            raise DeclarationError(f"undeclared atom {t.atom.name!r}")
        assert isinstance(t, Sum)
        v1 = value(t.left)
        v2 = value(t.right)
        if isinstance(v1, Base) and isinstance(v2, Base):
            if pair_classes is None:
                pair_classes = p.pair_classes()
            cls = pair_classes.get((v1.cls, v2.cls))
            if cls is not None:
                return Base(cls)
        return Pair(v1, v2)

    return value(t)


def equivalent(t1: Term, t2: Term, p: Partition) -> bool:
    return term_value(t1, p) == term_value(t2, p)


def _require_same_universe(a: Partition, b: Partition) -> None:
    if a.universe is not b.universe:
        raise UniverseMismatchError("partitions built over different universes")


def meet(l1: LatticeElem, l2: LatticeElem) -> LatticeElem:
    """Greatest lower bound: pairwise nonempty class intersections."""
    if is_top(l1):
        return l2
    if is_top(l2):
        return l1
    assert isinstance(l1, Partition) and isinstance(l2, Partition)
    _require_same_universe(l1, l2)
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
    _require_same_universe(l1, l2)
    image: dict[int, int] = {}
    for a, b in zip(l1.labels, l2.labels):
        if image.setdefault(a, b) != b:
            return False
    return True


def partitions_equal(l1: LatticeElem, l2: LatticeElem) -> bool:
    """Label-independent equality (labels are already canonical)."""
    if is_top(l1) or is_top(l2):
        return is_top(l1) and is_top(l2)
    assert isinstance(l1, Partition) and isinstance(l2, Partition)
    _require_same_universe(l1, l2)
    return l1.labels == l2.labels


def get_class(t: Term, p: Partition) -> set[Term]:
    """All universe terms sharing the class of ``t``."""
    lab = p.class_of(t)
    return {s for s, l in zip(p.universe.terms, p.labels) if l == lab}


@dataclass(frozen=True)
class Violation:
    axiom: str
    witness: tuple[Term, ...]
    detail: str


def congruence_violations(p: Partition) -> list[Violation]:
    """Check axioms C1, C2, C3 over the whole universe; empty means valid."""
    u = p.universe
    m = len(u.atoms)
    out: list[Violation] = []

    # C1: a class may hold at most one constant.
    const_in_class: dict[int, Term] = {}
    for i, atom in enumerate(u.atoms):
        if not atom.is_constant():
            continue
        t = u.terms[i]
        other = const_in_class.setdefault(p.labels[i], t)
        if other is not t:
            out.append(Violation("C1", (other, t), "distinct constants share a class"))

    # C2 forward: equal operand classes force equal compound classes.
    # C2 backward: a compound class determines its operand class pattern.
    by_key: dict[tuple[int, int], tuple[Term, int]] = {}
    by_label: dict[int, tuple[Term, tuple[int, int]]] = {}
    for pos in range(m, len(u.terms)):
        i, j = u.pair_operands(pos)
        key = (p.labels[i], p.labels[j])
        t = u.terms[pos]
        lab = p.labels[pos]
        prev = by_key.setdefault(key, (t, lab))
        if prev[1] != lab:
            out.append(
                Violation(
                    "C2",
                    (prev[0], t),
                    "operand classes match but compounds are in distinct classes",
                )
            )
        prev_l = by_label.setdefault(lab, (t, key))
        if prev_l[1] != key:
            out.append(
                Violation(
                    "C2",
                    (prev_l[0], t),
                    "compounds share a class but operand classes differ",
                )
            )

    # C3: besides the constant itself, only variables may join a constant's class.
    const_labels = {p.labels[i]: u.terms[i] for i, a in enumerate(u.atoms) if a.is_constant()}
    for pos in range(m, len(u.terms)):
        c = const_labels.get(p.labels[pos])
        if c is not None:
            out.append(
                Violation("C3", (c, u.terms[pos]), "compound term congruent to a constant")
            )
    return out


def is_congruence(p: Partition) -> bool:
    return not congruence_violations(p)
