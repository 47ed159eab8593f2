"""Term algebra: atoms, ordered sums, and the finite universe of
depth-limited expressions the analysis operates on.

Terms are built from declared variables and constants with a single binary
operator ``+`` treated as uninterpreted (no commutativity, no arithmetic).
An atom is itself a term, so ``Term = Atom | Sum``: a variable, a constant
or a sum of two terms. The universe of a program consists of every atom plus
every ordered pair of atoms under ``+``, but a ``TermUniverse`` stores only
its m atoms: ``len(universe)`` is |U| = m + m², and a ``Sum`` of two of them
is ``in`` it. A class query takes an atom as it is: ``p.class_of(atom)``,
and ``congruence.term_value`` gives an ``int`` class label or a pair.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Union

from .errors import DeclarationError, ParseError

VARIABLE = "variable"
CONSTANT = "constant"
RESERVED = "reserved"

IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

# Two constants that no source program can name ('$' is not a legal
# identifier character), so a pair of fresh distinct constants always exists.
RESERVED_NAMES = ("$nd1", "$nd2")

# The most parenthesis levels ``parse_term`` reads. It recurses once per
# level, so a deeper text raises ``ParseError`` before any recursion.
MAX_TERM_DEPTH = 100

# The most nested sums a term may have: a top-level sum over MAX_TERM_DEPTH
# parenthesised ones, the deepest term ``parse_term`` returns.
# ``format_term``, ``occurs``, ``congruence.term_value`` and ``hash`` recurse
# once per level, so ``Sum`` raises ``ValueError`` on a deeper term, however
# it is built.
MAX_SUM_DEPTH = MAX_TERM_DEPTH + 1


@dataclass(frozen=True)
class Atom:
    kind: str
    name: str

    # the number of nested sums, 0 for an atom; not a field
    depth = 0

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, init=False)
class Sum:
    """An ordered sum. Its ``depth``, one more than its deeper operand's, is
    kept outside the fields, so ``==``, ``hash`` and ``repr`` read only the
    operands."""

    left: Term
    right: Term

    def __init__(self, left: Term, right: Term) -> None:
        depth = max(left.depth, right.depth) + 1
        if depth > MAX_SUM_DEPTH:
            raise ValueError(f"term nests sums more than {MAX_SUM_DEPTH} deep")
        self.__dict__.update(left=left, right=right, depth=depth)


Term = Union[Atom, Sum]


def occurs(t: Term, x: Atom) -> bool:
    """True iff the atom ``x`` appears anywhere in ``t``."""
    if isinstance(t, Atom):
        return t == x
    assert isinstance(t, Sum)
    return occurs(t.left, x) or occurs(t.right, x)


@dataclass(frozen=True, eq=False)
class TermUniverse:
    """The finite expression universe: all atoms and all atom pairs.

    ``index`` maps each of the m atoms to its position; ``len(universe)`` is
    |U| = m + m². ``terms`` is every atom and then, row by row, the pair of
    atoms i and j at position m + i*m + j; it is built on first read, by
    tests and the benchmark, never by the CLI. ``positions`` is the tuple
    0..m-1, built on first read by ``bottom`` or ``meet``. Universes compare
    by identity; one run shares one universe.
    """

    variables: tuple[Atom, ...]
    constants: tuple[Atom, ...]
    reserved: tuple[Atom, Atom]
    atoms: tuple[Atom, ...]
    index: dict[Atom, int]
    by_name: dict[str, Atom]

    def __len__(self) -> int:
        return len(self.atoms) * (len(self.atoms) + 1)

    def __contains__(self, t: object) -> bool:
        return t.left in self.index and t.right in self.index if type(t) is Sum else t in self.index

    @cached_property
    def positions(self) -> tuple[int, ...]:
        """The atom positions 0..m-1: the labels of the finest congruence."""
        return tuple(range(len(self.atoms)))

    @cached_property
    def terms(self) -> tuple[Term, ...]:
        return (*self.atoms, *(Sum(a, b) for a in self.atoms for b in self.atoms))

    def resolve(self, name: str) -> Atom:
        atom = self.by_name.get(name)
        if atom is None:
            raise DeclarationError(f"undeclared name {name!r}")
        return atom


def build_universe(variables: list[str], constants: list[str]) -> TermUniverse:
    """Build the universe for the declared names plus the reserved constants."""
    seen: set[str] = set()
    for name in list(variables) + list(constants):
        if not IDENT_RE.match(name):
            raise DeclarationError(f"invalid identifier {name!r}")
        if name in seen:
            raise DeclarationError(f"duplicate declaration of {name!r}")
        seen.add(name)

    var_atoms = tuple(Atom(VARIABLE, n) for n in variables)
    const_atoms = tuple(Atom(CONSTANT, n) for n in constants)
    reserved = (Atom(RESERVED, RESERVED_NAMES[0]), Atom(RESERVED, RESERVED_NAMES[1]))
    atoms = var_atoms + const_atoms + reserved

    return TermUniverse(
        variables=var_atoms,
        constants=const_atoms,
        reserved=reserved,
        atoms=atoms,
        index={a: i for i, a in enumerate(atoms)},
        by_name={a.name: a for a in atoms},
    )


def parse_term(text: str, universe: TermUniverse) -> Term:
    """Parse ``operand`` or ``operand + operand`` against the universe's
    declarations, where an operand is an atom or a parenthesised term, as
    ``format_term`` writes them. Only blanks and tabs, the program format's
    separators, may surround an operand. Operands nest at most
    ``MAX_TERM_DEPTH`` parentheses deep."""
    expr = text.strip(" \t")
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(expr):
        if ch in "()":
            depth += 1 if ch == "(" else -1
            if not 0 <= depth <= MAX_TERM_DEPTH:
                break
        elif ch == "+" and not depth:
            parts.append(expr[start:i])
            start = i + 1
    if depth > MAX_TERM_DEPTH:
        raise ParseError(f"expression nests parentheses more than {MAX_TERM_DEPTH} deep")
    if depth:
        raise ParseError(f"unbalanced parentheses in {expr!r}")
    parts.append(expr[start:])
    if len(parts) > 2:
        raise ParseError(f"expression {expr!r} nests more than one '+'")
    names = [p.strip(" \t") for p in parts]
    if not all(names):
        raise ParseError(f"malformed expression {expr!r}")
    for n in names:
        if not (IDENT_RE.match(n) or n[0] == "(" and n[-1] == ")"):
            raise ParseError(f"invalid atom {n!r}")
    terms = [parse_term(n[1:-1], universe) if n[0] == "(" else universe.resolve(n) for n in names]
    return terms[0] if len(terms) == 1 else Sum(*terms)


def format_term(t: Term) -> str:
    """Render a term; nested sums are fully parenthesized."""
    if isinstance(t, Atom):
        return t.name
    assert isinstance(t, Sum)

    def wrap(s: Term) -> str:
        text = format_term(s)
        return f"({text})" if isinstance(s, Sum) else text

    return f"{wrap(t.left)}+{wrap(t.right)}"
