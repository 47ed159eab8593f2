"""Term algebra: atoms, ordered sums, and the finite universe of
depth-limited expressions the analysis operates on.

Terms are built from declared variables and constants with a single binary
operator ``+`` treated as uninterpreted (no commutativity, no arithmetic).
An atom is itself a term, so ``Term = Atom | Sum``: a variable, a constant
or a sum of two terms. The universe of a program consists of every atom plus
every ordered pair of atoms under ``+``. A ``TermUniverse`` is built from
the declared names alone, so no two of its fields can disagree and every
atom obeys the name rule. It stores only its m atoms: ``len(universe)`` is
|U| = m + m², and a ``Sum`` of two of them is ``in`` it. A class query
takes an atom as it is: ``p.class_of(atom)``, and ``congruence.term_value``
gives an ``int`` class label or a pair.
"""

from __future__ import annotations

import re
from functools import cached_property
from typing import NamedTuple, Union

from .errors import DeclarationError, ParseError

VARIABLE = "variable"
CONSTANT = "constant"
RESERVED = "reserved"

# the spelling of a declared name; the program grammar is built from it too
IDENT = "[A-Za-z_][A-Za-z0-9_]*"
IDENT_RE = re.compile(rf"{IDENT}\Z")

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


class Frozen:
    """The base of the immutable value classes that are not tuples. Their
    ``_fields`` are set once, through ``__dict__``, by ``__init__``, and
    fix ``==``, the hash and the repr as a frozen dataclass's would: equal
    only to the same class with equal fields, the hash of the field tuple,
    and ``Name(field=value, ...)``. Setting or deleting an attribute raises
    ``AttributeError``."""

    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{name}={getattr(self, name)!r}' for name in self._fields)})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Atom(NamedTuple):
    kind: str
    name: str

    # the number of nested sums, 0 for an atom; not a field
    depth = 0

    def __str__(self) -> str:
        return self.name


class Sum(Frozen):
    """An ordered sum. Its ``depth``, one more than its deeper operand's, is
    kept outside the fields, so ``==``, ``hash`` and ``repr`` read only the
    operands."""

    _fields = ("left", "right")

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


class TermUniverse(Frozen):
    """The finite expression universe: all atoms and all atom pairs.

    It is built from the declared names alone: ``TermUniverse(variables,
    constants)`` checks that each is an ``IDENT_RE`` name declared once and
    derives every field from them, so the only other names in a universe
    are the two ``RESERVED_NAMES``. ``atoms`` is the variables, then the
    constants, then the reserved pair. ``index`` maps each of the m atoms to
    its position and ``by_name`` each name to its atom; ``len(universe)`` is
    |U| = m + m². ``terms`` is every atom and then, row by row, the pair of
    atoms i and j at position m + i*m + j; it is built on first read, by
    tests and the benchmark, never by the CLI. ``positions`` is the tuple
    0..m-1, built on first read by ``bottom`` or by the ``Partition``
    constructor, which compares the labels of a value with no triple to it
    once and sets the flag that ``meet`` reads in its place. Universes
    compare and hash by identity; one run shares one universe.
    """

    _fields = ("variables", "constants", "reserved", "atoms", "index", "by_name")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, variables: list[str], constants: list[str]) -> None:
        seen: set[str] = set()
        for name in [*variables, *constants]:
            # the name rule: an identifier, declared once
            if not IDENT_RE.match(name):
                raise DeclarationError(f"invalid identifier {name!r}")
            if name in seen:
                raise DeclarationError(f"duplicate declaration of {name!r}")
            seen.add(name)
        fields = {
            "variables": tuple(Atom(VARIABLE, n) for n in variables),
            "constants": tuple(Atom(CONSTANT, n) for n in constants),
            "reserved": (Atom(RESERVED, RESERVED_NAMES[0]), Atom(RESERVED, RESERVED_NAMES[1])),
        }
        atoms = fields["atoms"] = fields["variables"] + fields["constants"] + fields["reserved"]
        fields.update(index={a: i for i, a in enumerate(atoms)}, by_name={a.name: a for a in atoms})
        self.__dict__.update(fields)

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


# the universe of the declared names; the name ``program.parse_program``
# calls and the benchmark traces
build_universe = TermUniverse


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
