"""Parser for the ``.dfg`` program format.

A program is a sequence of declaration and node lines; ``#`` starts a
comment. Lines end at LF, CR LF or CR, and only ASCII blanks and tabs
separate tokens; any other character outside a comment, a Unicode space or
line separator included, is a parse error. Declarations may appear
anywhere and accumulate:

    vars x y
    consts a
    node 1 entry
    node 2 assign x := a pred 1
    node 3 nondet y pred 2
    node 4 confluence pred 2 3

Assignments take an atom or a sum of two atoms on the right-hand side, and
the assigned variable may not appear there; deeper expressions must be split
across temporaries by the author. Node 1 must be the unique entry. All
structural rules are enforced, and every diagnostic carries a line number
where one applies.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .dataflow import Confluence, Entry, FlowGraph, Function, NodeKind, validate_graph
from .errors import DeclarationError, GraphError, ParseError, SelfReferenceError
from .terms import IDENT_RE, AtomRef, Sum, Term, TermUniverse, VARIABLE, build_universe, occurs
from .transfer import Assign, NonDet

_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|[0-9]+|:=|\+")
# the line ends of universal newlines, as the command line reads a file;
# str.splitlines would also break at "\f", "\v", U+2028 and more
LINE_END_RE = re.compile(r"\r\n?|\n")


@dataclass
class _NodeLine:
    node_id: int
    form: str
    names: list[str]
    preds: list[int]
    line: int


@dataclass
class ProgramSource:
    """Scanned but not yet resolved program text."""

    variables: list[str] = field(default_factory=list)
    constants: list[str] = field(default_factory=list)
    nodes: dict[int, _NodeLine] = field(default_factory=dict)
    decl_lines: dict[str, int] = field(default_factory=dict)


def _tokenize(text: str, line_no: int) -> list[str]:
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        if text[pos] in " \t":
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", line=line_no)
        tokens.append(m.group())
        pos = m.end()
    return tokens


class _Cursor:
    def __init__(self, tokens: list[str], line_no: int):
        self.tokens = tokens
        self.pos = 0
        self.line = line_no

    def done(self) -> bool:
        return self.pos >= len(self.tokens)

    def take(self, what: str) -> str:
        if self.done():
            raise ParseError(f"expected {what} at end of line", line=self.line)
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, literal: str) -> None:
        tok = self.take(repr(literal))
        if tok != literal:
            raise ParseError(f"expected {literal!r}, got {tok!r}", line=self.line)

    def ident(self) -> str:
        tok = self.take("identifier")
        if not IDENT_RE.match(tok):
            raise ParseError(f"expected identifier, got {tok!r}", line=self.line)
        return tok

    def integer(self) -> int:
        tok = self.take("integer")
        if not (tok.isascii() and tok.isdigit()):
            raise ParseError(f"expected integer, got {tok!r}", line=self.line)
        return int(tok)

    def finish(self) -> None:
        if not self.done():
            raise ParseError(f"trailing input {' '.join(self.tokens[self.pos:])!r}", line=self.line)


def _scan(text: str) -> ProgramSource:
    src = ProgramSource()
    for line_no, raw in enumerate(LINE_END_RE.split(text), start=1):
        body = raw.split("#", 1)[0]
        tokens = _tokenize(body, line_no)
        if not tokens:
            continue
        cur = _Cursor(tokens, line_no)
        head = cur.take("'vars', 'consts' or 'node'")
        if head in ("vars", "consts"):
            names = []
            while not cur.done():
                names.append(cur.ident())
            if not names:
                raise ParseError(f"{head!r} needs at least one name", line=line_no)
            for name in names:
                if name in src.decl_lines:
                    raise DeclarationError(
                        f"{name!r} already declared on line {src.decl_lines[name]}",
                        line=line_no,
                    )
                src.decl_lines[name] = line_no
            (src.variables if head == "vars" else src.constants).extend(names)
        elif head == "node":
            node_id = cur.integer()
            if node_id in src.nodes:
                raise ParseError(
                    f"node {node_id} already defined on line {src.nodes[node_id].line}",
                    line=line_no,
                )
            form = cur.take("node kind")
            if form == "entry":
                entry = _NodeLine(node_id, "entry", [], [], line_no)
            elif form == "assign":
                target = cur.ident()
                cur.expect(":=")
                names = [target, cur.ident()]
                if not cur.done() and cur.tokens[cur.pos] == "+":
                    cur.expect("+")
                    names.append(cur.ident())
                cur.expect("pred")
                entry = _NodeLine(node_id, "assign", names, [cur.integer()], line_no)
            elif form == "nondet":
                target = cur.ident()
                cur.expect("pred")
                entry = _NodeLine(node_id, "nondet", [target], [cur.integer()], line_no)
            elif form == "confluence":
                cur.expect("pred")
                entry = _NodeLine(
                    node_id, "confluence", [], [cur.integer(), cur.integer()], line_no
                )
            else:
                raise ParseError(
                    f"unknown node kind {form!r} (expected entry, assign, nondet or confluence)",
                    line=line_no,
                )
            cur.finish()
            src.nodes[node_id] = entry
        else:
            raise ParseError(f"unexpected {head!r} at start of line", line=line_no)
    return src


def _resolve_variable(universe: TermUniverse, name: str, line: int):
    atom = universe.by_name.get(name)
    if atom is None:
        raise DeclarationError(f"undeclared variable {name!r}", line=line)
    if atom.kind != VARIABLE:
        raise DeclarationError(f"{name!r} is a constant, not a variable", line=line)
    return atom


def _resolve_rhs(universe: TermUniverse, names: list[str], line: int) -> Term:
    refs = []
    for name in names:
        atom = universe.by_name.get(name)
        if atom is None:
            raise DeclarationError(f"undeclared name {name!r}", line=line)
        refs.append(AtomRef(atom))
    return refs[0] if len(refs) == 1 else Sum(refs[0], refs[1])


def parse_program(text: str) -> tuple[TermUniverse, FlowGraph]:
    """Parse and validate a program, returning its universe and flow graph."""
    src = _scan(text)
    universe = build_universe(src.variables, src.constants)

    kinds: dict[int, NodeKind] = {}
    preds: dict[int, list[int]] = {}
    lines: dict[int, int] = {}
    for node_id, nl in src.nodes.items():
        lines[node_id] = nl.line
        preds[node_id] = nl.preds
        if nl.form == "entry":
            kinds[node_id] = Entry()
        elif nl.form == "assign":
            target = _resolve_variable(universe, nl.names[0], nl.line)
            rhs = _resolve_rhs(universe, nl.names[1:], nl.line)
            if occurs(rhs, target):
                raise SelfReferenceError(
                    f"{target.name!r} appears in its own right-hand side", line=nl.line
                )
            kinds[node_id] = Function(Assign(target, rhs))
        elif nl.form == "nondet":
            target = _resolve_variable(universe, nl.names[0], nl.line)
            kinds[node_id] = Function(NonDet(target))
        else:
            kinds[node_id] = Confluence()

    try:
        graph = validate_graph(kinds, preds)
    except GraphError as err:
        line = lines.get(err.node) if err.node is not None else None
        if line is not None and err.line is None:
            raise GraphError(str(err), line=line, node=err.node) from None
        raise
    return universe, graph
