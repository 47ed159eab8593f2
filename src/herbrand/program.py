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

Each line is read once by ``_LINE_RE``, which matches every well-formed
line in its plain spelling: a blank line, ``vars`` or ``consts`` with one or
more names, or a node line with blanks or tabs between all its words (they
may be left out around ``:=`` and ``+``) and integers of at most 18 digits.
That fast reader raises nothing: it declines a line it does not match, a
node id already defined and a name already declared or repeated on its line.
A declined line goes to the tokenizer and ``_Cursor``, which can read any
line and are the one place that words and raises a diagnostic; so the
errors do not depend on the fast reader, and legal lines it leaves out,
such as ``node 1entry``, still parse.

Nodes with equal statements share one statement object: ``parse_program``
resolves and checks each distinct ``(form, names)`` once, on the first
line that has it (a pass over the analyze-deep programs of ``perfbench``
builds about 420 statements for its 1,180 nodes). Only a statement that
was built is kept, so a bad one raises on the first line that names it.
"""

from __future__ import annotations

import re

from .dataflow import ARITY, Confluence, Entry, FlowGraph, NodeKind, validate_graph
from .errors import AnalysisError, DeclarationError, GraphError, ParseError
from .terms import IDENT_RE, Sum, TermUniverse, VARIABLE, build_universe
from .transfer import Assign, NonDet

_ID = "[A-Za-z_][A-Za-z0-9_]*"
# a token, or in the second group the first character that starts none;
# blanks and tabs before either are skipped
_TOKEN_RE = re.compile(rf"[ \t]*(?:({_ID}|[0-9]+|:=|\+)|([^ \t]))")
_INT = "([0-9]{1,18})"  # far below the interpreter's limit on digits per int()
# every well-formed line in its plain spelling: a blank line, a declaration
# or a node, with blanks or tabs between words; its groups are (head, names,
# node id, entry, confluence, nondet, target, assign, target, rhs, rhs, pred,
# pred), and the second pred is read only after "confluence" (group 5)
_LINE_RE = re.compile(
    rf"[ \t]*(?:(vars|consts)((?:[ \t]+{_ID})+)|node[ \t]+{_INT}[ \t]+(?:(entry)|(?:(confluence)"
    rf"|(nondet)[ \t]+({_ID})|(assign)[ \t]+({_ID})[ \t]*:=[ \t]*({_ID})(?:[ \t]*\+[ \t]*({_ID}))?)"
    rf"[ \t]+pred[ \t]+{_INT}(?(5)[ \t]+{_INT})))?[ \t]*"
)
# the line ends of universal newlines, as the command line reads a file;
# str.splitlines would also break at "\f", "\v", U+2028 and more
LINE_END_RE = re.compile(r"\r\n?|\n")
_KINDS = {"entry": Entry, "assign": Assign, "nondet": NonDet, "confluence": Confluence}


def _tokenize(text: str, line_no: int) -> list[str]:
    tokens = []
    for token, bad in _TOKEN_RE.findall(text):
        if bad:
            raise ParseError(f"unexpected character {bad!r}", line=line_no)
        tokens.append(token)
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
        try:
            return int(tok)
        except ValueError:  # past the interpreter's limit on digits per integer
            raise ParseError(f"integer of {len(tok)} digits is too long", line=self.line) from None

    def finish(self) -> None:
        if not self.done():
            raise ParseError(f"trailing input {' '.join(self.tokens[self.pos:])!r}", line=self.line)


def _scan(text: str) -> tuple[list[str], list[str], dict[int, tuple[int, str, list[str], list[int]]]]:
    """Split the text into declared names and node lines, without resolving
    names; each node id maps to ``(line, kind, names, preds)``, where
    ``names`` holds an assignment's target and right-hand side atoms."""
    variables: list[str] = []
    constants: list[str] = []
    decl_lines: dict[str, int] = {}
    nodes: dict[int, tuple[int, str, list[str], list[int]]] = {}
    for line_no, raw in enumerate(LINE_END_RE.split(text), start=1):
        body = raw.split("#", 1)[0]
        match = _LINE_RE.fullmatch(body)
        if match is not None:  # the fast reader; what it declines, the cursor reads
            (head, names, node_id, entry, confluence, nondet, nd_target,
             assign, target, left, right, pred, pred2) = match.groups()
            if head is not None:
                names = names.split()
                if len(set(names)) == len(names) and decl_lines.keys().isdisjoint(names):
                    decl_lines.update(dict.fromkeys(names, line_no))
                    (variables if head == "vars" else constants).extend(names)
                    continue
            elif node_id is None:
                continue
            elif (node_id := int(node_id)) not in nodes:
                if entry:
                    nodes[node_id] = (line_no, entry, [], [])
                elif confluence:
                    nodes[node_id] = (line_no, confluence, [], [int(pred), int(pred2)])
                elif nondet:
                    nodes[node_id] = (line_no, nondet, [nd_target], [int(pred)])
                else:
                    names = [target, left] if right is None else [target, left, right]
                    nodes[node_id] = (line_no, assign, names, [int(pred)])
                continue
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
                if name in decl_lines:
                    raise DeclarationError(
                        f"{name!r} already declared on line {decl_lines[name]}", line=line_no
                    )
                decl_lines[name] = line_no
            (variables if head == "vars" else constants).extend(names)
        elif head == "node":
            node_id = cur.integer()
            if node_id in nodes:
                raise ParseError(
                    f"node {node_id} already defined on line {nodes[node_id][0]}", line=line_no
                )
            form = cur.take("node kind")
            if form not in _KINDS:
                raise ParseError(
                    f"unknown node kind {form!r} (expected entry, assign, nondet or confluence)",
                    line=line_no,
                )
            names = [cur.ident()] if form in ("assign", "nondet") else []
            if form == "assign":
                cur.expect(":=")
                names.append(cur.ident())
                if not cur.done() and cur.tokens[cur.pos] == "+":
                    cur.expect("+")
                    names.append(cur.ident())
            arity = ARITY[_KINDS[form]]
            if arity:
                cur.expect("pred")
            preds = [cur.integer() for _ in range(arity)]
            cur.finish()
            nodes[node_id] = (line_no, form, names, preds)
        else:
            raise ParseError(f"unexpected {head!r} at start of line", line=line_no)
    return variables, constants, nodes


def _kind(universe: TermUniverse, form: str, names: list[str]) -> NodeKind:
    if not names:  # entry and confluence points
        return _KINDS[form]()
    target = universe.by_name.get(names[0])
    if target is None:
        raise DeclarationError(f"undeclared variable {names[0]!r}")
    if target.kind != VARIABLE:
        raise DeclarationError(f"{names[0]!r} is a constant, not a variable")
    if form == "nondet":
        return NonDet(target)
    rhs = [universe.resolve(name) for name in names[1:]]
    return Assign(target, rhs[0] if len(rhs) == 1 else Sum(*rhs))


def parse_program(text: str) -> tuple[TermUniverse, FlowGraph]:
    """Parse and validate a program, returning its universe and flow graph."""
    variables, constants, nodes = _scan(text)
    universe = build_universe(variables, constants)
    # one statement object per distinct (form, names), shared by its nodes;
    # a failure is never kept, so the first bad statement raises on its line
    built: dict[tuple[str, ...], NodeKind] = {}
    kinds: dict[int, NodeKind] = {}
    for node_id, (line, form, names, _) in nodes.items():
        key = (form, *names)
        kind = built.get(key)
        if kind is None:
            try:
                kind = built[key] = _kind(universe, form, names)
            except AnalysisError as err:
                raise type(err)(str(err), line=line) from None
        kinds[node_id] = kind
    try:
        graph = validate_graph(kinds, {node_id: node[3] for node_id, node in nodes.items()})
    except GraphError as err:
        if err.node is None or err.line is not None:
            raise
        raise GraphError(str(err), line=nodes[err.node][0], node=err.node) from None
    return universe, graph
