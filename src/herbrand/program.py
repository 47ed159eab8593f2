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

``_LINE_RE`` is the whole line grammar: it matches a blank line, ``vars``
or ``consts`` with one or more names, or a node line, and every record
``_scan`` keeps is built from its groups. Blanks or tabs must part two
words that would otherwise run together; they may be left out between a
node id and its kind and around ``:=`` and ``+``, and node ids may carry
leading zeros. ``_scan`` raises a name already declared itself. Any other
error goes to ``_diagnose``, which only words it: a line the regex
declines, a node id already defined, or an integer past the interpreter's
limit on digits per ``int()``. It tokenizes the line, so an unexpected
character comes first, then walks the words that the head and the node
kind call for and raises at the first one missing or out of place; a node
id already defined is raised right after the id, so a too-long node id
comes before it and a too-long predecessor after it.

Nodes with equal statements share one statement object: ``parse_program``
resolves and checks each distinct ``(form, names)`` once, on the first
line that has it (a pass over the analyze-deep programs of ``perfbench``
builds about 420 statements for its 1,180 nodes). Only a statement that
was built is kept, so a bad one raises on the first line that names it.
"""

from __future__ import annotations

import re
from typing import NoReturn

from .dataflow import Confluence, Entry, FlowGraph, NodeKind, validate_graph
from .errors import AnalysisError, DeclarationError, GraphError, ParseError
from .terms import IDENT, IDENT_RE, Sum, TermUniverse, VARIABLE, build_universe
from .transfer import Assign, NonDet

# a token, or in the second group the first character that starts none;
# blanks and tabs before either are skipped
_TOKEN_RE = re.compile(rf"[ \t]*(?:({IDENT}|[0-9]+|:=|\+)|([^ \t]))")
# every well-formed line: a blank line, a declaration or a node; its groups
# are (head, names, node id, entry, confluence, nondet, target, assign,
# target, rhs, rhs, pred, pred), and the second pred is read only after
# "confluence" (group 5)
_LINE_RE = re.compile(
    rf"[ \t]*(?:(vars|consts)((?:[ \t]+{IDENT})+)|node[ \t]+([0-9]+)[ \t]*(?:(entry)|(?:(confluence)"
    rf"|(nondet)[ \t]+({IDENT})|(assign)[ \t]+({IDENT})[ \t]*:=[ \t]*({IDENT})(?:[ \t]*\+[ \t]*({IDENT}))?)"
    rf"[ \t]+pred[ \t]+([0-9]+)(?(5)[ \t]+([0-9]+))))?[ \t]*"
)
# the line ends of universal newlines, as the command line reads a file;
# str.splitlines would also break at "\f", "\v", U+2028 and more
LINE_END_RE = re.compile(r"\r\n?|\n")
_KINDS = {"entry": Entry, "assign": Assign, "nondet": NonDet, "confluence": Confluence}
# the words after each node kind, a literal one in quotes; an assignment's
# "+" and the name after it may be left out
_FOLLOW = {
    "entry": (),
    "assign": ("identifier", "':='", "identifier", "'+'", "identifier", "'pred'", "integer"),
    "nondet": ("identifier", "'pred'", "integer"),
    "confluence": ("'pred'", "integer", "integer"),
}
# the test of each word that names a class of tokens
_CLASSES = {"identifier": IDENT_RE.match, "integer": str.isdigit}


def _diagnose(body: str, line_no: int, nodes: dict[int, tuple[int, str, list[str], list[int]]]) -> NoReturn:
    """Raise the ``ParseError`` of a line that ``_LINE_RE`` declines, that
    defines a node id again or that has an integer past the interpreter's
    digit limit: the first error in token order, where a node id already
    defined comes right after the id."""
    tokens = []
    for token, bad in _TOKEN_RE.findall(body):
        if bad:
            raise ParseError(f"unexpected character {bad!r}", line=line_no)
        tokens.append(token)
    head, *rest = tokens  # a blank line matches _LINE_RE
    if head in ("vars", "consts"):
        if not rest:
            raise ParseError(f"{head!r} needs at least one name", line=line_no)
        words = iter(["identifier"] * len(rest))
    elif head == "node":
        words = iter(("integer", "node kind", *_FOLLOW.get(rest[1] if len(rest) > 1 else "", ())))
    else:
        raise ParseError(f"unexpected {head!r} at start of line", line=line_no)
    pos = 0
    for what in words:
        tok = rest[pos] if pos < len(rest) else None
        if what == "'+'" and tok != "+":  # no sum: skip its right operand too
            next(words)
            continue
        if tok is None:
            raise ParseError(f"expected {what} at end of line", line=line_no)
        if what == "node kind":
            if tok not in _FOLLOW:
                raise ParseError(
                    f"unknown node kind {tok!r} (expected entry, assign, nondet or confluence)",
                    line=line_no,
                )
        elif not (_CLASSES[what](tok) if what in _CLASSES else repr(tok) == what):
            raise ParseError(f"expected {what}, got {tok!r}", line=line_no)
        elif what == "integer":
            try:
                number = int(tok)
            except ValueError:
                raise ParseError(f"integer of {len(tok)} digits is too long", line=line_no) from None
            if pos == 0 and number in nodes:
                raise ParseError(f"node {number} already defined on line {nodes[number][0]}", line=line_no)
        pos += 1
    raise ParseError(f"trailing input {' '.join(rest[pos:])!r}", line=line_no)


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
        if match is None:
            _diagnose(body, line_no, nodes)
        (head, names, node_id, entry, confluence, nondet, nd_target,
         assign, target, left, right, pred, pred2) = match.groups()
        if head is not None:
            names = names.split()
            for name in names:
                if name in decl_lines:
                    raise DeclarationError(f"{name!r} already declared on line {decl_lines[name]}", line=line_no)
                decl_lines[name] = line_no
            (variables if head == "vars" else constants).extend(names)
        elif node_id is not None:
            try:
                node_id = int(node_id)
                if entry:
                    record = (line_no, entry, [], [])
                elif confluence:
                    record = (line_no, confluence, [], [int(pred), int(pred2)])
                elif nondet:
                    record = (line_no, nondet, [nd_target], [int(pred)])
                else:
                    names = [target, left] if right is None else [target, left, right]
                    record = (line_no, assign, names, [int(pred)])
            except ValueError:  # past the interpreter's limit on digits per integer
                _diagnose(body, line_no, nodes)
            if node_id in nodes:
                _diagnose(body, line_no, nodes)
            nodes[node_id] = record
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
        if err.node is None:
            raise
        raise GraphError(str(err), line=nodes[err.node][0], node=err.node) from None
    return universe, graph
