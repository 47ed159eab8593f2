"""Command line front end.

Subcommands: ``analyze`` (fixpoint solve and report), ``mop`` (path-meet
reference values), ``verify`` (compare both, per length), ``check`` (parse
and validate only). Exit codes: 0 success, 1 verification mismatch, 2 bad
input, 3 resource limit exceeded.

The command line is declared in one table: ``_FLAGS`` holds each flag's
``add_argument`` keywords once, and ``_COMMANDS`` has one row per
subcommand with its help, handler and flags in help order. Every
subcommand takes the ``program`` positional first. A new flag or
subcommand is a new entry or row.

Every handler computes its result and hands ``sys.stdout`` to its
``herbrand.report`` writer, which writes the report piece by piece and
returns nothing. ``main`` flushes stdout before it returns, so a failed
write, to a reader that closed its pipe too, is one ``error[E_IO]`` line
on stderr and exit 2. So is a run whose stdout was closed when it started
(Python then sets ``sys.stdout`` to ``None``); it reads no program.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache
from pathlib import Path

from .dataflow import FlowGraph, solve
from .errors import AnalysisError, ParseError
from .mop import DEFAULT_PATH_CAP, mop_table, verify_mop_mfp
from .program import LINE_END_RE, parse_program
from .report import FORMATS, emit_report, render_check, render_mop, render_verify
from .terms import TermUniverse


def _load(path: str) -> tuple[TermUniverse, FlowGraph]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        # the bytes before the first invalid one decode
        line = len(LINE_END_RE.split(err.object[: err.start].decode("utf-8")))
        bad = err.object[err.start]
        raise ParseError(f"invalid UTF-8 byte 0x{bad:02x} in {path}", line=line) from None
    return parse_program(text)


def _non_negative(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {value}")
    return value


def _cmd_analyze(universe: TermUniverse, graph: FlowGraph, args: argparse.Namespace) -> int:
    result = solve(graph, universe, trace=args.trace)
    emit_report(sys.stdout, result.state, result.iterations, args.format, args.full, result.trace)
    return 0


def _cmd_mop(universe: TermUniverse, graph: FlowGraph, args: argparse.Namespace) -> int:
    rows = mop_table(graph, universe, args.max_len, cap=args.path_cap)
    render_mop(sys.stdout, rows, args.max_len, args.format, args.full)
    return 0


def _cmd_verify(universe: TermUniverse, graph: FlowGraph, args: argparse.Namespace) -> int:
    report = verify_mop_mfp(graph, universe, args.max_len, cap=args.path_cap)
    render_verify(sys.stdout, report, args.format)
    return 0 if report.ok else 1


def _cmd_check(universe: TermUniverse, graph: FlowGraph, args: argparse.Namespace) -> int:
    render_check(sys.stdout, universe, graph)
    return 0


# Every flag, declared once: its option string and its ``add_argument``
# keywords.
_FLAGS: dict[str, dict] = {
    "--format": dict(choices=FORMATS, default="text"),
    "--max-len": dict(type=_non_negative, default=12, help="path length bound (default %(default)s)"),
    "--path-cap": dict(
        type=_non_negative,
        default=DEFAULT_PATH_CAP,
        help="abort if one length level exceeds this many paths",
    ),
    "--full": dict(action="store_true", help="show singleton and reserved classes"),
    "--trace": dict(action="store_true", help="include every iterate"),
}

# One row per subcommand: its name, help, handler and flags, in help order.
_COMMANDS = (
    ("analyze", "solve the fixpoint and report classes", _cmd_analyze, ("--format", "--full", "--trace")),
    ("mop", "report bounded path-meet values", _cmd_mop, ("--format", "--max-len", "--path-cap", "--full")),
    ("verify", "check path meets against the fixpoint", _cmd_verify, ("--format", "--max-len", "--path-cap")),
    ("check", "parse and validate only", _cmd_check, ()),
)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built from the table on the first call and
    shared by every later ``main`` call."""
    parser = argparse.ArgumentParser(
        prog="herbrand",
        description="Per-point Herbrand equivalence classes of program expressions",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, summary, handler, flags in _COMMANDS:
        p = sub.add_parser(name, help=summary)
        p.add_argument("program", help="path to a .dfg program")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(func=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if sys.stdout is None:
            raise OSError("standard output is closed")
        code = args.func(*_load(args.program), args)
        sys.stdout.flush()
        return code
    except AnalysisError as err:
        print(f"error[{err.code}]: {err}", file=sys.stderr)
        return err.exit_status
    except OSError as err:
        print(f"error[E_IO]: {err}", file=sys.stderr)
        if isinstance(err, BrokenPipeError):
            # what stdout still holds goes nowhere, so the interpreter's
            # final flush cannot fail again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return 2


if __name__ == "__main__":
    sys.exit(main())
