"""Command line front end.

Subcommands: ``analyze`` (fixpoint solve and report), ``mop`` (path-meet
reference values), ``verify`` (compare both, per length), ``check`` (parse
and validate only). Exit codes: 0 success, 1 verification mismatch, 2 bad
input, 3 resource limit exceeded.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from pathlib import Path

from .dataflow import FlowGraph, solve
from .errors import AnalysisError, IterationLimitError, ParseError, PathLimitError
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
    sys.stdout.write(emit_report(result.state, result.iterations, args.format, args.full, result.trace))
    return 0


def _cmd_mop(universe: TermUniverse, graph: FlowGraph, args: argparse.Namespace) -> int:
    rows = mop_table(graph, universe, args.max_len, cap=args.path_cap)
    sys.stdout.write(render_mop(rows, args.max_len, args.format, args.full))
    return 0


def _cmd_verify(universe: TermUniverse, graph: FlowGraph, args: argparse.Namespace) -> int:
    report = verify_mop_mfp(graph, universe, args.max_len, cap=args.path_cap)
    sys.stdout.write(render_verify(report, args.format))
    return 0 if report.ok else 1


def _cmd_check(universe: TermUniverse, graph: FlowGraph, args: argparse.Namespace) -> int:
    sys.stdout.write(render_check(universe, graph))
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every
    later ``main`` call."""
    parser = argparse.ArgumentParser(
        prog="herbrand",
        description="Per-point Herbrand equivalence classes of program expressions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, *, max_len: bool) -> None:
        p.add_argument("program", help="path to a .dfg program")
        p.add_argument("--format", choices=FORMATS, default="text")
        if max_len:
            p.add_argument(
                "--max-len",
                type=_non_negative,
                default=12,
                help="path length bound (default 12)",
            )
            p.add_argument(
                "--path-cap",
                type=_non_negative,
                default=DEFAULT_PATH_CAP,
                help="abort if one length level exceeds this many paths",
            )

    p_analyze = sub.add_parser("analyze", help="solve the fixpoint and report classes")
    add_common(p_analyze, max_len=False)
    p_analyze.add_argument("--full", action="store_true", help="show singleton and reserved classes")
    p_analyze.add_argument("--trace", action="store_true", help="include every iterate")
    p_analyze.set_defaults(func=_cmd_analyze)

    p_mop = sub.add_parser("mop", help="report bounded path-meet values")
    add_common(p_mop, max_len=True)
    p_mop.add_argument("--full", action="store_true", help="show singleton and reserved classes")
    p_mop.set_defaults(func=_cmd_mop)

    p_verify = sub.add_parser("verify", help="check path meets against the fixpoint")
    add_common(p_verify, max_len=True)
    p_verify.set_defaults(func=_cmd_verify)

    p_check = sub.add_parser("check", help="parse and validate only")
    p_check.add_argument("program", help="path to a .dfg program")
    p_check.set_defaults(func=_cmd_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(*_load(args.program), args)
    except (PathLimitError, IterationLimitError) as err:
        print(f"error[{err.code}]: {err}", file=sys.stderr)
        return 3
    except AnalysisError as err:
        print(f"error[{err.code}]: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error[E_IO]: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
