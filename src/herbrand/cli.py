"""Command line front end.

Subcommands: ``analyze`` (fixpoint solve and report), ``mop`` (path-meet
reference values), ``verify`` (compare both, per length), ``check`` (parse
and validate only). Exit codes: 0 success, 1 verification mismatch, 2 bad
input, 3 resource limit exceeded.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .dataflow import solve, states_equal
from .errors import AnalysisError, IterationLimitError, ParseError, PathLimitError
from .mop import DEFAULT_PATH_CAP, mop_table, verify_mop_mfp
from .program import parse_program
from .report import emit_report, point_entries, render_json, render_points_text


def _load(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        line = err.object.count(b"\n", 0, err.start) + 1
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


def _cmd_analyze(args: argparse.Namespace) -> int:
    universe, graph = _load(args.program)
    result = solve(graph, universe, trace=args.trace)
    sys.stdout.write(
        emit_report(
            result.state,
            iterations=result.iterations,
            fmt=args.format,
            full=args.full,
            trace=result.trace,
        )
    )
    return 0


def _cmd_mop(args: argparse.Namespace) -> int:
    universe, graph = _load(args.program)
    rows = mop_table(graph, universe, args.max_len, cap=args.path_cap)
    # the running path meet only descends, so the last row is the meet of all
    values = rows[args.max_len]
    stabilized = args.max_len >= 1 and states_equal(rows[args.max_len - 1], rows[args.max_len])
    points = point_entries(values, args.full)
    if args.format == "json":
        sys.stdout.write(
            render_json(
                {
                    "solver": "mop",
                    "max_len": args.max_len,
                    "stabilized": stabilized,
                    "points": points,
                }
            )
        )
    else:
        lines = [
            "solver: mop",
            f"max_len: {args.max_len}",
            f"stabilized: {'yes' if stabilized else 'no'}",
        ]
        lines.extend(render_points_text(points))
        sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    universe, graph = _load(args.program)
    report = verify_mop_mfp(graph, universe, args.max_len, cap=args.path_cap)
    if args.format == "json":
        sys.stdout.write(
            render_json(
                {
                    "solver": "verify",
                    "max_len": report.max_len,
                    "nodes": report.node_count,
                    "checks": report.checks,
                    "stabilized": report.stabilized,
                    "iterate_mismatches": [list(m) for m in report.iterate_mismatches],
                    "fixpoint_mismatches": report.fixpoint_mismatches,
                    "ok": report.ok,
                }
            )
        )
    else:
        lines = []
        bad = {l for (_, l) in report.iterate_mismatches}
        for l in range(report.max_len + 1):
            if l in bad:
                nodes = sorted(k for (k, ll) in report.iterate_mismatches if ll == l)
                lines.append(f"length {l}: MISMATCH at nodes {nodes}")
            else:
                lines.append(f"length {l}: ok ({report.node_count} nodes)")
        lines.append(f"stabilized within bound: {'yes' if report.stabilized else 'no'}")
        if report.stabilized:
            if report.fixpoint_mismatches:
                lines.append(f"path meet vs fixpoint: MISMATCH at nodes {report.fixpoint_mismatches}")
            else:
                lines.append("path meet vs fixpoint: ok")
        lines.append("ok" if report.ok else "FAILED")
        sys.stdout.write("\n".join(lines) + "\n")
    return 0 if report.ok else 1


def _cmd_check(args: argparse.Namespace) -> int:
    universe, graph = _load(args.program)
    print(
        f"ok: {graph.n} nodes, {len(universe.variables)} vars, "
        f"{len(universe.constants)} consts, {len(universe.terms)} universe terms"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="herbrand",
        description="Per-point Herbrand equivalence classes of program expressions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, *, max_len: bool) -> None:
        p.add_argument("program", help="path to a .dfg program")
        p.add_argument("--format", choices=("text", "json"), default="text")
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
        return args.func(args)
    except (PathLimitError, IterationLimitError) as err:
        print(f"error[{err.code}]: {err}", file=sys.stderr)
        return 3
    except AnalysisError as err:
        print(f"error[{err.code}]: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
