"""Command line front end for the diagram-to-factorization pipeline.

Subcommands cover the batch workflow: compile a diagram file to an
explicit matrix factorization, print its potential or graded series,
run the reduction calculus, verify decomposition relations, cross-check
the Euler characteristic against the combinatorial evaluator, and print
balanced q-binomials.  Every input comes from the command line: the
file commands read a diagram file, whose level ``--n`` may override;
``verify`` reads a relation's parameters from ``--params``; and the
commands that truncate take ``--cutoff``, default ``DEFAULT_CUTOFF``.

Exit codes: 0 on success or PASS, 1 when a verification reports FAIL
or UNDECIDED, 2 on input errors (unreadable file, syntax error, color
violation, open diagram where a closed one is required, bad parameters),
3 on an internal error, reported as one ``internal error: <Type>:
<message>`` line.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from collections.abc import Sequence

from .analysis import (
    DEFAULT_CUTOFF,
    Irreducible,
    NotClosed,
    RELATION_NAMES,
    euler_of_diagram,
    oracle_crosscheck,
    verify_relation,
)
from .diagram import (
    ColorConstraintViolation,
    Diagram,
    DiagramSyntaxError,
    compile_diagram,
    parse,
)
from .poly_core import CutoffExceeded, DegreeMismatch
from .qseries import qbinomial
from .reduce import ReductionSession

__all__ = ["main"]

# what --cutoff means to euler and crosscheck, which take homology
_WORK_BOUND = "bound on the answer: no degree of the homology may exceed it"


class UsageError(ValueError):
    """Bad command input that argparse cannot catch on its own."""


def _load_diagram(path: str, level: int | None) -> Diagram:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if level is not None:
        if level < 1:
            raise UsageError("--n must be a positive integer")
        text = _with_level(text, level)
    return parse(text)


def _with_level(text: str, level: int) -> str:
    """text with the value token of its first level line, whatever it
    spells, replaced by level, or with ``level n <level>`` appended when
    it has no level line.  Every line keeps its number, so a refusal
    points at the file's own line."""
    lines = text.splitlines(keepends=True)
    for i, raw in enumerate(lines):
        toks = list(re.finditer(r"\S+", raw.split("#", 1)[0]))
        if toks and toks[0].group() == "level":
            if len(toks) > 2:
                lines[i] = f"{raw[:toks[2].start()]}{level}{raw[toks[2].end():]}"
            return "".join(lines)
    return f"{text}\nlevel n {level}\n"


def _emit(doc: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(doc)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(doc)


def _mf_text(d: dict) -> str:
    lines = [
        f"base: {d['base']}",
        f"potential: {d['potential']}",
        f"potential_degree: {d['potential_degree']}",
        f"rank0: {d['rank0']}",
        f"rank1: {d['rank1']}",
        "shifts0: " + " ".join(str(s) for s in d["shifts0"]),
        "shifts1: " + " ".join(str(s) for s in d["shifts1"]),
    ]
    for name in ("d0", "d1"):
        entries = d[name]
        for key in sorted(entries, key=lambda k: tuple(map(int, k.split(",")))):
            lines.append(f"{name}[{key}]: {entries[key]}")
    return "\n".join(lines) + "\n"


def _cmd_compile(args: argparse.Namespace) -> int:
    diagram = _load_diagram(args.file, args.n)
    mf = compile_diagram(diagram).expand()
    d = mf.as_dict()
    if args.format == "json":
        doc = json.dumps(d, indent=2, sort_keys=True) + "\n"
    else:
        doc = _mf_text(d)
    _emit(doc, args.out)
    return 0


def _cmd_potential(args: argparse.Namespace) -> int:
    diagram = _load_diagram(args.file, args.n)
    print(compile_diagram(diagram).potential().render())
    return 0


def _cmd_euler(args: argparse.Namespace) -> int:
    diagram = _load_diagram(args.file, args.n)
    print(euler_of_diagram(diagram, cutoff=args.cutoff).render())
    return 0


def _cmd_poincare(args: argparse.Namespace) -> int:
    diagram = _load_diagram(args.file, args.n)
    even, odd = compile_diagram(diagram).graded_series(args.cutoff)
    print(f"z2_0: {even.render()}")
    print(f"z2_1: {odd.render()}")
    return 0


def _cmd_reduce(args: argparse.Namespace) -> int:
    diagram = _load_diagram(args.file, args.n)
    session = ReductionSession(
        compile_diagram(diagram),
        external=diagram.external_vars(),
        force=args.force,
    )
    result = session.reduce_fully()
    # the log first, so a run that cannot write it prints only its error
    if args.log is not None:
        with open(args.log, "w", encoding="utf-8") as fh:
            json.dump(session.log_dicts(), fh, indent=2)
            fh.write("\n")
    d = result.as_dict()
    lines = [
        f"base: {d['base']}",
        f"rows: {len(d['rows'])}",
        f"z2_shift: {d['z2_shift']}",
        f"grading_shift: {d['grading_shift']}",
        f"potential: {d['potential']}",
        f"potential_degree: {d['potential_degree']}",
    ]
    for i, row in enumerate(d["rows"]):
        lines.append(f"row {i}: {row['a']} | {row['b']}")
    lines.append(f"steps: {sum(e.op != 'skip' for e in session.log)}")
    print("\n".join(lines))
    return 0


def _print_series_block(label: str, block: dict) -> None:
    for key in sorted(block):
        print(f"{label} {key}: {block[key]}")


def _cmd_verify(args: argparse.Namespace) -> int:
    report = verify_relation(args.relation, args.params, cutoff=args.cutoff)
    if args.format == "json":
        print(json.dumps(report, indent=2))
    else:
        print(f"relation: {report['relation']}")
        print("params: " + " ".join(str(p) for p in report["params"]))
        _print_series_block("lhs", report["lhs_series"])
        _print_series_block("rhs", report["rhs_series"])
        diff = report.get("first_difference")
        if diff is not None:
            print(
                f"first difference: {diff['z2']} at q^{diff['exponent']}: "
                f"lhs {diff['lhs']} rhs {diff['rhs']}"
            )
        print(report["verdict"])
    return 0 if report["verdict"] == "PASS" else 1


def _cmd_crosscheck(args: argparse.Namespace) -> int:
    diagram = _load_diagram(args.file, args.n)
    report = oracle_crosscheck(diagram, cutoff=args.cutoff)
    if args.format == "json":
        print(json.dumps(report, indent=2))
    else:
        print(f"engine: {report['engine_euler']}")
        print(f"oracle: {report['oracle_value']}")
        print(report["verdict"])
    return 0 if report["verdict"] == "PASS" else 1


def _cmd_qbinom(args: argparse.Namespace) -> int:
    print(qbinomial(args.n, args.i).render())
    return 0


def _add_file_argument(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("file", help="diagram file in the edge/vertex text format")
    sub.add_argument(
        "--n",
        type=int,
        default=None,
        help="override the level: replaces the value of the file's level line, "
        "or adds one after its last line; refusals keep the file's line numbers",
    )


def _add_cutoff_argument(sub: argparse.ArgumentParser, use: str) -> None:
    sub.add_argument(
        "--cutoff",
        type=int,
        default=DEFAULT_CUTOFF,
        help=f"{use} (default {DEFAULT_CUTOFF})",
    )


def _add_format_argument(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default text)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moymf",
        description="Graded Koszul factorizations for colored planar diagrams.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser(
        "compile", help="compile a diagram to an explicit matrix factorization"
    )
    _add_file_argument(sub)
    sub.add_argument("--out", default=None, help="write the document to this path")
    _add_format_argument(sub)
    sub.set_defaults(func=_cmd_compile)

    sub = commands.add_parser(
        "potential", help="print the boundary potential of a diagram"
    )
    _add_file_argument(sub)
    sub.set_defaults(func=_cmd_potential)

    sub = commands.add_parser(
        "euler", help="print the graded Euler characteristic of a closed diagram"
    )
    _add_file_argument(sub)
    _add_cutoff_argument(sub, _WORK_BOUND)
    sub.set_defaults(func=_cmd_euler)

    sub = commands.add_parser(
        "poincare", help="print the graded series of the compiled factorization"
    )
    _add_file_argument(sub)
    _add_cutoff_argument(sub, "series truncation degree")
    sub.set_defaults(func=_cmd_poincare)

    sub = commands.add_parser(
        "reduce", help="run the reduction calculus and print the result"
    )
    _add_file_argument(sub)
    sub.add_argument("--log", default=None, help="write the step log as JSON here")
    sub.add_argument(
        "--force",
        action="store_true",
        help="apply steps whose regularity check is unverified",
    )
    sub.set_defaults(func=_cmd_reduce)

    sub = commands.add_parser("verify", help="verify one decomposition relation")
    sub.add_argument("relation", choices=RELATION_NAMES)
    sub.add_argument(
        "--params",
        type=int,
        nargs="+",
        required=True,
        help="the relation's parameters, the level n last",
    )
    _add_cutoff_argument(sub, "print series through this degree; a PASS holds in every degree")
    _add_format_argument(sub)
    sub.set_defaults(func=_cmd_verify)

    sub = commands.add_parser(
        "crosscheck",
        help="compare engine Euler characteristic with the combinatorial evaluator",
    )
    _add_file_argument(sub)
    _add_cutoff_argument(sub, _WORK_BOUND)
    _add_format_argument(sub)
    sub.set_defaults(func=_cmd_crosscheck)

    sub = commands.add_parser("qbinom", help="print a balanced q-binomial")
    sub.add_argument("n", type=int)
    sub.add_argument("i", type=int)
    sub.set_defaults(func=_cmd_qbinom)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (
        UsageError,
        DiagramSyntaxError,
        ColorConstraintViolation,
        NotClosed,
        Irreducible,
        CutoffExceeded,
        DegreeMismatch,
        ValueError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # a defect in the engine, not in the input: one line, no traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
