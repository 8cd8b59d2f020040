"""Command-line front end.

Subcommands:
  check <file> [--trace]   run the kernel on a problem file
  prove <formula> [--emit fittings|simpfit]
                           search for a proof, print a problem file
                           once the kernel has accepted it
  translate <formula>      print the relational and polarized translations
  oracle <formula>         bounded semantic validity check

Every check, prove's self-check included, runs under a budget of
10,000,000 kernel steps: kernel.DEFAULT_MAX_STEPS, the default of every
library check too, passed here by name so that tests can lower it.
prove's search runs under tableau.DEFAULT_MAX_TABLEAU_STEPS, 153,500
tableau steps, passed the same way.  A check or a search that runs out
of steps is an error, not a verdict.

Exit codes: 0 accept/valid/proved, 1 reject/invalid/refuted, 2 errors
(bad usage, unreadable file, parse failure, oracle bound exceeded, input
nested too deeply, out of memory, kernel or tableau step budget
exhausted).  check and prove recurse nowhere; only the oracle, capped at
8 connectives, does.
An error is reported as one line on stderr, never as a traceback.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Sequence

from .firstorder import render_fo, render_polarized, standard_translation
from .formulas import W0, polarized_translation
from .kernel import DEFAULT_MAX_STEPS, Ev, StepBudgetExceeded, check
from .problems import (
    ProblemFile,
    format_problem,
    parse_formula_text,
    parse_problem,
)
from .tableau import (
    DEFAULT_MAX_TABLEAU_STEPS,
    OpenBranch,
    bounded_validity_oracle,
    emit_fitcert,
    emit_simpfitcert,
    format_model,
    prove,
)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args leaves the parser unchanged
    parser = argparse.ArgumentParser(
        prog="kcert",
        description="Check and produce proof certificates for modal logic K.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="check a problem file")
    p_check.add_argument("file", help="problem file to check")
    p_check.add_argument("--trace", action="store_true",
                         help="print the kernel trace")

    p_prove = sub.add_parser("prove", help="prove a formula and emit a certificate")
    p_prove.add_argument("formula", help="formula in problem-file syntax")
    p_prove.add_argument("--emit", choices=("fittings", "simpfit"),
                         default="fittings", help="certificate format")

    p_tr = sub.add_parser("translate", help="print first-order translations")
    p_tr.add_argument("formula", help="formula in problem-file syntax")

    p_or = sub.add_parser("oracle", help="semantic validity over bounded models")
    p_or.add_argument("formula", help="formula in problem-file syntax")

    return parser


def trace_lines(events: Sequence[Ev]) -> list[str]:
    return [str(ev) for ev in events]


def _cmd_check(args: argparse.Namespace) -> int:
    with open(args.file, encoding="utf-8") as handle:
        problem = parse_problem(handle.read())
    result = check(problem.theorem, problem.certificate, max_steps=DEFAULT_MAX_STEPS,
                   trace=args.trace)
    for line in trace_lines(result.trace):
        print(line)
    print("accepted" if result.accepted else "rejected")
    return 0 if result.accepted else 1


def _cmd_prove(args: argparse.Namespace) -> int:
    theorem = parse_formula_text(args.formula)
    outcome = prove(theorem, max_steps=DEFAULT_MAX_TABLEAU_STEPS)
    if isinstance(outcome, OpenBranch):
        print("countermodel:")
        print(format_model(outcome.model))
        return 1
    if args.emit == "simpfit":
        cert = emit_simpfitcert(outcome, theorem)
    else:
        cert = emit_fitcert(outcome, theorem)
    if not check(theorem, cert, max_steps=DEFAULT_MAX_STEPS, trace=False):
        print("internal error: emitted certificate was rejected", file=sys.stderr)
        return 2
    sys.stdout.write(format_problem(ProblemFile("emitted", theorem, cert)))
    return 0


def _cmd_translate(args: argparse.Namespace) -> int:
    formula = parse_formula_text(args.formula)
    print("st:", render_fo(standard_translation(formula, W0)))
    print("tr:", render_polarized(polarized_translation(formula, W0)))
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    formula = parse_formula_text(args.formula)
    valid = bounded_validity_oracle(formula)
    print("valid" if valid else "invalid")
    return 0 if valid else 1


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {
        "check": _cmd_check,
        "prove": _cmd_prove,
        "translate": _cmd_translate,
        "oracle": _cmd_oracle,
    }
    try:
        return handlers[args.command](args)
    except (OSError, ValueError, StepBudgetExceeded) as exc:
        # ValueError covers ParseError, EmitError and the oracle's cap
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input nested too deeply for the recursion limit", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
