"""Command line front door.

Three commands:

    aimonoids reduce --system A --rank 3 "2 1 2 1"
    aimonoids equal  --system M --rank 3 "1 1 2 1" "1 2 1 2"
    aimonoids verify <harness> [options]

where <harness> is one of confluence-a, confluence-m, sink, garside,
cancel, linrep, cube, rank2, action.  Exit codes: 0 for pass or "equal",
1 for a property failure or "distinct", 2 for usage and parse errors.
`--json` prints a verification report as a single object with the fields
command, params, checks_run, failures and elapsed_ms; `--seed` makes the
randomized harnesses reproducible.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .cube import (REVERSAL_BUDGET_EXCEEDED, cube_condition_check,
                   cube_presentation, upper_bound_census)
from .garside import check_lambda_identity, left_cancel_harness, verify_garside
from .linrep import verify_representation
from .monoid_core import (EQUAL, Report, chain_ci_matrix, hasse_dot,
                          is_lattice, left_division_order, load_ci_matrix,
                          pair_collapse_action, rank2_monoid,
                          tuple_action_failures)
from .rewrite_a import a_confluence_audit, a_equal, a_reduce
from .rewrite_m import m_confluence_audit, m_equal, m_reduce, verify_sink
from .words import format_word, parse_word


def _letters(word) -> str:
    # the three-generator counterexample is traditionally written in a, b, c;
    # a reversal cut off by its step budget has no word
    if word is None:
        return "(incomplete)"
    return " ".join("abc"[x - 1] for x in word)


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be positive: %s" % text)
    return value


def _cmd_reduce(args) -> int:
    word = parse_word(args.word, args.rank)
    reduce_fn = a_reduce if args.system == "A" else m_reduce
    print(format_word(reduce_fn(word)))
    return 0


def _cmd_equal(args) -> int:
    u = parse_word(args.u, args.rank)
    v = parse_word(args.v, args.rank)
    equal_fn = a_equal if args.system == "A" else m_equal
    if equal_fn(u, v):
        print("equal")
        return 0
    print("distinct")
    return 1


def _family_line(by_family: dict) -> str:
    parts = ["%s=%d" % (k, v) for k, v in sorted(by_family.items())]
    return "family counts: " + " ".join(parts)


# Each adapter calls its harness by the module-global name at call time, so
# rebinding that name (tracing, tests) takes effect.  It returns the JSON
# params, the Report and any extra text lines.

def _verify_confluence_a(args):
    rep = a_confluence_audit(args.rank, args.max_exp, args.samples, args.seed)
    params = {"rank": args.rank, "max_exponent": args.max_exp,
              "random_words": args.samples, "seed": args.seed}
    return params, rep, [_family_line(rep.by_family)]


def _verify_confluence_m(args):
    rep = m_confluence_audit(args.rank, args.max_interleave, args.samples,
                             args.seed)
    params = {"rank": args.rank, "max_interleave": args.max_interleave,
              "random_words": args.samples, "seed": args.seed}
    return params, rep, [_family_line(rep.by_family)]


def _verify_sink(args):
    rep = verify_sink(args.rank, args.samples, args.seed)
    params = {"rank": args.rank, "trials": args.samples, "seed": args.seed}
    return params, rep, []


def _verify_garside(args):
    first = verify_garside(args.rank, args.samples, args.seed)
    second = check_lambda_identity(args.rank, args.samples, args.seed)
    rep = Report(first.checks_run + second.checks_run,
                 first.failures + second.failures)
    params = {"rank": args.rank, "samples": args.samples, "seed": args.seed}
    return params, rep, []


def _verify_cancel(args):
    rep = left_cancel_harness(args.rank, args.samples, args.seed)
    params = {"rank": args.rank, "samples": args.samples, "seed": args.seed}
    return params, rep, []


def _verify_linrep(args):
    if args.matrix is not None:
        with open(args.matrix) as handle:
            matrix = load_ci_matrix(handle.read())
        params = {"matrix": args.matrix}
    else:
        matrix = chain_ci_matrix(args.rank)
        params = {"rank": args.rank}
    return params, verify_representation(matrix), []


def _verify_cube(args):
    p = cube_presentation()
    rep = cube_condition_check(p, 1, 2, 3, args.budget)
    census = upper_bound_census(p, max_len=args.max_len)
    params = {"budget": args.budget, "census_max_len": args.max_len}
    failures = list(census.failures)
    if rep.verdict == EQUAL:
        failures.append(("cube-condition-held", rep.w1, rep.w2))
    if rep.verdict == REVERSAL_BUDGET_EXCEEDED:
        failures.append(("reversal-budget-exceeded",))
    lines = [
        "w1 = %s" % _letters(rep.w1),
        "w2 = %s" % _letters(rep.w2),
        "verdict: %s" % rep.verdict,
        "census classes: %d and %d words within length %d" % (
            len(census.first_class), len(census.second_class), census.max_len),
    ]
    return params, Report(1 + census.checks_run, failures), lines


def _verify_rank2(args):
    monoid = rank2_monoid(args.k, args.l)
    order = left_division_order(monoid)
    lattice = is_lattice(order)
    failures = []
    if len(monoid.elements) != args.k + args.l:
        failures.append("size %d, expected %d" % (
            len(monoid.elements), args.k + args.l))
    if not lattice:
        failures.append("left division is not a lattice order")
    lines = ["%d elements, lattice: %s" % (
        len(monoid.elements), "yes" if lattice else "no")]
    if args.dot is not None:
        with open(args.dot, "w") as handle:
            handle.write(hasse_dot(order, monoid))
        lines.append("DOT written to %s" % args.dot)
    return {"k": args.k, "l": args.l}, Report(2, failures), lines


def _verify_action(args):
    act = pair_collapse_action(args.carrier, args.rank)
    # one idempotence check per pair, two braid comparisons per triple
    checks = args.carrier ** 2 + 2 * args.carrier ** 3
    rep = Report(checks, tuple_action_failures(act))
    return {"rank": args.rank, "carrier": args.carrier}, rep, []


#: harness name -> (adapter, default --rank, default --samples)
_HARNESSES = {
    "confluence-a": (_verify_confluence_a, 5, 200),
    "confluence-m": (_verify_confluence_m, 5, 200),
    "sink": (_verify_sink, 3, 500),
    "garside": (_verify_garside, 3, 200),
    "cancel": (_verify_cancel, 3, 1000),
    "linrep": (_verify_linrep, 3, None),
    "cube": (_verify_cube, None, None),
    "rank2": (_verify_rank2, None, None),
    "action": (_verify_action, 3, None),
}


def _cmd_verify(args) -> int:
    adapter, rank, samples = _HARNESSES[args.harness]
    if args.rank is None:
        args.rank = rank
    if args.samples is None:
        args.samples = samples
    start = time.monotonic()
    params, rep, lines = adapter(args)
    elapsed_ms = int((time.monotonic() - start) * 1000)
    command = "verify %s" % args.harness
    if args.json:
        print(json.dumps({
            "command": command,
            "params": params,
            "checks_run": rep.checks_run,
            "failures": list(rep.failures),
            "elapsed_ms": elapsed_ms,
        }))
    else:
        print("%s: %s" % (
            command, " ".join("%s=%s" % kv for kv in sorted(params.items()))))
        for line in lines:
            print(line)
        print("checks run: %d" % rep.checks_run)
        print("failures: %d" % len(rep.failures))
        for failure in list(rep.failures)[:10]:
            print("  %s" % (failure,))
        print("elapsed: %d ms" % elapsed_ms)
    return 0 if rep.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aimonoids",
        description="Normal forms, word problems and verification harnesses "
                    "for a family of idempotent Artin-like monoids.")
    sub = parser.add_subparsers(dest="command", required=True)

    reduce_p = sub.add_parser("reduce", help="print the normal form of a word")
    reduce_p.add_argument("--system", choices=("A", "M"), required=True)
    reduce_p.add_argument("--rank", type=_positive, required=True)
    reduce_p.add_argument("word", help="word text, letters separated by spaces")
    reduce_p.set_defaults(func=_cmd_reduce)

    equal_p = sub.add_parser("equal", help="decide whether two words are equal")
    equal_p.add_argument("--system", choices=("A", "M"), required=True)
    equal_p.add_argument("--rank", type=_positive, required=True)
    equal_p.add_argument("u")
    equal_p.add_argument("v")
    equal_p.set_defaults(func=_cmd_equal)

    verify_p = sub.add_parser("verify", help="run a verification harness")
    verify_p.add_argument("harness", choices=sorted(_HARNESSES))
    verify_p.add_argument("--rank", type=_positive, default=None,
                          help="letter cap (default depends on the harness)")
    verify_p.add_argument("--samples", type=_positive, default=None,
                          help="random sample count (default per harness)")
    verify_p.add_argument("--seed", type=int, default=0)
    verify_p.add_argument("--max-exp", type=int, default=2,
                          help="exponent cap for the confluence-a families")
    verify_p.add_argument("--max-interleave", type=int, default=1,
                          help="interleave cap for the confluence-m families")
    verify_p.add_argument("--k", type=int, default=3, help="rank2: first label")
    verify_p.add_argument("--l", type=int, default=4, help="rank2: second label")
    verify_p.add_argument("--dot", default=None,
                          help="rank2: write the Hasse diagram as DOT")
    verify_p.add_argument("--matrix", default=None,
                          help="linrep: verify the matrix in this file "
                               "instead of the chain diagram")
    verify_p.add_argument("--budget", type=int, default=10000,
                          help="cube: reversing step budget")
    verify_p.add_argument("--max-len", type=int, default=9,
                          help="cube: census length bound")
    verify_p.add_argument("--carrier", type=_positive, default=4,
                          help="action: carrier set size")
    verify_p.add_argument("--json", action="store_true",
                          help="print the report as one JSON object")
    verify_p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as err:
        print("error: %s" % err, file=sys.stderr)
        return 2
    except OSError as err:
        print("error: %s" % err, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
