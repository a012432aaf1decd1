"""Command line front door.

Three commands:

    aimonoids reduce --system A --rank 3 "2 1 2 1"
    aimonoids equal  --system M --rank 3 "1 1 2 1" "1 2 1 2"
    aimonoids verify <harness> [options]

where <harness> is one of confluence-a, confluence-m, sink, garside,
cancel, linrep, cube, rank2, action.  Each harness is a library function
that returns a `Report`.  The table `_HARNESSES` names that function, the
options it takes in call order (each under its key in the report's
params, with its default), and the text lines read off the report's
details.  The only harness-specific code here is I/O: linrep reads
--matrix (in place of --rank) and rank2 writes --dot.  `_OPTIONS` declares
each verify option once; one not given is absent from the parsed namespace,
and the harness default stands in for it.  A harness refuses every other
option given, as a usage error.  Integer options take ASCII numerals, as
letters do, the signed ones with a leading "-".  One parser serves every
call in a process.
Exit codes: 0 for pass or "equal", 1 for a property failure or "distinct",
2 for usage and parse errors and for a harness that ran no checks.
`--json` prints a verification report as a single object with the fields
command, params, checks_run, failures and elapsed_ms; `--seed` makes the
randomized harnesses reproducible.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

# the harnesses are called through _HARNESSES, by name
from .cube import cube_counterexample
from .garside import garside_harness, left_cancel_harness
from .linrep import verify_representation
from .monoid_core import (action_harness, chain_ci_matrix, hasse_dot,
                          load_ci_matrix, rank2_harness)
from .rewrite_a import a_confluence_audit, a_equal, a_reduce
from .rewrite_m import m_confluence_audit, m_equal, m_reduce, verify_sink
from .words import format_word, is_numeral, parse_word


def _letters(word) -> str:
    # the three-generator counterexample is traditionally written in a, b, c;
    # a reversal cut off by its step budget has no word
    if word is None:
        return "(incomplete)"
    return " ".join("abc"[x - 1] for x in word)


def _integer(text: str) -> int:
    """An ASCII numeral with an optional leading "-", as an int."""
    if not is_numeral(text.removeprefix("-")):
        raise argparse.ArgumentTypeError("not an integer: %s" % text)
    return int(text)


def _positive(text: str) -> int:
    value = _integer(text)
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


def _family_lines(details) -> list:
    parts = ["%s=%d" % (k, v) for k, v in sorted(details["by_family"].items())]
    return ["family counts: " + " ".join(parts)]


def _cube_lines(details) -> list:
    return ["w1 = %s" % _letters(details["w1"]),
            "w2 = %s" % _letters(details["w2"]),
            "verdict: %s" % details["verdict"],
            "census classes: %d and %d words within length %d" % (
                len(details["first_class"]), len(details["second_class"]),
                details["max_len"])]


def _rank2_lines(details) -> list:
    return ["%d elements, lattice: %s" % (
        len(details["monoid"].elements), "yes" if details["lattice"] else "no")]


_SEED = ("seed", "seed", 0)

#: harness name -> (library function, its (params key, option, default)
#: triples in call order, text lines from the details).  The function is
#: looked up by name in this module at call time, so that rebinding the
#: name (tracing, tests) takes effect.
_HARNESSES = {
    "confluence-a": ("a_confluence_audit",
                     (("rank", "rank", 5), ("max_exponent", "max_exp", 2),
                      ("random_words", "samples", 200), _SEED),
                     _family_lines),
    "confluence-m": ("m_confluence_audit",
                     (("rank", "rank", 5), ("max_interleave", "max_interleave", 1),
                      ("random_words", "samples", 200), _SEED),
                     _family_lines),
    "sink": ("verify_sink",
             (("rank", "rank", 3), ("trials", "samples", 500), _SEED), None),
    "garside": ("garside_harness",
                (("rank", "rank", 3), ("samples", "samples", 200), _SEED), None),
    "cancel": ("left_cancel_harness",
               (("rank", "rank", 3), ("samples", "samples", 1000), _SEED), None),
    "linrep": ("verify_representation", (("rank", "rank", 3),), None),
    "cube": ("cube_counterexample",
             (("budget", "budget", 10000), ("census_max_len", "max_len", 9)),
             _cube_lines),
    "rank2": ("rank2_harness", (("k", "k", 3), ("l", "l", 4)), _rank2_lines),
    "action": ("action_harness",
               (("rank", "rank", 3), ("carrier", "carrier", 4)), None),
}

#: the file option of the one harness that takes it
_FILE_OPTION = {"linrep": "matrix", "rank2": "dot"}

#: every verify option but --json -> (argparse type, help text)
_OPTIONS = {
    "rank": (_positive, "letter cap (default depends on the harness)"),
    "samples": (_positive, "random sample count (default per harness)"),
    "seed": (_integer, None),
    "max_exp": (_integer, "exponent cap for the confluence-a families"),
    "max_interleave": (_integer, "interleave cap for the confluence-m families"),
    "k": (_integer, "rank2: first label"),
    "l": (_integer, "rank2: second label"),
    "dot": (str, "rank2: write the Hasse diagram as DOT"),
    "matrix": (str, "linrep: verify the matrix in this file "
                    "instead of the chain diagram of --rank"),
    "budget": (_integer, "cube: reversing step budget"),
    "max_len": (_integer, "cube: census length bound"),
    "carrier": (_positive, "action: carrier set size"),
}


def _cmd_verify(args) -> int:
    name, options, text_lines = _HARNESSES[args.harness]
    given = vars(args)
    allowed = {o for _, o, _ in options} | {"command", "func", "harness", "json",
                                            _FILE_OPTION.get(args.harness)}
    refused = sorted("--" + o.replace("_", "-") for o in given if o not in allowed)
    if refused:
        raise ValueError("verify %s takes no %s" % (args.harness, " or ".join(refused)))
    params = {key: given.get(option, default) for key, option, default in options}
    values = list(params.values())
    start = time.monotonic()
    # linrep verifies the matrix read from --matrix, else the chain diagram of --rank
    if "matrix" in given:
        if "rank" in given:
            raise ValueError("verify linrep takes --rank or --matrix, not both")
        params = {"matrix": args.matrix}
        with open(args.matrix, encoding="utf-8") as handle:
            values = [load_ci_matrix(handle.read())]
    elif args.harness == "linrep":
        values = [chain_ci_matrix(params["rank"])]
    rep = globals()[name](*values)
    lines = text_lines(rep.details) if text_lines else []
    if "dot" in given:
        with open(args.dot, "w") as handle:
            handle.write(hasse_dot(rep.order, rep.monoid))
        lines.append("DOT written to %s" % args.dot)
    elapsed_ms = int((time.monotonic() - start) * 1000)
    command = "verify %s" % args.harness
    if rep.checks_run == 0:
        raise ValueError("%s ran no checks, so it shows nothing; "
                         "try a larger --rank or --samples" % command)
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared: do not change it."""
    parser = argparse.ArgumentParser(
        prog="aimonoids",
        description="Normal forms, word problems and verification harnesses "
                    "for a family of idempotent Artin-like monoids.")
    sub = parser.add_subparsers(dest="command", required=True)

    reduce_p = sub.add_parser("reduce", help="print the normal form of a word")
    equal_p = sub.add_parser("equal", help="decide whether two words are equal")
    for word_p, func in ((reduce_p, _cmd_reduce), (equal_p, _cmd_equal)):
        word_p.add_argument("--system", choices=("A", "M"), required=True)
        word_p.add_argument("--rank", type=_positive, required=True)
        word_p.set_defaults(func=func)
    reduce_p.add_argument("word", help="word text, letters separated by spaces")
    equal_p.add_argument("u")
    equal_p.add_argument("v")

    verify_p = sub.add_parser("verify", help="run a verification harness")
    verify_p.add_argument("harness", choices=sorted(_HARNESSES))
    for option, (kind, text) in _OPTIONS.items():
        verify_p.add_argument("--" + option.replace("_", "-"), type=kind,
                              default=argparse.SUPPRESS, help=text)
    verify_p.add_argument("--json", action="store_true",
                          help="print the report as one JSON object")
    verify_p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
