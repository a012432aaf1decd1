"""Alternating parent/change benchmark pairs, written as a BENCH_<topic>.json.

    python3 tools/bench_pairs.py --parent DIR --change DIR --topic NAME \\
        --workload wordproblem=1701-1710 --workload verify=1711,1712 \\
        [--trace oracle=S] [--scale aimonoids.words:commute_sort] \\
        [--digest SEEDS] [--note change=TEXT] [--note KEY=TEXT ...]

DIR is a source checkout holding ``perfbench/run.py`` and ``src/``.  Each
``--workload NAME=SEEDS`` gives one pair per seed (SEEDS is a list of
seeds and ranges ``a-b``): ``perfbench/run.py --trace 0`` runs once in each
checkout for the change's BENCHMARK.json ``run_seconds``, one process at a
time, the parent first in odd pairs and the change first in even ones.
Every run compiles the package from source (see ``run_from_source``), as
a fresh checkout does.
A NAME missing from BENCHMARK.json, a NAME given twice to ``--workload``
or twice to ``--trace`` (the second would replace the first's results),
an empty or malformed SEEDS (of ``--workload`` or ``--digest``), a range
whose end precedes its start, a ``--trace`` whose NAME is unknown or
whose SEED is not one seed, or a ``--scale`` MODULE:FUNC that does not
import in both checkouts is refused before anything runs.
The file keeps every pair and, for each end-to-end metric of
BENCHMARK.json, the quartiles of each side, the ratio of the medians, the
number of pairs in which the change was better and a verdict (see
``verdict``).  It is written as
BENCH_<NAME>.json in the current directory.

``--trace NAME=SEED`` adds one traced run of workload NAME per side with
that seed, stored as ``traced_<NAME>``: its per-layer metrics, the p50
scaling table where the workload prints one (``wordproblem``), and
``attempted``, the ops it ran: the traced ops plus their untraced replay,
so twice its ``trace.ops``.  The traced runs are time-bounded, so the two
sides cover different numbers of ops; ``per_op`` holds every per-layer
metric whose BENCHMARK.json unit is ``count`` divided by ``trace.ops``,
which the two sides can be compared on.
``--scale MODULE:FUNC`` adds a table of the function's time on a fresh
list of random letters at ranks 6, 20 and 50 and lengths 400 to 3200,
and on the descending words ((L - i) mod 50) + 1, i < L, of the same
lengths L (cells ``desc L``), before and after, in thread CPU time, which
a busy shared machine disturbs less than wall time: per random cell the
median over words of the best of a few calls, per descending cell the
best of those calls, then the least of SCALE_PROCESSES processes.  Each
process loads both checkouts, the package of MODULE from each under a
name of its own, and times every call on both sides in turn, the side
that goes first alternating, so that the two sides of a cell share the
process and its moment (cells of one checkout swing up to 1.5x between
processes).  ``src_lines`` holds the
physical lines of ``src/**/*.py`` in each checkout, the size that ROADMAP
aim 2 counts.
``--digest SEEDS`` checks, before any timed run, that the change computes
what the parent does: for each seed, each checkout generates that seed's
``wordproblem`` pool from its own ``perfbench/workloads.py``, runs every
op and reduces every op word by its op's system, then runs the seed's
first ``verify`` pass (the nine ops of ``Verify().generate(seed)[:9]``),
with ``rewrite.commute_sort`` and both systems' ``_scan_run`` wrapped in
call counters, and prints one sha256 over every (result, commute_sort
calls, scanner calls), a ``verify`` op's result being its exit code and
its JSON report without ``elapsed_ms`` (see ``DIGEST_PROBE``).  Two
digests that differ stop the tool with an error naming the seed; equal
ones are stored under ``digests``.
``--note`` stores a line of text under its key; ``change`` describes the
change.  A note without ``=``, or one whose key is another key the file
fills in itself (``topic``, ``parent_commit``, ``command``, ``machine``,
``src_lines``, ``workloads``, ``scaling``, ``digests``, ``traced_*``), or
one whose key is given twice (the second text would replace the first),
is refused before anything runs.  Exits non-zero if a run fails or an op
fails, and stops with an error naming the workload and seed when the two
sides of a pair print different ``inputs_sha256`` digests of their op
pools, since their numbers would then measure different inputs, or when
a side prints none (the error names that side too).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

#: keys the file fills in itself, besides ``traced_<NAME>``; a note may not
#: replace them (``change`` is left to a note)
OWN_KEYS = ("topic", "parent_commit", "command", "machine", "src_lines", "workloads",
            "scaling", "digests")

SCALE_RANKS = "6,20,50"
SCALE_LENGTHS = "400,800,1600,3200"
#: processes of the scaling probe, each timing both sides
SCALE_PROCESSES = 4
SCALING_LINE = re.compile(
    r"scaling (\S+) (\S+)\s+len\s+(\d+)-(\d+)\s+p50\s+([\d.]+) ms\s+\(n=(\d+)\)")
INPUTS_LINE = re.compile(r"inputs_sha256 (\S+)")
#: fewer pairs than this never read as a gain
MIN_PAIRS = 10

# Run in a fresh interpreter: argv is the parent's and the change's source
# directories, MODULE:FUNC, ranks, lengths, words per cell, calls per word.
# MODULE's top-level package (or module) is loaded from each checkout under
# a name of its own; prints {"parent": table, "change": table}.
SCALE_PROBE = """
import importlib, importlib.util, itertools, json, os, random, statistics, sys, time
parent, change, spec, ranks, lengths, words, calls = sys.argv[1:]
module, name = spec.split(":")
top, _, rest = module.partition(".")

def load(src, side):
    alias = "_%s_%s" % (side, top)
    package = os.path.join(src, top)
    init = os.path.join(package, "__init__.py")
    if os.path.isfile(init):
        found = importlib.util.spec_from_file_location(
            alias, init, submodule_search_locations=[package])
    else:
        found = importlib.util.spec_from_file_location(alias, package + ".py")
    sys.modules[alias] = importlib.util.module_from_spec(found)
    found.loader.exec_module(sys.modules[alias])
    return getattr(importlib.import_module(alias + ("." + rest if rest else "")), name)

funcs = {"parent": load(parent, "parent"), "change": load(change, "change")}
turns = itertools.cycle([("parent", "change"), ("change", "parent")])

def best(word):
    times = {side: [] for side in funcs}
    for _ in range(int(calls)):
        for side in next(turns):
            w = list(word)
            t0 = time.thread_time()
            funcs[side](w)
            times[side].append(time.thread_time() - t0)
    return {side: min(ts) * 1e3 for side, ts in times.items()}

table = {side: {} for side in funcs}
for rank in map(int, ranks.split(",")):
    for length in map(int, lengths.split(",")):
        rng = random.Random(rank * 100003 + length)
        cell = [best([rng.randint(1, rank) for _ in range(length)])
                for _ in range(int(words))]
        for side in funcs:
            table[side]["rank %d L %d" % (rank, length)] = statistics.median(
                c[side] for c in cell)
for length in map(int, lengths.split(",")):
    for side, ms in best([(length - i) % 50 + 1 for i in range(length)]).items():
        table[side]["desc L %d" % length] = ms
print(json.dumps(table))
"""


# Exits non-zero, naming the error, unless MODULE:FUNC (argv[2]) names a
# callable that imports from the source directory argv[1].
SCALE_CHECK = """
import importlib, sys
sys.path.insert(0, sys.argv[1])
module, name = sys.argv[2].split(":")
if not callable(getattr(importlib.import_module(module), name)):
    sys.exit("%s is not callable" % sys.argv[2])
"""


# Run in a fresh interpreter in a checkout: argv is one seed.  Generates
# that seed's wordproblem pool from the checkout's perfbench/workloads.py,
# then runs every op and reduces every op word by the op's system, and runs
# the seed's first verify pass, with rewrite.commute_sort and both
# _scan_runs counted per call whatever their arguments; prints the number
# of ops run and one sha256 over (result, counts), a verify op's result
# being its exit code and its report without elapsed_ms.
DIGEST_PROBE = """
import hashlib, json, sys
sys.path[:0] = ["src", "perfbench"]
from aimonoids import rewrite, rewrite_a, rewrite_m
from workloads import Verify, WordProblem
seed = int(sys.argv[1])
workload = WordProblem()
workload.setup()
ops = workload.generate(seed)
counts = [0, 0]

def counted(k, fn):
    def call(*args):
        counts[k] += 1
        return fn(*args)
    return call

rewrite.commute_sort = counted(0, rewrite.commute_sort)
rewrite_a._scan_run = counted(1, rewrite_a._scan_run)
rewrite_m._scan_run = counted(1, rewrite_m._scan_run)
reduce = {"a": rewrite_a.a_reduce_steps, "m": rewrite_m.m_reduce_steps}
digest = hashlib.sha256()
for op in ops:
    counts[:] = [0, 0]
    digest.update(repr((op.kind, workload.execute(op), counts)).encode())
    for w in op.args:
        counts[:] = [0, 0]
        digest.update(repr((reduce[op.kind[0]](w), counts)).encode())
verify = Verify()
verify.setup()
passes = verify.generate(seed)[:9]
for op in passes:
    counts[:] = [0, 0]
    code, text = verify.execute(op)
    report = json.loads(text)
    del report["elapsed_ms"]
    digest.update(repr((op.args, code, sorted(report.items()), counts)).encode())
print(len(ops) + len(passes), digest.hexdigest())
"""


def parse_seeds(text: str) -> list:
    """The seeds of "a,b-c,..."; ValueError for a part that is not a seed
    or a range "a-b" with b < a."""
    seeds = []
    for part in text.split(","):
        lo, dash, hi = part.partition("-")
        hi = hi if dash else lo
        if not (lo.isdigit() and hi.isdigit()):
            raise ValueError("%r is not a seed or a range a-b" % part)
        span = range(int(lo), int(hi) + 1)
        if not span:
            raise ValueError("range %r is reversed" % part)
        seeds += span
    return seeds


def scale_error(checkout: Path, spec: str) -> str | None:
    """Why MODULE:FUNC cannot be timed in `checkout`, or None if it can."""
    module, colon, name = spec.partition(":")
    if not (module and colon and name) or ":" in name:
        return "not of the form MODULE:FUNC"
    proc = subprocess.run([sys.executable, "-c", SCALE_CHECK, str(checkout / "src"), spec],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        lines = proc.stderr.strip().splitlines() or ["exit %d" % proc.returncode]
        return "%s: %s" % (checkout, lines[-1])
    return None


def run_from_source(argv: list, **kwargs) -> subprocess.CompletedProcess:
    """subprocess.run(argv) with Python compiling every module from source.

    The process reads bytecode only from a fresh empty PYTHONPYCACHEPREFIX
    and writes none, so a __pycache__ left in one checkout cannot make its
    set-up, which imports the package, look faster than the other's.
    """
    with tempfile.TemporaryDirectory(prefix="bench-pycache-") as cache:
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPYCACHEPREFIX=cache)
        return subprocess.run(argv, env=env, capture_output=True, text=True, **kwargs)


def run_bench(checkout: Path, workload: str, seed: int, seconds: float,
              trace: int) -> tuple:
    """(result dict, stdout) of one perfbench/run.py process in `checkout`,
    run from source."""
    proc = run_from_source(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout)
    if proc.returncode != 0:
        sys.exit("error: %s %s seed %d exited %d:\n%s"
                 % (checkout, workload, seed, proc.returncode, proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


def inputs_digest(stdout: str) -> str | None:
    """The inputs_sha256 digest that perfbench/run.py prints, or None."""
    match = INPUTS_LINE.search(stdout)
    return match.group(1) if match else None


def run_digest(checkout: Path, seed: int) -> str:
    """The DIGEST_PROBE line of `checkout` for `seed`, run from source."""
    proc = run_from_source([sys.executable, "-c", DIGEST_PROBE, str(seed)], cwd=checkout)
    if proc.returncode != 0:
        sys.exit("error: %s digest seed %d exited %d:\n%s"
                 % (checkout, seed, proc.returncode, proc.stderr))
    return proc.stdout.strip()


def check_digests(parent: Path, change: Path, seeds: list) -> dict:
    """Each seed's digest line, the same on both sides, or exit naming the
    first seed whose two lines differ."""
    digests = {}
    for seed in seeds:
        sides = [run_digest(checkout, seed) for checkout in (parent, change)]
        if sides[0] != sides[1]:
            sys.exit("error: digest seed %d: the parent and the change computed "
                     "different results or counts (%s and %s)" % (seed, *sides))
        digests[str(seed)] = sides[0]
        print("digest seed %d: %s" % (seed, sides[0]), file=sys.stderr)
    return digests


def values(result: dict) -> dict:
    return {k: round(m["value"], 4) for k, m in result["metrics"].items()}


def quartiles(xs: list) -> dict:
    if len(xs) == 1:
        q1 = med = q3 = xs[0]
    else:
        q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"q1": round(q1, 4), "median": round(med, 4), "q3": round(q3, 4)}


def verdict(parent: list, change: list, sign: int, bound: float) -> str:
    """How the change's runs of one metric compare with the parent's.

    sign is 1 when higher is better and -1 when lower is; bound is the
    relative worsening BENCHMARK.json allows.  In order:
    worse_beyond_bound: the change's median is worse than the parent's by
        more than bound times the parent's median;
    better: over at least MIN_PAIRS pairs, the change wins at least 9 in
        10 (a tie counts for neither side) and the medians differ by more
        than the parent's IQR;
    unresolved: the parent's IQR exceeds bound times the parent's median
        and not every change run beats every parent run, so the runs
        spread too widely to tell;
    within_bound: anything else.
    """
    q = quartiles(parent)
    iqr = q["q3"] - q["q1"]
    gain = sign * (statistics.median(change) - q["median"])
    limit = bound * abs(q["median"])
    if -gain > limit:
        return "worse_beyond_bound"
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    if len(parent) >= MIN_PAIRS and 10 * wins >= 9 * len(parent) and gain > iqr:
        return "better"
    separated = min(sign * c for c in change) > max(sign * p for p in parent)
    if iqr > limit and not separated:
        return "unresolved"
    return "within_bound"


def summarize(pairs: list, declared: list) -> dict:
    summary = {}
    for metric in declared:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        sides = {side: [p[side][name] for p in pairs] for side in ("parent", "change")}
        stats = {side: quartiles(xs) for side, xs in sides.items()}
        base = stats["parent"]["median"]
        better = sum(sign * (c - p) > 0 for p, c in zip(sides["parent"], sides["change"]))
        summary[name] = {
            "unit": metric["unit"],
            **stats,
            "change_over_parent": round(stats["change"]["median"] / base, 3) if base else None,
            "change_better_in_pairs": "%d of %d" % (better, len(pairs)),
            "verdict": verdict(sides["parent"], sides["change"], sign, metric["bound"]),
        }
    return summary


def run_pairs(parent: Path, change: Path, workload: str, seeds: list,
              seconds: float) -> list:
    pairs = []
    for k, seed in enumerate(seeds, 1):
        order = ("parent", "change") if k % 2 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        failed, digests = {}, {}
        for side in order:
            result, stdout = run_bench(parent if side == "parent" else change,
                                       workload, seed, seconds, 0)
            pair[side] = values(result)
            failed[side] = result["failed"]
            digests[side] = inputs_digest(stdout)
            if digests[side] is None:
                sys.exit("error: %s seed %d: the %s printed no inputs_sha256 digest, "
                         "so the pair cannot show that both sides ran the same inputs"
                         % (workload, seed, side))
        if digests["parent"] != digests["change"]:
            sys.exit("error: %s seed %d: the parent and the change ran different "
                     "inputs (inputs_sha256 %s and %s)"
                     % (workload, seed, digests["parent"], digests["change"]))
        pair["inputs_sha256"] = digests["parent"]
        pair["failed"] = [failed["parent"], failed["change"]]
        pairs.append(pair)
        print("%s seed %d: ops_per_s %s -> %s" % (
            workload, seed, pair["parent"].get("ops_per_s"),
            pair["change"].get("ops_per_s")), file=sys.stderr)
    return pairs


def traced(checkout: Path, workload: str, seed: int, seconds: float,
           counts: set) -> dict:
    """One traced run; `per_op` divides each per-layer metric named in
    `counts` by the traced ops, so that two time-bounded runs compare."""
    result, stdout = run_bench(checkout, workload, seed, seconds, 1)
    table = {}
    for group, family, lo, hi, p50, n in SCALING_LINE.findall(stdout):
        table["%s %s %s-%s" % (group, family, lo, hi)] = {"p50_ms": float(p50), "n": int(n)}
    layers = values(result)
    ops = layers.get("trace.ops")
    per_op = {k: round(v / ops, 4) for k, v in layers.items() if k in counts} if ops else {}
    return {"seed": seed, "attempted": result["attempted"], "failed": result["failed"],
            "scaling_p50": table, "per_layer": layers, "per_op": per_op}


def scale(parent: Path, change: Path, spec: str) -> dict:
    best = {}
    for _ in range(SCALE_PROCESSES):
        proc = run_from_source(
            [sys.executable, "-c", SCALE_PROBE, str(parent / "src"), str(change / "src"),
             spec, SCALE_RANKS, SCALE_LENGTHS, "5", "3"], check=True)
        for side, table in json.loads(proc.stdout).items():
            for cell, ms in table.items():
                entry = best.setdefault(cell, {})
                entry[side] = min(entry.get(side, ms), ms)
    return {cell: {"parent_ms": round(e["parent"], 3), "change_ms": round(e["change"], 3),
                   "change_over_parent": round(e["change"] / e["parent"], 3)}
            for cell, e in best.items()}


def src_lines(checkout: Path) -> int:
    """The physical lines of the Python files under the checkout's src/."""
    return sum(len(path.read_bytes().splitlines())
               for path in (checkout / "src").rglob("*.py"))


def machine() -> str:
    model = platform.machine()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        names = [line.split(":", 1)[1].strip() for line in cpuinfo.read_text().splitlines()
                 if line.startswith("model name")]
        model = names[0] if names else model
    return "%d CPU %s, Python %s" % (os.cpu_count(), model, platform.python_version())


def git_head(checkout: Path) -> str | None:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--topic", required=True)
    parser.add_argument("--workload", action="append", default=[],
                        metavar="NAME=SEEDS")
    parser.add_argument("--trace", action="append", default=[], metavar="NAME=SEED")
    parser.add_argument("--scale", metavar="MODULE:FUNC")
    parser.add_argument("--digest", metavar="SEEDS")
    parser.add_argument("--note", action="append", default=[], metavar="KEY=TEXT")
    args = parser.parse_args(argv)
    for checkout in (args.parent, args.change):
        if not (checkout / "perfbench" / "run.py").is_file():
            parser.error("%s holds no perfbench/run.py" % checkout)
    parent, change = args.parent.resolve(), args.change.resolve()
    benchmark = json.loads((change / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    known = [w["name"] for w in benchmark["workloads"]]
    plan = []
    for entry in args.workload:
        name, _, seeds = entry.partition("=")
        if name not in known:
            parser.error("--workload %s: no workload %r in BENCHMARK.json (%s)"
                         % (entry, name, ", ".join(known)))
        if name in dict(plan):
            parser.error("--workload %s: %r is named twice" % (entry, name))
        try:
            plan.append((name, parse_seeds(seeds)))
        except ValueError as exc:
            parser.error("--workload %s: %s" % (entry, exc))
    traces = []
    for entry in args.trace:
        name, _, seed = entry.partition("=")
        if name not in known:
            parser.error("--trace %s: no workload %r in BENCHMARK.json (%s)"
                         % (entry, name, ", ".join(known)))
        if not seed.isdigit():
            parser.error("--trace %s: %r is not a seed" % (entry, seed))
        if name in dict(traces):
            parser.error("--trace %s: %r is named twice" % (entry, name))
        traces.append((name, int(seed)))
    digest_seeds = []
    if args.digest is not None:
        try:
            digest_seeds = parse_seeds(args.digest)
        except ValueError as exc:
            parser.error("--digest %s: %s" % (args.digest, exc))
    if args.scale:
        for checkout in (parent, change):
            error = scale_error(checkout, args.scale)
            if error:
                parser.error("--scale %s: %s" % (args.scale, error))
    keys = set()
    for note in args.note:
        key, eq, _ = note.partition("=")
        if not eq:
            parser.error("--note %s: not KEY=TEXT" % note)
        if key in OWN_KEYS or key.startswith("traced_"):
            parser.error("--note %s: %r is one of the file's own keys" % (note, key))
        if key in keys:
            parser.error("--note %s: %r is named twice" % (note, key))
        keys.add(key)

    out = {
        "topic": args.topic,
        "change": "",
        "parent_commit": git_head(parent),
        "command": "python3 perfbench/run.py --workload W --seed S --seconds %g "
                   "--trace T, run from a parent checkout and from the change "
                   "checkout, one process at a time; pair k runs the parent "
                   "first when k is odd" % seconds,
        "machine": machine() + "; times are thread CPU time scaled by the "
                   "benchmark's calibration task",
        "src_lines": {"parent": src_lines(parent), "change": src_lines(change)},
        "workloads": {},
    }
    if digest_seeds:
        out["digests"] = check_digests(parent, change, digest_seeds)
    failed = 0
    for name, seeds in plan:
        pairs = run_pairs(parent, change, name, seeds, seconds)
        failed += sum(sum(p["failed"]) for p in pairs)
        out["workloads"][name] = {"pairs": pairs, "summary": summarize(pairs, benchmark["end_to_end"])}
    counts = {m["name"] for m in benchmark["per_layer"] if m["unit"] == "count"}
    for name, seed in traces:
        out["traced_" + name] = {
            side: traced(checkout, name, seed, seconds, counts)
            for side, checkout in (("parent", parent), ("change", change))}
        failed += sum(t["failed"] for t in out["traced_" + name].values())
    if args.scale:
        out["scaling"] = {"function": args.scale,
                          "cells": scale(parent, change, args.scale)}
    for note in args.note:
        key, _, text = note.partition("=")
        out[key] = text
    path = Path("BENCH_%s.json" % args.topic)
    path.write_text(json.dumps(out, indent=1) + "\n")
    print("wrote %s" % path, file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
