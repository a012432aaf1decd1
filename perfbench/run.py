"""The aimonoids benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

NAME is one of wordproblem, verify, oracle (see workloads.py and
BENCHMARK.json for why each was chosen).  Run from anywhere inside a source
checkout: the package is imported from the checkout's ``src`` directory,
never from an installed copy.

With ``--trace 0`` the run reports the end-to-end metrics: set-up time of
a fresh process (median of several), ops per second, p50 and p95 latency,
the share of ops answered correctly, the share with a conclusive verdict,
and peak RSS.  Times are CPU times scaled by a fixed calibration task to
cancel the drift of a shared machine (see Tally); the unscaled figures are
printed too.  With ``--trace 1`` it reports the per-layer metrics from a
traced run of half the time, followed by an untraced replay of the same
ops that gives the tracing overhead; span self times are wall-clock.  The
last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  ``--workload all`` runs each workload in turn and
prints every end-to-end metric by name and unit.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
SETUP_REPEATS = 6
#: CPU seconds of the calibration task on the reference machine (see Tally)
CALIBRATION_REF_S = 0.005
CALIBRATION_EVERY_S = 0.1

# Code run in a fresh interpreter to time set-up: import the package and
# build the workload's presentations and tables, up to the first op.
# Printed: its CPU time, and the median of three calibration probes after.
_SETUP_PROBE = """
import sys, time
t0 = time.process_time()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import aimonoids
from workloads import WORKLOADS
WORKLOADS[sys.argv[3]]().setup()
elapsed = time.process_time() - t0
from run import calibration_s
print(elapsed, sorted(calibration_s() for _ in range(3))[1])
"""


def import_package():
    """Put the checkout's sources first on the path, or exit 2 if absent."""
    if not (SRC / "aimonoids" / "__init__.py").is_file():
        print("error: no aimonoids sources under %s; run from a source checkout" % SRC,
              file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]


def declared_units(kind: str) -> dict:
    """{name: unit} of the metrics BENCHMARK.json lists under `kind`."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def measure_setup(workload: str, repeats: int) -> list:
    """Set-up CPU times of fresh processes, scaled as op times are."""
    cmd = [sys.executable, "-c", _SETUP_PROBE, str(SRC), str(BENCH_DIR), workload]
    times = []
    for _ in range(repeats):
        proc = subprocess.run(cmd, check=True, capture_output=True, text=True)
        elapsed, probe = (float(x) for x in proc.stdout.split())
        times.append(elapsed * CALIBRATION_REF_S / probe)
    return times


def inputs_digest(ops) -> str:
    h = hashlib.sha256()
    for op in ops:
        h.update(op.describe().encode())
        h.update(b"\n")
    return h.hexdigest()


_CALIBRATION_BYTES = random.Random(0).randbytes(16_400)


def calibration_s() -> float:
    """CPU time of a fixed pure-Python task that uses no aimonoids code.

    An interpreter loop (insertion sort of a list), then 16k bytes slices
    stored in a dict of a few MB: the two kinds of work the library does,
    the second sensitive to the caches as the oracle's searches are.
    """
    t0 = time.thread_time()
    w = [(i * 7919) % 401 for i in range(300)]
    for i in range(1, len(w)):
        x = w[i]
        j = i
        while j > 0 and w[j - 1] > x:
            w[j] = w[j - 1]
            j -= 1
        w[j] = x
    data = _CALIBRATION_BYTES
    seen = {}
    for i in range(16_000):
        key = data[i:i + 16]
        if key not in seen:
            seen[key] = i
    return time.thread_time() - t0


class Tally:
    """Op times, calibration probes and verdict counts of one closed loop.

    The speed of a shared machine drifts by nearly 2x over minutes, and
    CPU time alone does not remove it (other tenants slow the caches and
    the core, not only take turns on it).  So the loop runs the
    calibration task every CALIBRATION_EVERY_S of op time, and an op's
    latency is its CPU time scaled by CALIBRATION_REF_S over the mean of
    the two probes around it: the op's time on a machine where the task
    takes CALIBRATION_REF_S.  The calibration task is fixed, so a change
    to aimonoids moves the latencies and never the scale.
    """

    def __init__(self):
        self.cpu_s = []  # CPU time of each op
        self.probe_at = []  # index of the last probe before each op
        self.probes = []
        self.indices = []  # pool index of each op
        self.failed = 0
        self.decided = 0
        self.first_failure = None

    def probe(self) -> None:
        self.probes.append(calibration_s())

    def latencies(self) -> list:
        p = self.probes
        return [t * 2 * CALIBRATION_REF_S / (p[j] + p[j + 1])
                for t, j in zip(self.cpu_s, self.probe_at)]

    def busy_s(self) -> float:
        return sum(self.latencies())


def run_op(workload, op, index, tally, tracer=None):
    """Time one op, then check it outside the timed region.

    Op time is the CPU time of this thread: the ops are single-threaded
    and do no I/O, and CPU time leaves out the time the machine gives to
    other work.
    """
    t0 = time.thread_time()
    try:
        if tracer is None:
            result = workload.execute(op)
        else:
            with tracer.op(index):
                result = workload.execute(op)
        elapsed = time.thread_time() - t0
    except Exception as err:  # a raising op is a failed op, not a crashed run
        elapsed = time.thread_time() - t0
        ok, decided = False, False
        result = err
    else:
        try:
            ok, decided = workload.check(op, result)
        except Exception as err:
            ok, decided, result = False, False, err
    tally.cpu_s.append(elapsed)
    tally.probe_at.append(len(tally.probes) - 1)
    tally.indices.append(index)
    tally.decided += decided
    if not ok:
        tally.failed += 1
        if tally.first_failure is None:
            tally.first_failure = "%s -> %.200r" % (op.describe()[:200], result)


def closed_loop(workload, ops, seconds, tracer=None, order=None) -> Tally:
    """One client: next op only after the last one returned.

    Runs until the ops' own CPU time adds up to `seconds` (or the wall
    clock reaches twice that), cycling through the pool, or exactly over
    `order` (pool indices) when given.
    """
    tally = Tally()
    busy = next_probe = 0.0
    wall_end = time.monotonic() + 2 * seconds
    schedule = order if order is not None else itertools.cycle(range(len(ops)))
    for i in schedule:
        if order is None and (busy >= seconds or time.monotonic() >= wall_end):
            break
        if busy >= next_probe:
            tally.probe()
            next_probe = busy + CALIBRATION_EVERY_S
        run_op(workload, ops[i], i, tally, tracer)
        busy += tally.cpu_s[-1]
    tally.probe()
    return tally


def percentile_ms(values, q: int) -> float:
    if len(values) == 1:
        return values[0] * 1000
    return statistics.quantiles(values, n=100)[q - 1] * 1000


def end_to_end(tally: Tally, setup_s: float) -> dict:
    latencies = tally.latencies()
    n = len(latencies)
    return {
        "setup_s": setup_s,
        "ops_per_s": n / sum(latencies),
        "latency_p50_ms": percentile_ms(latencies, 50),
        "latency_p95_ms": percentile_ms(latencies, 95),
        "correct_frac": 1 - tally.failed / n,
        "decided_frac": tally.decided / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def print_raw(tally: Tally) -> None:
    """The unscaled CPU-time figures and the machine's speed, for reference."""
    cpu = tally.cpu_s
    print("latency samples: %d ops; unscaled CPU time: %.3f ops/s, p50 %.4f ms, "
          "p95 %.3f ms; calibration task median %.3f ms over %d probes" % (
              len(cpu), len(cpu) / sum(cpu), percentile_ms(cpu, 50), percentile_ms(cpu, 95),
              statistics.median(tally.probes) * 1000, len(tally.probes)))


# ---------------------------------------------------------------------------
# wordproblem scaling breakdown


RANDOM_BUCKETS = (16, 64, 256, 1024, 3201)
DESC_BUCKETS = (200, 400, 800, 1601)


def _bucket(family, length):
    edges = DESC_BUCKETS if family == "descending" else RANDOM_BUCKETS
    return next((lo, hi - 1) for lo, hi in zip(edges, edges[1:]) if lo <= length < hi)


def scaling(ops, tally: Tally):
    """p50 per (system, family, length bucket) of the reduce ops, and the
    log-log slope of latency against length per word family."""
    cells = {}
    points = {"random": ([], []), "descending": ([], [])}
    for i, t in zip(tally.indices, tally.latencies()):
        op = ops[i]
        if not op.kind.endswith("reduce"):
            continue
        family, length = op.info["family"], op.info["length"]
        cells.setdefault((op.info["system"], family, _bucket(family, length)), []).append(t)
        xs, ys = points["descending" if family == "descending" else "random"]
        xs.append(math.log(length))
        ys.append(math.log(t))
    table = [(key, statistics.median(ts) * 1000, len(ts)) for key, ts in sorted(cells.items())]
    slopes = {group: statistics.linear_regression(xs, ys).slope if len(set(xs)) > 1 else 0.0
              for group, (xs, ys) in points.items()}
    return table, slopes


def print_scaling(table, slopes):
    for (system, family, (lo, hi)), p50, n in table:
        print("scaling %s %-10s len %4d-%-4d p50 %9.3f ms  (n=%d)"
              % (system, family, lo, hi, p50, n))
    for group, slope in slopes.items():
        print("scaling exponent %s: %.3f" % (group, slope))


# ---------------------------------------------------------------------------
# per-layer metrics


def per_layer(tracer, traced: Tally, untraced: Tally, slopes, names) -> dict:
    """The per-layer metrics `names`: the ratios below, or else the tracer's
    counters, 0 for a layer the workload does not use.  Every ratio's base
    is a metric too."""
    def get(key):
        return tracer.counters.get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for system in ("rewrite_a", "rewrite_m"):
        reduces, rounds = get(system + ".reduce.calls"), get(system + ".rounds")
        m[system + ".rounds_per_reduce.mean"] = ratio(rounds, reduces)
        m[system + ".steps_per_letter"] = ratio(get(system + ".steps"), get(system + ".letters"))
        m[system + ".productive_rounds_frac"] = ratio(rounds - reduces, rounds)
    bfs, closure = "monoid_core.bfs_equal", "monoid_core.congruence_closure"
    m[bfs + ".witness_len.mean"] = ratio(get(bfs + ".witness_steps"), get(bfs + ".equal"))
    m[closure + ".complete_frac"] = ratio(get(closure + ".complete"), get(closure + ".calls"))
    m["rewrite.scaling_exponent.random"] = slopes["random"]
    m["rewrite.scaling_exponent.descending"] = slopes["descending"]
    m.update({
        "trace.ops": len(traced.cpu_s),
        "trace.spans": tracer.spans_total,
        "trace.traced_ops_per_s": len(traced.cpu_s) / traced.busy_s(),
        "trace.untraced_ops_per_s": len(untraced.cpu_s) / untraced.busy_s(),
        "trace.overhead_frac": traced.busy_s() / untraced.busy_s() - 1,
    })
    return {name: m.get(name, get(name)) for name in names}


# ---------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload and return the result object that is printed.

    Set-up is timed in SETUP_REPEATS fresh processes before the loop and
    as many after it, so a slow spell of the machine hits few of them; the
    first process, which compiles the bytecode, is not counted.
    """
    from tracing import Tracer
    from workloads import WORKLOADS

    setup_times = [] if trace else measure_setup(name, 1 + SETUP_REPEATS)[1:]
    workload = WORKLOADS[name]()
    workload.setup()
    ops = workload.generate(seed)
    print("workload %s seed %d: %d ops in the input pool, inputs_sha256 %s"
          % (name, seed, len(ops), inputs_digest(ops)))
    if not trace:
        tally = closed_loop(workload, ops, seconds)
        tallies = [tally]
        setup_times += measure_setup(name, SETUP_REPEATS)
        metrics = end_to_end(tally, statistics.median(setup_times))
        units = declared_units("end_to_end")
        print_raw(tally)
        if name == "wordproblem":
            print_scaling(*scaling(ops, tally))
    else:
        tracer = Tracer()
        with tracer.installed():
            traced = closed_loop(workload, ops, seconds / 2, tracer)
        untraced = closed_loop(workload, ops, 0, order=traced.indices)
        tallies = [traced, untraced]
        table, slopes = scaling(ops, untraced)
        if name == "wordproblem":
            print_scaling(table, slopes)
        units = declared_units("per_layer")
        metrics = per_layer(tracer, traced, untraced, slopes, units)
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / ("spans-%s-%d.tsv" % (name, seed))
        tracer.write(spans_path)
        print("%d spans, first %d written to %s" % (
            tracer.spans_total, len(tracer.span_name), spans_path.relative_to(ROOT)))
    attempted = sum(len(t.cpu_s) for t in tallies)
    failed = sum(t.failed for t in tallies)
    for t in tallies:
        if t.first_failure:
            print("first failure: %s" % t.first_failure)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in units.items()},
    }


def run_all(seed: int, seconds: float) -> dict:
    """Each workload in its own process (so peak RSS is its own), as a table."""
    from workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, check=True)
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        for metric, entry in results[name]["metrics"].items():
            print("%-12s %-15s %14.6f %s" % (name, metric, entry["value"], entry["unit"]))
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_package()
    from workloads import WORKLOADS

    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        result = run_all(args.seed, args.seconds)
    elif args.workload in WORKLOADS:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    else:
        parser.error("unknown workload %r; choose from %s or all"
                     % (args.workload, ", ".join(WORKLOADS)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
