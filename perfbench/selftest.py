"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. Injected faults must be caught: a wrong reducer swapped in for
   ``a_reduce``/``m_reduce`` must give failed ops on ``wordproblem`` and
   ``verify``, and a wrong oracle swapped in for ``bfs_equal`` must give
   failed ops on ``oracle``.
2. A tiny smoke run (``--workload all``, one second each) must print every
   end-to-end metric of BENCHMARK.json with its unit, for every workload,
   with no failed op; ``--trace 1`` must print every per-layer metric, and
   each must be non-zero on some workload (a name in BENCHMARK.json that
   nothing counts reads 0 everywhere).
3. Seed-0 inputs must hash to the digests recorded in manifest.json.
4. In a directory holding only BENCHMARK.json and the benchmark's files
   the benchmark must exit non-zero without printing a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run

CHECKS = []


def expect(label: str, ok: bool, detail: str = "") -> None:
    CHECKS.append(ok)
    print("%s  %s%s" % ("PASS" if ok else "FAIL", label, ("  (" + detail + ")") if detail else ""))


def injected_faults() -> None:
    from aimonoids import monoid_core, rewrite_a, rewrite_m
    from tracing import substituted

    def wrong_reducer(original):
        # leaves every fifth-length word unreduced: inconsistent across a
        # class, so equalities the harnesses rely on break too
        return lambda word: tuple(word) if len(tuple(word)) % 5 == 0 else original(word)

    def wrong_oracle(p, u, v, *args, **kwargs):
        verdict = original_bfs(p, u, v, *args, **kwargs)
        if verdict.status == monoid_core.EQUAL:
            return monoid_core.OracleVerdict(monoid_core.DISTINCT_WITHIN_BOUND)
        return verdict

    original_bfs = monoid_core.bfs_equal
    reducers = [(rewrite_a.a_reduce, wrong_reducer(rewrite_a.a_reduce)),
                (rewrite_m.m_reduce, wrong_reducer(rewrite_m.m_reduce))]
    for name, swaps in (("wordproblem", reducers), ("verify", reducers),
                        ("oracle", [(original_bfs, wrong_oracle)])):
        with substituted(swaps):
            result = run.run_workload(name, 0, 1.0, trace=False)
        frac = result["failed"] / result["attempted"]
        expect("injected fault caught on %s" % name, frac > 0 and not result["correct"],
               "failed_frac %.3f of %d ops" % (frac, result["attempted"]))


def run_bench(args, cwd=run.ROOT):
    return subprocess.run([sys.executable, str(run.BENCH_DIR / "run.py")] + args,
                          capture_output=True, text=True, cwd=cwd, timeout=600)


def smoke() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    proc = run_bench(["--workload", "all", "--seed", "0", "--seconds", "1"])
    print(proc.stdout.rstrip())
    expect("--workload all exits 0", proc.returncode == 0, proc.stderr[-300:])
    if proc.returncode == 0:
        results = json.loads(proc.stdout.strip().splitlines()[-1])
        for name, result in results.items():
            check_result(name, result, spec["end_to_end"], "end-to-end")
    counted = set()
    for name in [w["name"] for w in spec["workloads"]]:
        # 4 s, half of it traced: enough for a pass over every verify harness
        proc = run_bench(["--workload", name, "--seed", "0", "--seconds", "4", "--trace", "1"])
        expect("%s --trace 1 exits 0" % name, proc.returncode == 0, proc.stderr[-300:])
        if proc.returncode == 0:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check_result(name, result, spec["per_layer"], "per-layer")
            counted |= {k for k, v in result["metrics"].items() if v["value"] != 0}
    never = sorted(m["name"] for m in spec["per_layer"] if m["name"] not in counted)
    expect("every per-layer metric non-zero on some workload", not never, str(never))


def check_result(name, result, metric_spec, kind) -> None:
    expect("%s: result keys" % name,
           set(result) == {"correct", "attempted", "failed", "metrics"})
    expect("%s: no failed op" % name, result["correct"] and result["failed"] == 0,
           "%d of %d failed" % (result["failed"], result["attempted"]))
    want = {m["name"]: m["unit"] for m in metric_spec}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    expect("%s: every %s metric with its unit" % (name, kind), got == want,
           "missing %s, extra %s, unit mismatch %s" % (
               sorted(set(want) - set(got)), sorted(set(got) - set(want)),
               sorted(k for k in want if k in got and got[k] != want[k])))


def digests() -> None:
    from workloads import WORKLOADS

    manifest = json.loads((run.BENCH_DIR / "manifest.json").read_text())
    for name, cls in WORKLOADS.items():
        workload = cls()
        workload.setup()
        digest = run.inputs_digest(workload.generate(0))
        expect("%s: seed-0 inputs match manifest.json" % name,
               digest == manifest["workloads"][name]["inputs_sha256_seed0"], digest)


def bare_directory() -> None:
    bare = run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.BENCH_DIR, bare / run.BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, str(bare / run.BENCH_DIR.name / "run.py"),
                           "--workload", "wordproblem", "--seed", "0", "--seconds", "1",
                           "--trace", "0"], capture_output=True, text=True, cwd=bare,
                          timeout=180)
    shutil.rmtree(bare)
    expect("bare directory: non-zero exit, no result",
           proc.returncode != 0 and '"metrics"' not in proc.stdout,
           "exit %d, stderr %s" % (proc.returncode, proc.stderr.strip()[:120]))


def main() -> int:
    run.import_package()
    # workloads captures the reducers its checks trust at import: import it
    # before any fault is swapped in
    import workloads  # noqa: F401
    injected_faults()
    digests()
    smoke()
    bare_directory()
    print("%d of %d checks passed" % (sum(CHECKS), len(CHECKS)))
    return 0 if all(CHECKS) else 1


if __name__ == "__main__":
    sys.exit(main())
