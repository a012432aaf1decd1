import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def test_parse_seeds():
    assert bench_pairs.parse_seeds("3") == [3]
    assert bench_pairs.parse_seeds("1701-1703,9") == [1701, 1702, 1703, 9]
    for bad in ("", "5-3", "1,", "x", "-3", "1-"):
        with pytest.raises(ValueError):
            bench_pairs.parse_seeds(bad)


@pytest.mark.parametrize("workload", ["wordproblem=", "wordproblem=5-3",
                                      "nosuch=1", "oracle=1,x"])
def test_bad_workload_is_refused_before_any_run(workload, monkeypatch, capsys):
    def no_run(*args):
        raise AssertionError("a benchmark ran")
    monkeypatch.setattr(bench_pairs, "run_bench", no_run)
    argv = ["--parent", str(ROOT), "--change", str(ROOT), "--topic", "t",
            "--workload", "verify=1", "--workload", workload]
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(argv)
    assert exc.value.code == 2
    assert "error: --workload " + workload in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["aimonoids.words", ":commute_sort", "aimonoids.words:",
                                  "aimonoids.words:commute_sort:x",
                                  "aimonoids.words:no_such_function",
                                  "aimonoids.no_such_module:commute_sort",
                                  "aimonoids.words:__name__"])
def test_bad_scale_spec_is_refused_before_any_run(spec, monkeypatch, capsys):
    def no_run(*args):
        raise AssertionError("a benchmark ran")
    monkeypatch.setattr(bench_pairs, "run_bench", no_run)
    argv = ["--parent", str(ROOT), "--change", str(ROOT), "--topic", "t",
            "--workload", "verify=1", "--scale", spec]
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(argv)
    assert exc.value.code == 2
    assert "error: --scale " + spec in capsys.readouterr().err


@pytest.mark.parametrize("trace", ["nosuch=1", "oracle", "oracle=", "oracle=x",
                                   "oracle=1-3", "oracle=1,2", "=1"])
def test_bad_trace_is_refused_before_any_run(trace, monkeypatch, capsys):
    def no_run(*args):
        raise AssertionError("a benchmark ran")
    monkeypatch.setattr(bench_pairs, "run_bench", no_run)
    argv = ["--parent", str(ROOT), "--change", str(ROOT), "--topic", "t",
            "--workload", "verify=1", "--trace", "wordproblem=3", "--trace", trace]
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(argv)
    assert exc.value.code == 2
    assert "error: --trace " + trace in capsys.readouterr().err


@pytest.mark.parametrize("option, first, again", [
    ("--workload", "oracle=1-2", "oracle=3-4"), ("--workload", "verify=1", "verify=1"),
    ("--trace", "oracle=1", "oracle=2")])
def test_a_workload_or_trace_named_twice_is_refused_before_any_run(
        option, first, again, monkeypatch, capsys):
    def no_run(*args):
        raise AssertionError("a benchmark ran")
    monkeypatch.setattr(bench_pairs, "run_bench", no_run)
    argv = ["--parent", str(ROOT), "--change", str(ROOT), "--topic", "t",
            "--workload", "wordproblem=1", option, first, option, again]
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(argv)
    assert exc.value.code == 2
    name = again.partition("=")[0]
    assert "error: %s %s: %r is named twice" % (option, again, name) in capsys.readouterr().err


@pytest.mark.parametrize("note", ["workloads=x", "topic=x", "parent_commit=x", "command=x",
                                  "machine=x", "scaling=x", "traced_verify=x",
                                  "traced_=x", "digests=x", "foo", "change"])
def test_a_note_that_would_overwrite_results_is_refused_before_any_run(
        note, monkeypatch, capsys):
    def no_run(*args):
        raise AssertionError("a benchmark ran")
    monkeypatch.setattr(bench_pairs, "run_bench", no_run)
    argv = ["--parent", str(ROOT), "--change", str(ROOT), "--topic", "t",
            "--workload", "verify=1", "--note", "change=fine", "--note", note]
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(argv)
    assert exc.value.code == 2
    assert "error: --note " + note in capsys.readouterr().err


def fake_runs(digests):
    """A run_bench that prints the next of `digests` as its inputs_sha256."""
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    calls = []

    def run(checkout, workload, seed, seconds, trace):
        digest = digests[len(calls)]
        calls.append((workload, seed))
        stdout = ("workload %s seed %d: 40 ops in the input pool, inputs_sha256 %s\n"
                  % (workload, seed, digest))
        return {"metrics": {name: {"value": 1.0} for name in names}, "failed": 0}, stdout
    return run, calls


def test_pairs_with_different_inputs_are_refused(tmp_path, monkeypatch):
    run, calls = fake_runs(["aa", "aa", "bb", "cc"])
    monkeypatch.setattr(bench_pairs, "run_bench", run)
    monkeypatch.chdir(tmp_path)
    argv = ["--parent", str(ROOT), "--change", str(ROOT), "--topic", "t",
            "--workload", "oracle=7,8,9"]
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(argv)
    assert "error: oracle seed 8: the parent and the change ran different inputs" in str(
        exc.value.code)
    assert calls == [("oracle", 7), ("oracle", 7), ("oracle", 8), ("oracle", 8)]
    assert not (tmp_path / "BENCH_t.json").exists()


def test_pairs_keep_their_inputs_digest(tmp_path, monkeypatch):
    run, _ = fake_runs(["aa", "aa", "bb", "bb"])
    monkeypatch.setattr(bench_pairs, "run_bench", run)
    monkeypatch.chdir(tmp_path)
    argv = ["--parent", str(ROOT), "--change", str(ROOT), "--topic", "t",
            "--workload", "verify=7,8"]
    assert bench_pairs.main(argv) == 0
    pairs = json.loads((tmp_path / "BENCH_t.json").read_text())["workloads"]["verify"]["pairs"]
    assert [p["inputs_sha256"] for p in pairs] == ["aa", "bb"]


def test_notes_are_stored_beside_the_results(tmp_path, monkeypatch):
    run, _ = fake_runs(["aa", "aa"])
    monkeypatch.setattr(bench_pairs, "run_bench", run)
    monkeypatch.chdir(tmp_path)
    argv = ["--parent", str(ROOT), "--change", str(ROOT), "--topic", "t",
            "--workload", "verify=7", "--note", "change=what changed",
            "--note", "identity=a=b"]
    assert bench_pairs.main(argv) == 0
    out = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert out["change"] == "what changed" and out["identity"] == "a=b"
    assert len(out["workloads"]["verify"]["pairs"]) == 1



@pytest.mark.parametrize("digests, side", [([None, "aa"], "parent"), (["aa", None], "change")])
def test_a_pair_without_an_inputs_digest_is_refused(digests, side, tmp_path, monkeypatch):
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    calls = []

    def run(checkout, workload, seed, seconds, trace):
        digest = digests[len(calls)]
        calls.append((workload, seed))
        stdout = "workload %s seed %d: 40 ops in the input pool" % (workload, seed)
        if digest is not None:
            stdout += ", inputs_sha256 " + digest
        return {"metrics": {name: {"value": 1.0} for name in names}, "failed": 0}, stdout + "\n"
    monkeypatch.setattr(bench_pairs, "run_bench", run)
    monkeypatch.chdir(tmp_path)
    argv = ["--parent", str(ROOT), "--change", str(ROOT), "--topic", "t",
            "--workload", "wordproblem=4"]
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(argv)
    assert str(exc.value.code) == ("error: wordproblem seed 4: the %s printed no "
                                   "inputs_sha256 digest, so the pair cannot show that "
                                   "both sides ran the same inputs" % side)
    assert not (tmp_path / "BENCH_t.json").exists()


def canned_verdict(parent, change, name="ops_per_s"):
    """The summary verdict of `name` over pairs with these parent and change values."""
    declared = [m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
                if m["name"] == name]
    pairs = [{"parent": {name: p}, "change": {name: c}} for p, c in zip(parent, change)]
    return bench_pairs.summarize(pairs, declared)[name]["verdict"]


STEADY = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]  # IQR 1.5, bound 20


@pytest.mark.parametrize("parent, change, name, expected", [
    # ops_per_s, higher is better, bound 0.2
    (STEADY, [x - 25 for x in STEADY], "ops_per_s", "worse_beyond_bound"),
    (STEADY, [x + 10 for x in STEADY], "ops_per_s", "better"),
    (STEADY, [x - 10 for x in STEADY], "ops_per_s", "within_bound"),
    # 9 wins and a tie is better; 8 wins and two ties is not
    (STEADY, [x + 10 for x in STEADY[:9]] + STEADY[9:], "ops_per_s", "better"),
    (STEADY, [x + 10 for x in STEADY[:8]] + STEADY[8:], "ops_per_s", "within_bound"),
    # wins every pair, but by less than the parent's IQR
    (STEADY, [x + 1 for x in STEADY], "ops_per_s", "within_bound"),
    # the parent's IQR (40) exceeds the bound (20) and the sides overlap
    ([60, 80, 100, 120, 140] * 2, [70, 90, 100, 110, 130] * 2, "ops_per_s", "unresolved"),
    ([60, 80, 100, 120, 140] * 2, [150, 151, 152, 153, 154] * 2, "ops_per_s", "better"),
    # an IQR of 51 above the bound, and every change run beats every parent
    # run, by less than the IQR
    ([40, 50, 100, 101, 102] * 2, [103, 104, 105, 106, 107] * 2, "ops_per_s",
     "within_bound"),
    # latency_p95_ms, lower is better, bound 0.25
    ([10.0] * 3, [13.0] * 3, "latency_p95_ms", "worse_beyond_bound"),
    ([10.0] * 3, [12.0] * 3, "latency_p95_ms", "within_bound"),
    ([10.0] * 10, [9.0] * 10, "latency_p95_ms", "better"),
    # three pairs never read as a gain, however clear
    ([10.0] * 3, [9.0] * 3, "latency_p95_ms", "within_bound"),
])
def test_summary_gives_each_metric_a_verdict(parent, change, name, expected):
    assert canned_verdict(parent, change, name) == expected


def test_traced_runs_keep_how_many_ops_they_covered(tmp_path, monkeypatch):
    attempted = {"parent": 2475 * 2, "change": 3139 * 2}

    def run(checkout, workload, seed, seconds, trace):
        assert (workload, seed, trace) == ("oracle", 5, 1)
        side = "parent" if checkout == tmp_path / "parent" else "change"
        result = {"metrics": {"trace.ops": {"value": attempted[side] / 2}},
                  "attempted": attempted[side], "failed": 0}
        return result, "workload oracle seed 5\n"
    for side in attempted:
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").touch()
    (tmp_path / "change" / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    monkeypatch.setattr(bench_pairs, "run_bench", run)
    monkeypatch.chdir(tmp_path)
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
            "--topic", "t", "--trace", "oracle=5"]
    assert bench_pairs.main(argv) == 0
    traced = json.loads((tmp_path / "BENCH_t.json").read_text())["traced_oracle"]
    for side in attempted:
        assert traced[side]["attempted"] == attempted[side]
        assert traced[side]["per_layer"] == {"trace.ops": attempted[side] / 2}


def test_traced_runs_give_their_counts_per_op(tmp_path, monkeypatch):
    ops = {"parent": 40, "change": 50}
    layers = {"rewrite_m.reduce.calls": 6000, "rewrite_m.apply.calls": 30,
              "rewrite_m.reduce.self_s": 2.5, "rewrite_m.steps_per_letter": 1.5}

    def run(checkout, workload, seed, seconds, trace):
        side = "parent" if checkout == tmp_path / "parent" else "change"
        scale = ops[side] / 40
        metrics = {k: {"value": v * scale} for k, v in layers.items()}
        metrics["trace.ops"] = {"value": ops[side]}
        return {"metrics": metrics, "attempted": 2 * ops[side], "failed": 0}, ""
    for side in ops:
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").touch()
    (tmp_path / "change" / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    monkeypatch.setattr(bench_pairs, "run_bench", run)
    monkeypatch.chdir(tmp_path)
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
            "--topic", "t", "--trace", "verify=3"]
    assert bench_pairs.main(argv) == 0
    traced = json.loads((tmp_path / "BENCH_t.json").read_text())["traced_verify"]
    for side in ops:
        # only the count metrics, with the same value per op on both sides
        assert traced[side]["per_op"] == {"rewrite_m.reduce.calls": 150.0,
                                          "rewrite_m.apply.calls": 0.75,
                                          "trace.ops": 1.0}


def test_every_run_compiles_from_source(tmp_path, monkeypatch):
    seen = []

    def run(argv, env, capture_output, text, **kwargs):
        cache = Path(env["PYTHONPYCACHEPREFIX"])
        seen.append((cache, cache.is_dir() and not any(cache.iterdir()),
                     env["PYTHONDONTWRITEBYTECODE"], kwargs["cwd"]))
        (cache / "stale.pyc").write_text("")
        stdout = json.dumps({"metrics": {}, "failed": 0}) + "\n"
        return bench_pairs.subprocess.CompletedProcess(argv, 0, stdout, "")
    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    for checkout in (tmp_path / "parent", tmp_path / "change"):
        bench_pairs.run_bench(checkout, "verify", 4, 1.0, 0)
    assert [s[1:] for s in seen] == [(True, "1", tmp_path / "parent"),
                                     (True, "1", tmp_path / "change")]
    # each run's cache is its own and is gone afterwards
    assert seen[0][0] != seen[1][0]
    assert not any(cache.exists() for cache, *_ in seen)


def test_src_lines_note_is_refused_before_any_run(monkeypatch, capsys):
    def no_run(*args):
        raise AssertionError("a benchmark ran")
    monkeypatch.setattr(bench_pairs, "run_bench", no_run)
    argv = ["--parent", str(ROOT), "--change", str(ROOT), "--topic", "t",
            "--workload", "verify=1", "--note", "src_lines=x"]
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(argv)
    assert exc.value.code == 2
    assert "error: --note src_lines=x" in capsys.readouterr().err


def test_the_file_records_each_checkouts_src_lines(tmp_path, monkeypatch):
    run, _ = fake_runs(["aa", "aa"])
    for side, files in (("parent", {"a.py": "x = 1\ny = 2\n", "pkg/b.py": "z = 3\n"}),
                        ("change", {"a.py": "x = 1\n", "pkg/b.py": "",
                                    "pkg/notes.txt": "not\ncounted\n"})):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").touch()
        for name, text in files.items():
            path = tmp_path / side / "src" / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
    (tmp_path / "change" / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    monkeypatch.setattr(bench_pairs, "run_bench", run)
    monkeypatch.chdir(tmp_path)
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
            "--topic", "t", "--workload", "verify=7"]
    assert bench_pairs.main(argv) == 0
    out = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert out["src_lines"] == {"parent": 3, "change": 1}


def test_scale_probe_times_the_descending_words(tmp_path):
    # a stand-in module in each checkout that records every word the probe
    # hands it, and which side ran
    order = tmp_path / "order.txt"
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "probe_target.py").write_text(
            "def record(w):\n"
            "    with open(%r, 'a') as f:\n"
            "        f.write(repr(w) + '\\n')\n"
            "    with open(%r, 'a') as f:\n"
            "        f.write(%r + '\\n')\n"
            % (str(tmp_path / ("words_%s.txt" % side)), str(order), side))
    proc = bench_pairs.subprocess.run(
        [bench_pairs.sys.executable, "-c", bench_pairs.SCALE_PROBE,
         str(tmp_path / "parent"), str(tmp_path / "change"),
         "probe_target:record", "6", "7,60", "2", "3"],
        capture_output=True, text=True, check=True)
    tables = json.loads(proc.stdout)
    assert sorted(tables) == ["change", "parent"]
    for side, table in tables.items():
        assert sorted(table) == ["desc L 60", "desc L 7", "rank 6 L 60", "rank 6 L 7"]
        assert all(ms >= 0 for ms in table.values())
        words = [eval(line) for line in (tmp_path / ("words_%s.txt" % side)).read_text().splitlines()]
        # two random words per rank cell, then one descending word per length,
        # each timed three times
        assert len(words) == 3 * (2 * 2 + 2)
        desc = {len(w): w for w in words[-6:]}
        assert desc == {length: [(length - i) % 50 + 1 for i in range(length)]
                        for length in (7, 60)}
        assert desc[60][:12] == [11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 50]
        assert all(max(w) <= 6 for w in words[:12])
    assert ((tmp_path / "words_parent.txt").read_text()
            == (tmp_path / "words_change.txt").read_text())
    # both sides time each call of a word in turn, the first alternating
    sides = order.read_text().split()
    assert [tuple(sides[k:k + 2]) for k in range(0, len(sides), 2)] == [
        ("parent", "change"), ("change", "parent")] * 9


STAND_IN_WORKLOADS = """
import json
from aimonoids import rewrite, rewrite_a


class Op:
    def __init__(self, kind, args):
        self.kind, self.args = kind, args


class WordProblem:
    def setup(self):
        pass

    def generate(self, seed):
        return [Op("a_reduce", ((2, 1),))]

    def execute(self, op):
        return rewrite.normal_form(op.args[0])


class Verify:
    def setup(self):
        pass

    def generate(self, seed):
        return [Op("verify", ("verify", "h%d" % k, "--seed", str(seed)))
                for k in range(12)]

    def execute(self, op):
        rewrite.commute_sort([3, 1])
        for _ in range(SCANS):
            rewrite_a._scan_run([], [], 0, 0)
        return FAILED.get(op.args[1], 0), json.dumps({
            "command": "verify " + op.args[1], "checks_run": 5,
            "failures": ["f"] * FAILED.get(op.args[1], 0), "elapsed_ms": ELAPSED})


class Verdict:
    def __init__(self, status, witness, states_explored):
        self.status, self.witness, self.states_explored = status, witness, states_explored


class Reversal:
    def __init__(self, word, complete):
        self.word, self.complete = word, complete


class Oracle:
    def setup(self):
        pass

    def generate(self, seed):
        return [Op("bfs_equal", ("M", 3, (1, 2), (2, 1))), Op("closure", ("M", (1,))),
                Op("cube", ((1,), (2,)))]

    def execute(self, op):
        if op.kind == "bfs_equal":
            return Verdict("distinct-within-bound", None, STATES)
        if op.kind == "closure":
            return frozenset(CLOSURE), True
        return (Reversal(CUBE_WORD, True), Reversal((1,), True)), Verdict("equal", ((1,),), 1)
"""

STAND_IN_REWRITE = """
def commute_sort(w, *args):
    w.sort()
    return 0


def normal_form(w):
    return sorted(w)
"""

STAND_IN_SYSTEM = """
def _scan_run(w, runs, i, stop):
    return stop


def %s_reduce_steps(w):
    return tuple(w), 0
"""


def stand_in_digest(checkout, elapsed=3, failed={}, scans=1, states=4,
                    closure=((1,), (1, 1)), cube_word=(2,)):
    """The DIGEST_PROBE line of a stand-in checkout, split into its op count
    and a dict of its parts: its verify ops report `elapsed` ms, fail as
    `failed` says (harness -> failures) and call A's scanner `scans` times,
    and its three oracle ops find a bfs_equal search of `states` states,
    the closure `closure` (a set, listed in this order) and a cube
    reversal to `cube_word`."""
    package = checkout / "src" / "aimonoids"
    package.mkdir(parents=True)
    (package / "__init__.py").touch()
    (package / "rewrite.py").write_text(STAND_IN_REWRITE)
    for system in "am":
        (package / ("rewrite_%s.py" % system)).write_text(STAND_IN_SYSTEM % system)
    (checkout / "perfbench").mkdir()
    (checkout / "perfbench" / "workloads.py").write_text(
        "FAILED = %r\nELAPSED = %d\nSCANS = %d\nSTATES = %d\nCLOSURE = %r\n"
        "CUBE_WORD = %r\n" % (failed, elapsed, scans, states, closure, cube_word)
        + STAND_IN_WORKLOADS)
    proc = bench_pairs.subprocess.run(
        [bench_pairs.sys.executable, "-c", bench_pairs.DIGEST_PROBE, "4"],
        cwd=checkout, capture_output=True, text=True, check=True)
    count, *parts = proc.stdout.split()
    return count, dict(part.split("=") for part in parts)


def differing(one, other):
    """The names of the parts in which two stand-in digests differ."""
    assert one[0] == other[0]
    return sorted(name for name in one[1] if one[1][name] != other[1][name])


def test_the_digest_covers_the_first_verify_pass(tmp_path):
    parent = stand_in_digest(tmp_path / "parent")
    # the one wordproblem op, the first nine verify ops and three oracle ops
    assert parent[0] == "13"
    assert sorted(parent[1]) == ["oracle", "verify_counts", "verify_reports", "wordproblem"]
    # reports that differ only in elapsed_ms hash alike
    assert stand_in_digest(tmp_path / "slower", elapsed=250) == parent
    # one more failure, in the pass or past it
    assert differing(stand_in_digest(tmp_path / "failing", failed={"h8": 1}),
                     parent) == ["verify_reports"]
    assert stand_in_digest(tmp_path / "later", failed={"h9": 1}) == parent


def test_the_digest_hashes_verify_reports_apart_from_their_counts(tmp_path):
    parent = stand_in_digest(tmp_path / "parent")
    # the same reports from fewer scanner calls: only the counts differ
    assert differing(stand_in_digest(tmp_path / "fewer", scans=0), parent) == ["verify_counts"]


def test_the_digest_covers_the_oracle_pool(tmp_path):
    parent = stand_in_digest(tmp_path / "parent")
    # a closure set listed in another order hashes alike
    assert stand_in_digest(tmp_path / "reordered", closure=((1, 1), (1,))) == parent
    # a search of one more state, a closure of one word fewer, another
    # reversal: each differs in the oracle part only
    for name, knobs in (("states", {"states": 5}), ("closure", {"closure": ((1,),)}),
                        ("cube", {"cube_word": (3,)})):
        assert differing(stand_in_digest(tmp_path / name, **knobs), parent) == ["oracle"]


def test_scale_keeps_the_least_time_of_each_side_over_its_processes(monkeypatch):
    runs = iter([{"parent": {"desc L 7": 2.0}, "change": {"desc L 7": 1.5}},
                 {"parent": {"desc L 7": 1.0}, "change": {"desc L 7": 3.0}},
                 {"parent": {"desc L 7": 4.0}, "change": {"desc L 7": 0.5}},
                 {"parent": {"desc L 7": 1.2}, "change": {"desc L 7": 0.9}}])
    argvs = []

    def run(argv, **kwargs):
        argvs.append(argv)
        return bench_pairs.subprocess.CompletedProcess(argv, 0, json.dumps(next(runs)), "")
    monkeypatch.setattr(bench_pairs, "run_from_source", run)
    cells = bench_pairs.scale(Path("/p"), Path("/c"), "m:f")
    assert cells == {"desc L 7": {"parent_ms": 1.0, "change_ms": 0.5,
                                  "change_over_parent": 0.5}}
    # one process per pass, each loading both checkouts
    assert len(argvs) == bench_pairs.SCALE_PROCESSES == 4
    assert all(argv[3:6] == ["/p/src", "/c/src", "m:f"] for argv in argvs)


def test_a_note_key_given_twice_is_refused_before_any_run(monkeypatch, capsys):
    def no_run(*args):
        raise AssertionError("a benchmark ran")
    monkeypatch.setattr(bench_pairs, "run_bench", no_run)
    argv = ["--parent", str(ROOT), "--change", str(ROOT), "--topic", "t",
            "--workload", "verify=1", "--note", "why=first", "--note", "change=x",
            "--note", "why=second"]
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(argv)
    assert exc.value.code == 2
    assert "error: --note why=second: 'why' is named twice" in capsys.readouterr().err


@pytest.mark.parametrize("seeds", ["", "5-3", "x", "1,", "0-"])
def test_a_malformed_digest_is_refused_before_anything_runs(seeds, monkeypatch, capsys):
    def no_run(*args):
        raise AssertionError("a digest or a benchmark ran")
    monkeypatch.setattr(bench_pairs, "run_bench", no_run)
    monkeypatch.setattr(bench_pairs, "run_digest", no_run)
    argv = ["--parent", str(ROOT), "--change", str(ROOT), "--topic", "t",
            "--workload", "verify=1", "--digest", seeds]
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(argv)
    assert exc.value.code == 2
    assert "error: --digest " + seeds in capsys.readouterr().err


def fake_digests(changed_seed, part="oracle"):
    """A run_digest whose change side differs from the parent at changed_seed
    in the digest part `part` (or in the op count, when `part` is None)."""
    calls = []

    def digest(checkout, seed):
        side = "change" if len(calls) % 2 else "parent"
        calls.append((side, seed))
        changed = side == "change" and seed == changed_seed
        return "%d verify_counts=aa %s=%s" % (1281 if changed and part is None else 1280,
                                            part or "oracle", "bb" if changed and part else "aa")
    return digest, calls


def test_a_digest_mismatch_stops_the_run_before_any_timed_run(tmp_path, monkeypatch):
    def no_run(*args):
        raise AssertionError("a benchmark ran")
    digest, calls = fake_digests(1)
    monkeypatch.setattr(bench_pairs, "run_bench", no_run)
    monkeypatch.setattr(bench_pairs, "run_digest", digest)
    monkeypatch.chdir(tmp_path)
    argv = ["--parent", str(ROOT), "--change", str(ROOT), "--topic", "t",
            "--workload", "wordproblem=7", "--digest", "0-2"]
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(argv)
    assert str(exc.value.code) == ("error: digest seed 1: the parent and the change "
                                   "computed different oracle (1280 verify_counts=aa "
                                   "oracle=aa and 1280 verify_counts=aa oracle=bb)")
    assert calls == [("parent", 0), ("change", 0), ("parent", 1), ("change", 1)]
    assert not (tmp_path / "BENCH_t.json").exists()


@pytest.mark.parametrize("part, named", [("verify_reports", "verify_reports"),
                                         (None, "op counts")])
def test_a_digest_mismatch_names_the_part_that_differs(part, named, monkeypatch):
    digest, _ = fake_digests(0, part)
    monkeypatch.setattr(bench_pairs, "run_digest", digest)
    with pytest.raises(SystemExit) as exc:
        bench_pairs.check_digests(ROOT, ROOT, [0])
    assert str(exc.value.code).startswith(
        "error: digest seed 0: the parent and the change computed different %s (" % named)


def test_matching_digests_are_stored(tmp_path, monkeypatch):
    run, _ = fake_runs(["aa", "aa"])
    digest, _ = fake_digests(None)
    monkeypatch.setattr(bench_pairs, "run_bench", run)
    monkeypatch.setattr(bench_pairs, "run_digest", digest)
    monkeypatch.chdir(tmp_path)
    argv = ["--parent", str(ROOT), "--change", str(ROOT), "--topic", "t",
            "--workload", "verify=7", "--digest", "0,1"]
    assert bench_pairs.main(argv) == 0
    out = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert out["digests"] == {"0": "1280 verify_counts=aa oracle=aa",
                              "1": "1280 verify_counts=aa oracle=aa"}
