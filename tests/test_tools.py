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


@pytest.mark.parametrize("note", ["workloads=x", "topic=x", "parent_commit=x", "command=x",
                                  "machine=x", "scaling=x", "traced_verify=x",
                                  "traced_=x", "foo", "change"])
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
