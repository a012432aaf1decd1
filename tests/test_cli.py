import json
import re

from aimonoids import cli
from aimonoids.monoid_core import Report

import pytest


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_reduce_a(capsys):
    code, out, _ = run(capsys, "reduce", "--system", "A", "--rank", "3",
                       "2 1 2 1")
    assert code == 0 and out == "1 2 1\n"


def test_reduce_m(capsys):
    code, out, _ = run(capsys, "reduce", "--system", "M", "--rank", "3",
                       "1 2 1 2")
    assert code == 0 and out == "1 2 1\n"


def test_reduce_empty(capsys):
    code, out, _ = run(capsys, "reduce", "--system", "A", "--rank", "3", "")
    assert code == 0 and out == "\n"


def test_equal_exit_codes(capsys):
    code, out, _ = run(capsys, "equal", "--system", "M", "--rank", "3",
                       "1 1 2 1", "1 2 1 2")
    assert code == 0 and out == "equal\n"

    code, out, _ = run(capsys, "equal", "--system", "A", "--rank", "3",
                       "1 1 2 1", "1 2 1 2")
    assert code == 1 and out == "distinct\n"

    code, out, _ = run(capsys, "equal", "--system", "A", "--rank", "3",
                       "2 1", "2 1")
    assert code == 0 and out == "equal\n"


def test_parse_error_exit(capsys):
    code, _, err = run(capsys, "reduce", "--system", "A", "--rank", "3",
                       "1 9 2")
    assert code == 2
    assert err.startswith("error:")


def test_bad_flag_usage():
    with pytest.raises(SystemExit) as e:
        cli.main(["reduce", "--system", "Z", "--rank", "3", "1"])
    assert e.value.code == 2


def test_verify_cube_text(capsys):
    code, out, _ = run(capsys, "verify", "cube")
    assert code == 0
    assert "w1 = c b a\n" in out
    assert "w2 = c b a b\n" in out
    assert "distinct-within-bound" in out


def test_verify_cube_json(capsys):
    code, out, _ = run(capsys, "verify", "cube", "--json")
    assert code == 0
    rep = json.loads(out)
    assert set(rep) == {"command", "params", "checks_run", "failures",
                        "elapsed_ms"}
    assert rep["command"] == "verify cube"
    assert rep["failures"] == []
    assert rep["checks_run"] == 66


def test_verify_rank2_dot(capsys, tmp_path):
    dot = tmp_path / "hasse.dot"
    code, out, _ = run(capsys, "verify", "rank2", "--k", "3", "--l", "4",
                       "--dot", str(dot))
    assert code == 0
    text = dot.read_text()
    assert text.startswith("digraph")
    assert text.count("->") == 7
    assert '"2.1.2" -> "1.2.1"' in text


def test_verify_rank2_bad_labels(capsys):
    code, _, err = run(capsys, "verify", "rank2", "--k", "7", "--l", "2")
    assert code == 2 and err.startswith("error:")


def test_verify_harnesses_pass(capsys):
    quick = [
        ("confluence-a", "--rank", "3", "--samples", "20"),
        ("confluence-m", "--rank", "3", "--samples", "20"),
        ("sink", "--rank", "2", "--samples", "30"),
        ("garside", "--rank", "2", "--samples", "20"),
        ("cancel", "--rank", "2", "--samples", "50"),
        ("linrep",),
        ("rank2", "--k", "3", "--l", "4"),
        ("action", "--carrier", "3", "--rank", "2"),
    ]
    for opts in quick:
        code, out, _ = run(capsys, "verify", *opts, "--json")
        rep = json.loads(out)
        assert code == 0, rep
        assert rep["failures"] == [] and rep["checks_run"] > 0


def test_verify_linrep_matrix_file(capsys, tmp_path):
    path = tmp_path / "m.ci"
    path.write_text("rank 2\n1 2 3\n2 1 4\n")
    code, out, _ = run(capsys, "verify", "linrep", "--matrix", str(path),
                       "--json")
    assert code == 0
    assert json.loads(out)["failures"] == []


def test_verify_linrep_matrix_non_ascii_label_exit_2(capsys, tmp_path):
    path = tmp_path / "m.ci"
    for label in ("\u0664", "0_4"):
        path.write_text("rank 2\n1 2 3\n2 1 %s\n" % label, encoding="utf-8")
        code, out, err = run(capsys, "verify", "linrep", "--matrix", str(path))
        assert code == 2 and out == ""
        assert err == "error: bad matrix line: %r\n" % ("2 1 " + label)


def test_verify_linrep_matrix_bad_label_names_line(capsys, tmp_path):
    path = tmp_path / "m.ci"
    path.write_text("rank 2\n1 2 x\n")
    code, out, err = run(capsys, "verify", "linrep", "--matrix", str(path),
                         "--json")
    assert code == 2 and out == ""
    assert err == "error: bad matrix line: '1 2 x'\n"


def test_verify_linrep_matrix_rank_line_trailing_text_exit_2(capsys, tmp_path):
    path = tmp_path / "m.ci"
    path.write_text("rank 2 junk\n1 2 3\n2 1 4\n")
    for mode in ((), ("--json",)):
        code, out, err = run(capsys, "verify", "linrep", "--matrix", str(path),
                             *mode)
        assert code == 2 and out == ""
        assert err == "error: bad rank line: 'rank 2 junk'\n"


def test_verify_without_checks_exits_2(capsys):
    for mode in ((), ("--json",)):
        code, out, err = run(capsys, "verify", "confluence-a", "--rank", "1",
                             *mode)
        assert code == 2 and out == ""
        assert err.startswith("error: verify confluence-a ran no checks")
    code, out, err = run(capsys, "verify", "confluence-a", "--rank", "2",
                         "--json")
    assert code == 0 and err == ""
    assert json.loads(out)["checks_run"] > 0


def test_verify_failure_exits_one(capsys, monkeypatch):
    broken = Report(1, [((1,), (2,))], {"n": 1, "trials": 1})
    monkeypatch.setattr(cli, "verify_sink", lambda *a, **k: broken)
    code, out, _ = run(capsys, "verify", "sink", "--rank", "1")
    assert code == 1


def test_each_verify_name_runs_its_library_harness(capsys):
    # keyword calls, so a table passing its options in the wrong order shows
    from aimonoids.cube import cube_counterexample
    from aimonoids.garside import garside_harness, left_cancel_harness
    from aimonoids.linrep import verify_representation
    from aimonoids.monoid_core import (action_harness, chain_ci_matrix,
                                       rank2_harness)
    from aimonoids.rewrite_a import a_confluence_audit
    from aimonoids.rewrite_m import m_confluence_audit, verify_sink

    library = {
        "confluence-a": (
            ("--rank", "3", "--max-exp", "1", "--samples", "7", "--seed", "2"),
            lambda: a_confluence_audit(n=3, max_exponent=1, random_words=7, seed=2)),
        "confluence-m": (
            ("--rank", "3", "--max-interleave", "0", "--samples", "7", "--seed", "2"),
            lambda: m_confluence_audit(n=3, max_interleave=0, random_words=7, seed=2)),
        "sink": (("--rank", "2", "--samples", "7", "--seed", "3"),
                 lambda: verify_sink(n=2, trials=7, seed=3)),
        "garside": (("--rank", "2", "--samples", "6", "--seed", "1"),
                    lambda: garside_harness(n=2, samples=6, seed=1)),
        "cancel": (("--rank", "2", "--samples", "9", "--seed", "4"),
                   lambda: left_cancel_harness(n=2, samples=9, seed=4)),
        "linrep": (("--rank", "2"),
                   lambda: verify_representation(matrix=chain_ci_matrix(2))),
        "cube": (("--budget", "4", "--max-len", "8"),
                 lambda: cube_counterexample(budget=4, max_len=8)),
        "rank2": (("--k", "4", "--l", "5"), lambda: rank2_harness(k=4, l=5)),
        "action": (("--rank", "2", "--carrier", "3"),
                   lambda: action_harness(n=2, carrier=3)),
    }
    assert set(library) == set(cli._HARNESSES)
    for name, (argv, call) in library.items():
        code, out, err = run(capsys, "verify", name, *argv, "--json")
        rep = call()
        got = json.loads(out)
        assert code == (0 if rep.ok else 1) and err == "", name
        assert got["checks_run"] == rep.checks_run, name
        assert got["failures"] == json.loads(json.dumps(list(rep.failures))), name


def test_seed_reproducibility(capsys):
    runs = []
    for _ in range(2):
        code, out, _ = run(capsys, "verify", "confluence-a", "--rank", "3",
                           "--samples", "30", "--seed", "7", "--json")
        assert code == 0
        runs.append(json.loads(out))
    for key in ("params", "checks_run", "failures"):
        assert runs[0][key] == runs[1][key]


def test_malformed_letters_exit_2(capsys):
    for text in ("1 --5", "1 ²", "1_0", "+2", "١"):
        code, out, err = run(capsys, "reduce", "--system", "A", "--rank", "3",
                             text)
        assert code == 2 and out == "" and err.startswith("error:")
        code, out, err = run(capsys, "equal", "--system", "M", "--rank", "3",
                             "1 2", text)
        assert code == 2 and out == "" and err.startswith("error:")


def test_nonpositive_counts_exit_2(capsys):
    for argv in (["verify", "sink", "--samples", "-2", "--json"],
                 ["verify", "action", "--carrier", "0"],
                 ["verify", "garside", "--samples", "-3"],
                 ["verify", "cancel", "--rank", "0"],
                 ["reduce", "--system", "A", "--rank", "0", "1"],
                 ["equal", "--system", "M", "--rank", "-1", "1", "1"]):
        with pytest.raises(SystemExit) as e:
            cli.main(argv)
        assert e.value.code == 2, argv
        assert capsys.readouterr().out == ""


def test_integer_options_take_ascii_numerals_only(capsys):
    # as letters do: no other digits, no "_", no "+"
    for argv in (["reduce", "--system", "A", "--rank", "\u0663", "1"],
                 ["equal", "--system", "M", "--rank", "3 ", "1", "1"],
                 ["verify", "sink", "--samples", "1_0", "--json"],
                 ["verify", "rank2", "--k", "\u00b2", "--l", "3"],
                 ["verify", "rank2", "--k", "1_0", "--l", "10"],
                 ["verify", "cancel", "--seed", "+3"],
                 ["verify", "cube", "--budget", "--5"]):
        with pytest.raises(SystemExit) as e:
            cli.main(argv)
        assert e.value.code == 2, argv
        assert capsys.readouterr().out == "", argv
    # the signed options keep a leading "-"
    code, out, _ = run(capsys, "verify", "cancel", "--seed", "-1", "--samples", "5",
                       "--json")
    assert code == 0 and json.loads(out)["params"]["seed"] == -1


def test_verify_cube_budget_exceeded(capsys):
    for budget in ("1", "2", "3", "4", "5"):
        code, out, err = run(capsys, "verify", "cube", "--budget", budget)
        assert code == 1 and err == ""
        assert "verdict: reversal-budget-exceeded\n" in out
        code, out, err = run(capsys, "verify", "cube", "--budget", budget,
                             "--json")
        rep = json.loads(out)
        assert code == 1 and err == ""
        assert rep["failures"] == [["reversal-budget-exceeded"]]
        assert rep["checks_run"] == 66


def _without_elapsed(out):
    return re.sub(r"elapsed: \d+ ms|\"elapsed_ms\": \d+", "elapsed", out)


def test_verify_output_pinned(capsys):
    pinned = [
        (("confluence-a", "--rank", "4", "--samples", "30"),
         "verify confluence-a: max_exponent=2 random_words=30 rank=4 seed=0\n"
         "family counts: a=204 b=4 c=4 disjoint=12\n"
         "checks run: 224\nfailures: 0\nelapsed\n",
         '{"command": "verify confluence-a", "params": {"rank": 4, '
         '"max_exponent": 2, "random_words": 30, "seed": 0}, '
         '"checks_run": 224, "failures": [], elapsed}\n'),
        (("confluence-m", "--rank", "4", "--samples", "30"),
         "verify confluence-m: max_interleave=1 random_words=30 rank=4 seed=0\n"
         "family counts: b=4 c=4 d=118 disjoint=82 e=118 f=35 g=258 h=258 "
         "i=96 j=166\n"
         "checks run: 1139\nfailures: 0\nelapsed\n",
         '{"command": "verify confluence-m", "params": {"rank": 4, '
         '"max_interleave": 1, "random_words": 30, "seed": 0}, '
         '"checks_run": 1139, "failures": [], elapsed}\n'),
        (("sink",),
         "verify sink: rank=3 seed=0 trials=500\n"
         "checks run: 500\nfailures: 0\nelapsed\n",
         '{"command": "verify sink", "params": {"rank": 3, "trials": 500, '
         '"seed": 0}, "checks_run": 500, "failures": [], elapsed}\n'),
        (("action",),
         "verify action: carrier=4 rank=3\n"
         "checks run: 144\nfailures: 0\nelapsed\n",
         '{"command": "verify action", "params": {"rank": 3, "carrier": 4}, '
         '"checks_run": 144, "failures": [], elapsed}\n'),
        (("garside",),
         "verify garside: rank=3 samples=200 seed=0\n"
         "checks run: 803\nfailures: 0\nelapsed\n",
         '{"command": "verify garside", "params": {"rank": 3, "samples": 200, '
         '"seed": 0}, "checks_run": 803, "failures": [], elapsed}\n'),
        (("cancel",),
         "verify cancel: rank=3 samples=1000 seed=0\n"
         "checks run: 1000\nfailures: 0\nelapsed\n",
         '{"command": "verify cancel", "params": {"rank": 3, "samples": 1000, '
         '"seed": 0}, "checks_run": 1000, "failures": [], elapsed}\n'),
        (("linrep",),
         "verify linrep: rank=3\n"
         "checks run: 99\nfailures: 0\nelapsed\n",
         '{"command": "verify linrep", "params": {"rank": 3}, '
         '"checks_run": 99, "failures": [], elapsed}\n'),
        (("cube",),
         "verify cube: budget=10000 census_max_len=9\n"
         "w1 = c b a\nw2 = c b a b\nverdict: distinct-within-bound\n"
         "census classes: 7 and 50 words within length 9\n"
         "checks run: 66\nfailures: 0\nelapsed\n",
         '{"command": "verify cube", "params": {"budget": 10000, '
         '"census_max_len": 9}, "checks_run": 66, "failures": [], elapsed}\n'),
        (("rank2", "--k", "3", "--l", "4"),
         "verify rank2: k=3 l=4\n"
         "7 elements, lattice: yes\n"
         "checks run: 2\nfailures: 0\nelapsed\n",
         '{"command": "verify rank2", "params": {"k": 3, "l": 4}, '
         '"checks_run": 2, "failures": [], elapsed}\n'),
    ]
    for argv, text, as_json in pinned:
        code, out, _ = run(capsys, "verify", *argv)
        assert code == 0 and _without_elapsed(out) == text
        code, out, _ = run(capsys, "verify", *argv, "--json")
        assert code == 0 and _without_elapsed(out) == as_json


def test_verify_cube_census_bound_below_a_target_is_a_usage_error(capsys):
    code, out, err = run(capsys, "verify", "cube", "--max-len", "6")
    assert code == 2 and out == ""
    assert err == ("error: census max_len 6 is below the length 7 of the target "
                   "(3, 1, 2, 3, 2, 1, 2)\n")


def test_verify_file_errors_are_usage_errors(capsys, tmp_path):
    missing = tmp_path / "no_such_matrix.txt"
    code, out, err = run(capsys, "verify", "linrep", "--matrix", str(missing))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and str(missing) in err and err.count("\n") == 1
    dot = tmp_path / "no_such_dir" / "hasse.dot"
    code, out, err = run(capsys, "verify", "rank2", "--dot", str(dot))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and str(dot) in err and err.count("\n") == 1


def test_verify_refuses_options_its_harness_does_not_take(capsys, tmp_path):
    dot = tmp_path / "x.dot"
    code, out, err = run(capsys, "verify", "action", "--dot", str(dot))
    assert code == 2 and out == ""
    assert err == "error: verify action takes no --dot\n"
    assert not dot.exists()
    for argv, option in ((("sink", "--k", "3"), "--k"),
                         (("cube", "--rank", "3", "--json"), "--rank"),
                         (("linrep", "--seed", "1"), "--seed"),
                         (("rank2", "--matrix", "m.ci"), "--matrix"),
                         (("confluence-a", "--max-interleave", "0"), "--max-interleave"),
                         (("garside", "--carrier", "3", "--budget", "5"),
                          "--budget or --carrier")):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2 and out == "", argv
        assert err == "error: verify %s takes no %s\n" % (argv[0], option)


def test_verify_linrep_refuses_rank_beside_matrix(capsys, tmp_path):
    path = tmp_path / "m.ci"
    path.write_text("rank 2\n1 2 3\n2 1 4\n")
    for mode in ((), ("--json",)):
        code, out, err = run(capsys, "verify", "linrep", "--matrix", str(path),
                             "--rank", "4", *mode)
        assert code == 2 and out == ""
        assert err == "error: verify linrep takes --rank or --matrix, not both\n"


def test_verify_runs_every_benchmark_argv(capsys):
    import sys
    from pathlib import Path
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        from workloads import Verify
    finally:
        sys.path.pop(0)
    ops = Verify().generate(0)
    assert len({op.info["harness"] for op in ops}) == len(cli._HARNESSES)
    for op in ops[:len(cli._HARNESSES)]:
        code, out, err = run(capsys, *op.args)
        assert code == 0 and err == "", op.args
        assert json.loads(out)["failures"] == []
