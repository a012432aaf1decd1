import json
import re

from aimonoids import cli
from aimonoids.rewrite_m import SinkReport

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
    broken = SinkReport(n=1, trials=1, failures=[((1,), (2,))])
    monkeypatch.setattr(cli, "verify_sink", lambda *a, **k: broken)
    code, out, _ = run(capsys, "verify", "sink", "--rank", "1")
    assert code == 1


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
