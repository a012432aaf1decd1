import json

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
