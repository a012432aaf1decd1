"""The command line's parser: one per process, one table of verify options,
help text as pinned, and the console entry in a process of its own."""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import aimonoids
from aimonoids import cli


def _without_elapsed(out):
    return re.sub(r"elapsed: \d+ ms|\"elapsed_ms\": \d+", "elapsed", out)


def _call(capsys, argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as e:
        code = ("exit", e.code)
    out = capsys.readouterr()
    return code, _without_elapsed(out.out), out.err


def test_main_builds_one_parser_per_process(capsys, monkeypatch, tmp_path):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.__wrapped__()
    per_build = len(built)
    assert per_build == 4  # the top-level parser and one per command
    built.clear()

    matrix = tmp_path / "m.ci"
    matrix.write_text("rank 2\n1 2 3\n2 1 4\n")
    dot, refused_dot = tmp_path / "hasse.dot", tmp_path / "refused.dot"
    runs = [
        ("verify", "sink", "--samples", "-2"),
        ("verify", "action", "--dot", str(refused_dot)),
        ("verify", "linrep", "--matrix", str(matrix)),
        ("verify", "linrep"),
        ("verify", "rank2", "--k", "3", "--l", "4", "--dot", str(dot)),
        ("verify", "rank2"),
        ("verify", "cube", "--budget", "4"),
        ("verify", "confluence-a", "--rank", "3", "--samples", "10", "--seed", "1"),
        ("reduce", "--system", "A", "--rank", "3", "2 1 2 1"),
        ("equal", "--system", "M", "--rank", "3", "1 1 2 1", "1 2 1 2"),
    ]
    cli.build_parser.cache_clear()
    reused = [_call(capsys, argv) for argv in runs]
    assert len(built) == per_build
    assert reused[0][0] == ("exit", 2) and reused[0][1] == ""
    assert reused[1] == (2, "", "error: verify action takes no --dot\n")
    assert not refused_dot.exists()
    assert [code for code, _, _ in reused[2:]] == [0, 0, 0, 0, 1, 0, 0, 0]
    assert dot.read_text().startswith("digraph")
    assert "DOT written" in reused[4][1] and "DOT written" not in reused[5][1]
    # each run prints what it prints with a parser of its own
    for argv, seen in zip(runs, reused):
        cli.build_parser.cache_clear()
        assert _call(capsys, argv) == seen, argv
    assert len(built) == per_build * (1 + len(runs))


def test_option_table_is_the_verify_option_set():
    taken = {option for _, options, _ in cli._HARNESSES.values()
             for _, option, _ in options}
    assert {"matrix", "dot"} == set(cli._FILE_OPTION.values())
    assert set(cli._OPTIONS) == taken | set(cli._FILE_OPTION.values())
    parser = cli.build_parser()
    fixed = {"command", "func", "harness", "json"}
    assert set(vars(parser.parse_args(["verify", "rank2"]))) == fixed
    for option in cli._OPTIONS:
        args = parser.parse_args(["verify", "rank2", "--" + option.replace("_", "-"), "1"])
        assert set(vars(args)) == fixed | {option}


HELP = {
    (): """\
usage: aimonoids [-h] {reduce,equal,verify} ...

Normal forms, word problems and verification harnesses for a family of
idempotent Artin-like monoids.

positional arguments:
  {reduce,equal,verify}
    reduce              print the normal form of a word
    equal               decide whether two words are equal
    verify              run a verification harness

options:
  -h, --help            show this help message and exit
""",
    ("reduce",): """\
usage: aimonoids reduce [-h] --system {A,M} --rank RANK word

positional arguments:
  word            word text, letters separated by spaces

options:
  -h, --help      show this help message and exit
  --system {A,M}
  --rank RANK
""",
    ("equal",): """\
usage: aimonoids equal [-h] --system {A,M} --rank RANK u v

positional arguments:
  u
  v

options:
  -h, --help      show this help message and exit
  --system {A,M}
  --rank RANK
""",
    ("verify",): """\
usage: aimonoids verify [-h] [--rank RANK] [--samples SAMPLES] [--seed SEED]
                        [--max-exp MAX_EXP] [--max-interleave MAX_INTERLEAVE]
                        [--k K] [--l L] [--dot DOT] [--matrix MATRIX]
                        [--budget BUDGET] [--max-len MAX_LEN]
                        [--carrier CARRIER] [--json]
                        {action,cancel,confluence-a,confluence-m,cube,garside,linrep,rank2,sink}

positional arguments:
  {action,cancel,confluence-a,confluence-m,cube,garside,linrep,rank2,sink}

options:
  -h, --help            show this help message and exit
  --rank RANK           letter cap (default depends on the harness)
  --samples SAMPLES     random sample count (default per harness)
  --seed SEED
  --max-exp MAX_EXP     exponent cap for the confluence-a families
  --max-interleave MAX_INTERLEAVE
                        interleave cap for the confluence-m families
  --k K                 rank2: first label
  --l L                 rank2: second label
  --dot DOT             rank2: write the Hasse diagram as DOT
  --matrix MATRIX       linrep: verify the matrix in this file instead of the
                        chain diagram of --rank
  --budget BUDGET       cube: reversing step budget
  --max-len MAX_LEN     cube: census length bound
  --carrier CARRIER     action: carrier set size
  --json                print the report as one JSON object
""",
}


@pytest.mark.parametrize("command", sorted(HELP))
def test_help_text_is_pinned(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    assert _call(capsys, (*command, "--help")) == (("exit", 0), HELP[command], "")


def _console(*argv):
    env = dict(os.environ, COLUMNS="80")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(aimonoids.__path__[0]).parent)]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return subprocess.run([sys.executable, "-m", "aimonoids.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


def test_console_entry_exit_codes():
    proc = _console("reduce", "--system", "A", "--rank", "3", "2 1 2 1")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1 2 1\n", "")
    proc = _console("equal", "--system", "A", "--rank", "3", "1 1 2 1", "1 2 1 2")
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "distinct\n", "")
    proc = _console("reduce", "--system", "A", "--rank", "3", "1 9 2")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr
    proc = _console("verify", "cube", "--json")
    assert proc.returncode == 0 and proc.stderr == ""
    report = json.loads(proc.stdout)
    assert report["command"] == "verify cube" and report["failures"] == []
