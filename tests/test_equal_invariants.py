"""`a_equal` and `m_equal` compare a word pair's invariants before reducing.

A's invariants are the letter set and the count of x1, M's the letter
set; every rule keeps them, so a pair they separate is distinct.  Each
answer must still be exactly the comparison of the two normal forms, and
a bad letter must raise as the reducers do.
"""

import random
import re

import pytest

from aimonoids import cli, rewrite, rewrite_a, rewrite_m
from aimonoids.monoid_core import (ai_presentation, chain_ci_matrix, ci_presentation,
                                   random_rewrite)
from aimonoids.rewrite_a import a_equal, a_reduce
from aimonoids.rewrite_m import m_equal, m_reduce
from aimonoids.words import random_word

SYSTEMS = [("A", a_equal, a_reduce), ("M", m_equal, m_reduce)]


def same_letters(rng, u, length):
    """A word over exactly the letters of u, of at least len(set(u)) letters."""
    letters = sorted(set(u))
    v = letters + [rng.choice(letters) for _ in range(max(0, length - len(letters)))]
    rng.shuffle(v)
    return tuple(v)


def pairs(rank, rng):
    """(kind, u, v) for every kind of pair the invariants tell apart or not."""
    p = {"A": ai_presentation(chain_ci_matrix(rank)),
         "M": ci_presentation(chain_ci_matrix(rank))}
    out = []
    for _ in range(25):
        u = random_word(rng, rank, 40)
        length = rng.randint(0, 40)
        out.append(("random", u, random_word(rng, rank, 40)))
        # the same letter set, one that misses a letter of u, or one more
        if u:
            out.append(("same set", u, same_letters(rng, u, length)))
            gone = rng.choice(sorted(set(u)))
            out.append(("other set", u, tuple(x for x in u if x != gone)))
        if len(set(u)) < rank:
            extra = rng.choice(sorted(set(range(1, rank + 1)) - set(u)))
            out.append(("other set", u, u + (extra,)))
        # A's other invariant: the same letters with one x1 more or fewer
        if 1 in u:
            ones = u.count(1) + (rng.choice((-1, 1)) if u.count(1) > 1 else 1)
            v = [x for x in same_letters(rng, u, length) if x != 1] + [1] * ones
            rng.shuffle(v)
            out.append(("other x1 count", u, tuple(v)))
        for system in "AM":
            out.append(("related " + system, u,
                        random_rewrite(p[system], u, rng, rng.randint(0, 6))))
    return out


@pytest.mark.parametrize("rank", range(1, 9))
def test_equal_is_the_comparison_of_normal_forms(rank):
    rng = random.Random(rank)
    kinds = set()
    for kind, u, v in pairs(rank, rng):
        kinds.add(kind)
        if kind == "other set":
            assert set(u) != set(v)
        if kind in ("same set", "other x1 count"):
            assert set(u) == set(v)
        if kind == "other x1 count":
            assert u.count(1) != v.count(1)
        for system, equal, reduce in SYSTEMS:
            assert equal(u, v) == (reduce(u) == reduce(v)), (system, kind, u, v)
            if kind == "related " + system:
                assert equal(u, v)
    assert {"same set", "other set", "other x1 count", "related A", "related M"} <= kinds


def test_equal_on_the_wordproblem_pool(wordproblem_pool):
    ops = [op for op in wordproblem_pool if op.kind.endswith("equal")]
    assert len(ops) == 640
    for op in ops:
        u, v = op.args
        equal, reduce = ((a_equal, a_reduce) if op.kind == "a_equal"
                         else (m_equal, m_reduce))
        answer = reduce(u) == reduce(v)
        assert equal(u, v) == answer == op.info["related"], (op.kind, len(u))


def test_a_separated_pair_is_never_reduced(monkeypatch):
    def no_reduce(*args):
        raise AssertionError("a word was reduced")
    monkeypatch.setattr(rewrite, "equal", no_reduce)
    monkeypatch.setattr(rewrite, "reduce_steps", no_reduce)
    monkeypatch.setattr(rewrite_a, "_scan_run", no_reduce)
    monkeypatch.setattr(rewrite_m, "_scan_run", no_reduce)
    assert a_equal((1, 2), (1, 3)) is False
    assert a_equal((1, 2, 1), (2, 1, 2)) is False  # two x1 against one
    assert m_equal((1,), (2,)) is False


def outcome(f, *args):
    try:
        return f(*args)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("system, u, v, bad", [
    ("A", (1,), (0,), "0"), ("M", (0,), (1,), "0"), ("A", (1,), (True,), "True"),
    ("M", (1, 2), (1, 2.5), "2.5"), ("A", [[1]], (1,), "[1]")])
def test_a_bad_letter_raises_as_the_reducers_do(system, u, v, bad):
    equal, reduce = (a_equal, a_reduce) if system == "A" else (m_equal, m_reduce)
    assert outcome(equal, u, v) == outcome(lambda: reduce(u) == reduce(v))
    message = "letters must be positive integers, got " + bad
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        equal(u, v)


def test_cli_equal_on_a_separated_pair(capsys):
    code = cli.main(["equal", "--system", "A", "--rank", "3", "1 2", "1 3"])
    out = capsys.readouterr()
    assert code == 1 and out.out == "distinct\n" and out.err == ""
    code = cli.main(["equal", "--system", "A", "--rank", "3", "1 2", "1 4"])
    out = capsys.readouterr()
    assert code == 2 and out.out == "" and out.err.startswith("error:")
