"""`rewrite.equal` runs the reductions of both words in lockstep.

Both words are commute-sorted, then each runs one round in turn; after
every commute_sort the two current words are compared, and after each
round of the second word it is also compared with the first word's list
before that word's last round; the lockstep stops where they agree.
Every answer must still be exactly the comparison of the two normal
forms, whichever round the words meet in, if any, and in either order.
"""

import random

import pytest

from aimonoids import rewrite, rewrite_a, rewrite_m
from aimonoids.monoid_core import (ai_presentation, chain_ci_matrix, ci_presentation,
                                   random_rewrite)
from aimonoids.rewrite_a import a_equal, a_reduce, a_reduce_steps
from aimonoids.rewrite_m import m_equal, m_reduce, m_reduce_steps
from aimonoids.words import commute_sort, random_word

SYSTEMS = {
    "A": (rewrite_a, a_equal, a_reduce, a_reduce_steps, ai_presentation),
    "M": (rewrite_m, m_equal, m_reduce, m_reduce_steps, ci_presentation),
}


@pytest.fixture
def sorts(monkeypatch):
    """The commute_sort calls made through `rewrite` since the last reset."""
    count = [0]

    def counted(w):
        count[0] += 1
        return commute_sort(w)
    monkeypatch.setattr(rewrite, "commute_sort", counted)
    return count


def commuted(rng, w):
    """w after random commutations of adjacent distant letters."""
    w = list(w)
    for _ in range(3 * len(w) if len(w) > 1 else 0):
        i = rng.randrange(len(w) - 1)
        if abs(w[i] - w[i + 1]) >= 2:
            w[i], w[i + 1] = w[i + 1], w[i]
    return tuple(w)


def ahead(module, w):
    """The commute-sorted w after the first round of its reduction."""
    w = list(w)
    commute_sort(w)
    rewrite._round(module._scan_run, w, [])
    return tuple(w)


def pairs(system, rank, rng):
    """(kind, u, v) for each kind of join, over words of a few rounds."""
    module, _, reduce, _, presentation = SYSTEMS[system]
    p = presentation(chain_ci_matrix(rank))
    out = []
    for _ in range(30):
        u = random_word(rng, rank, 60, 1)
        out.append(("commutations", u, commuted(rng, u)))
        out.append(("related", u, random_rewrite(p, u, rng, rng.randint(1, 8))))
        # ahead(u) is u one round on: as the second word, the first round
        # of u meets it; as the first word, the first round of u meets
        # the list ahead(u) had before its own first round
        out.append(("ahead", u, ahead(module, u)))
        out.append(("behind", ahead(module, u), u))
        out.append(("normal form", reduce(u), u))
        # the same letters as often: the invariants of both systems agree
        out.append(("shuffled", u, tuple(rng.sample(u, len(u)))))
    return out


def classify(equal, reduce_steps, sorts, u, v):
    """Where the lockstep of (u, v) stopped: "distinct", "round 0" (at the
    first two commute_sorts), "late" (before both reductions end) or
    "normal form"; checks the answer against the two reductions."""
    sorts[0] = 0
    same = reduce_steps(u)[0] == reduce_steps(v)[0]
    both = sorts[0]
    sorts[0] = 0
    answer = equal(u, v)
    met = sorts[0]
    assert answer == same == equal(v, u), (u, v)
    if not answer:
        # the invariants separate the pair, or it runs both reductions out
        assert met in (0, both), (u, v)
        return "distinct"
    assert 2 <= met <= both, (u, v)
    if met == 2:
        return "round 0"
    return "late" if met < both else "normal form"


@pytest.mark.parametrize("system", sorted(SYSTEMS))
@pytest.mark.parametrize("rank", range(1, 9))
def test_lockstep_equal_is_the_comparison_of_normal_forms(system, rank, sorts):
    _, equal, _, reduce_steps, _ = SYSTEMS[system]
    rng = random.Random(rank)
    seen = {}
    for kind, u, v in pairs(system, rank, rng):
        seen.setdefault(kind, set()).add(classify(equal, reduce_steps, sorts, u, v))
    # a commutation class has one sorted word: the two meet at round 0,
    # before any scan
    assert seen["commutations"] == {"round 0"}
    # the lagged pairs, and a normal form against a word of several rounds
    assert "distinct" not in seen["ahead"] | seen["behind"]
    assert seen["normal form"] <= {"round 0", "normal form"}
    if rank >= 2:
        assert "late" in seen["ahead"] & seen["behind"]
        assert "normal form" in seen["behind"] & seen["normal form"]
        assert "distinct" in seen["shuffled"]


@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_related_pairs_stop_before_both_reductions_end(system, monkeypatch):
    module, equal, _, reduce_steps, presentation = SYSTEMS[system]
    scan_run = module._scan_run
    calls = [0]

    def counted(w, runs, i, stop):
        calls[0] += 1
        return scan_run(w, runs, i, stop)
    monkeypatch.setattr(module, "_scan_run", counted)
    rng = random.Random(800)
    p = presentation(chain_ci_matrix(6))
    lockstep = reductions = 0
    for _ in range(8):
        u = random_word(rng, 6, 800, 800)
        v = random_rewrite(p, u, rng, 4)
        calls[0] = 0
        reduce_steps(u)
        reduce_steps(v)
        both = calls[0]
        calls[0] = 0
        assert equal(u, v)
        # an equal pair skips at least the last scan of one reduction
        assert calls[0] < both, (calls[0], both)
        lockstep += calls[0]
        reductions += both
    assert 4 * lockstep < 3 * reductions, (lockstep, reductions)


@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_equal_validates_each_word_once(system, monkeypatch):
    _, equal, _, _, presentation = SYSTEMS[system]
    calls = [0]
    for module in (rewrite, rewrite_a, rewrite_m):
        validate = module.validate_word

        def counted(word, rank=None, validate=validate):
            calls[0] += 1
            return validate(word, rank)
        monkeypatch.setattr(module, "validate_word", counted)
    rng = random.Random(2)
    p = presentation(chain_ci_matrix(5))
    for _ in range(40):
        u = random_word(rng, 5, 40, 1)
        for v in (random_rewrite(p, u, rng, 3), tuple(rng.sample(u, len(u)))):
            calls[0] = 0
            equal(u, v)
            assert calls[0] == 2, (u, v)
