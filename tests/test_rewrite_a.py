import random

from aimonoids.monoid_core import EQUAL, ai_presentation, bfs_equal, \
    chain_ci_matrix, random_rewrite
from aimonoids.rewrite_a import (COMMUTATION, FAMILY, a_apply,
                                 a_confluence_audit, a_critical_pairs,
                                 a_equal, a_match_at, a_matches, a_reduce,
                                 a_reduce_random, a_reduce_steps, a_step)
from aimonoids.words import b_reduced_form, descent_inversions, random_word

import pytest


def test_a_matches_commutation_example():
    ms = a_matches((3, 1))
    assert len(ms) == 1
    m = ms[0]
    assert m.kind == COMMUTATION and (m.start, m.end) == (0, 2)
    assert (m.a, m.b) == (3, 1)


def test_a_matches_family_example():
    ms = a_matches((2, 1, 2, 1))
    assert len(ms) == 1
    m = ms[0]
    assert m.kind == FAMILY and (m.start, m.end) == (0, 4)
    assert (m.a, m.b) == (3, 2) and m.exponents == (1, 1)


def test_a_matches_reduced_word():
    assert a_matches((1, 2, 1, 2)) == []


def test_a_matches_at_most_one_per_start():
    rng = random.Random(11)
    for _ in range(300):
        w = random_word(rng, 5, 12)
        ms = a_matches(w)
        starts = [m.start for m in ms]
        assert starts == sorted(set(starts))
        for m in ms:
            assert a_match_at(w, m.start) == m


def test_a_step_examples():
    assert a_step((2, 1, 2, 1)) == (1, 2, 1)
    assert a_step((1, 2, 1)) is None
    # the leading exponent block goes in a single application
    assert a_step((2, 2, 1, 2, 1)) == (1, 2, 1)
    assert a_reduce((2, 2, 1, 2, 1)) == (1, 2, 1)


def test_a_apply_revalidates():
    w = (3, 1)
    match = a_matches(w)[0]
    assert a_apply(w, match) == (1, 3)
    with pytest.raises(ValueError):
        a_apply((1, 3), match)


def test_a_reduce_examples():
    assert a_reduce((1, 2, 1, 2, 1)) == (1, 1, 2, 1)
    assert a_reduce((3, 1)) == (1, 3)
    assert a_reduce(()) == ()
    # the same value through the search oracle
    p = ai_presentation(chain_ci_matrix(2))
    assert bfs_equal(p, (1, 2, 1, 2, 1), (1, 1, 2, 1), max_len=10).status == EQUAL


def test_a_equal_examples():
    assert a_equal((2, 1, 2, 1), (1, 2, 1))
    assert not a_equal((1, 1, 2, 1), (1, 2, 1, 2))
    assert a_equal((1, 3, 2), (1, 3, 2))


def test_critical_pairs_family_d_instance():
    triples = a_critical_pairs(5, max_exponent=1)
    found = [(t.q, t.r, t.s) for t in triples if t.family == "d"]
    assert ((5,), (3,), (1,)) in found


def test_critical_pairs_family_b_instance():
    # a=3, b=2, c=4, leading exponent 2: q r = x4 x2, r s = x2^2 x1 x2 x1
    triples = a_critical_pairs(4, max_exponent=2)
    found = [(t.q, t.r, t.s) for t in triples if t.family == "b"]
    assert ((4,), (2,), (2, 1, 2, 1)) in found


def test_critical_pairs_worked_family_a_case():
    triples = a_critical_pairs(4, max_exponent=2)
    found = [(t.q, t.r, t.s) for t in triples if t.family == "a"]
    assert ((3, 2, 3), (2,), (1, 2, 1)) in found


def test_critical_pairs_small_alphabet():
    triples = a_critical_pairs(2, max_exponent=1)
    assert triples and {t.family for t in triples} == {"a"}


def test_critical_pairs_products_are_standard():
    rng = random.Random(12)
    triples = a_critical_pairs(4, max_exponent=2)
    for t in rng.sample(triples, 60):
        for prod in (t.q + t.r, t.r + t.s):
            assert any(m.start == 0 and m.end == len(prod)
                       for m in a_matches(prod))


def test_confluence_audit_clean():
    rep = a_confluence_audit(4, max_exponent=2, random_words=50, seed=3)
    assert rep.ok
    assert {"a", "b", "c", "disjoint"} <= set(rep.by_family)
    assert all(v > 0 for v in rep.by_family.values())


def test_confluence_audit_negative_control(monkeypatch):
    # a normalizer that never commute-sorts cannot join the mixed-letter overlaps
    from aimonoids import rewrite

    monkeypatch.setattr(rewrite, "commute_sort", lambda w: 0)
    rep = a_confluence_audit(4, max_exponent=1, random_words=0)
    assert not rep.ok
    assert (rep.checks_run, len(rep.failures)) == (21, 15)


def test_termination_budget():
    rng = random.Random(13)
    for _ in range(10_000):
        n = rng.randint(1, 6)
        w = random_word(rng, n, 30)
        nf, steps = a_reduce_steps(w)
        assert len(nf) <= len(w)
        assert steps <= len(w) * (len(w) + n)
        assert a_matches(nf) == []


def test_single_step_lowers_the_measure():
    rng = random.Random(14)
    checked = 0
    while checked < 300:
        w = random_word(rng, 5, 10, min_len=2)
        nxt = a_step(w)
        if nxt is None:
            continue
        checked += 1
        before = (len(w), descent_inversions(w))
        after = (len(nxt), descent_inversions(nxt))
        assert after < before


def test_strategy_independence():
    rng = random.Random(15)
    for _ in range(1000):
        w = random_word(rng, 4, 12)
        nf = a_reduce(w)
        for _ in range(20):
            got, steps = a_reduce_random(w, rng)
            assert got == nf
            assert steps <= len(w) * (len(w) + 4)


def test_oracle_spot_agreement():
    p = ai_presentation(chain_ci_matrix(3))
    rng = random.Random(16)
    for i in range(60):
        u = random_word(rng, 3, 5)
        if i % 2 == 0:
            v = random_rewrite(p, u, rng, rng.randint(1, 3), max_len=8)
        else:
            v = random_word(rng, 3, 5)
        verdict = bfs_equal(p, u, v, max_len=12)
        if verdict.status == EQUAL:
            assert a_equal(u, v)
        if a_equal(u, v):
            assert verdict.status == EQUAL


def test_a_reduced_words_are_b_reduced():
    rng = random.Random(17)
    for _ in range(10_000):
        nf = a_reduce(random_word(rng, 5, 14))
        assert b_reduced_form(nf) == nf


def test_a_critical_pairs_refuse_a_bad_rank_or_cap():
    with pytest.raises(ValueError, match="rank must be positive"):
        a_critical_pairs(0)
    with pytest.raises(ValueError, match="exponent cap must be positive"):
        a_critical_pairs(3, max_exponent=0)


def test_family_scan_skips_a_chain_of_ones_to_its_end():
    from aimonoids.rewrite import scan_at
    from aimonoids.rewrite_a import _family_match_at, _scan_run
    # no block chain starts at a 1; the family at 3 is the next match
    w = (1, 1, 1, 2, 1, 2, 1)
    assert scan_at(_scan_run, w, 0) == 3
    assert scan_at(_scan_run, w, 3) == (3, 4)
    m = _family_match_at(w, 3)
    assert m.kind == FAMILY and (m.start, m.end) == (3, 7)
    assert a_reduce_steps(w) == ((1, 1, 1, 1, 2, 1), 1)


@pytest.mark.parametrize("entry", [a_step, a_matches, a_reduce])
@pytest.mark.parametrize("word", [(1, 0, 1, 0), (3.5, 1), (-3, -3), (True, 2)])
def test_word_entry_points_refuse_what_a_reduce_refuses(entry, word):
    with pytest.raises(ValueError, match="letters must be positive integers"):
        entry(word)


def test_a_confluence_audit_refuses_negative_random_words_before_any_work(monkeypatch):
    from aimonoids import rewrite_a

    def no_work(*args, **kwargs):
        raise AssertionError("work was done")
    monkeypatch.setattr(rewrite_a, "a_critical_pairs", no_work)
    with pytest.raises(ValueError, match="random_words must be nonnegative, got -1"):
        rewrite_a.a_confluence_audit(3, 1, -1)
