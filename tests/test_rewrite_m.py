import random

from aimonoids.monoid_core import EQUAL, ai_presentation, bfs_equal, \
    chain_ci_matrix, ci_presentation, random_rewrite
from aimonoids.rewrite_a import a_equal
from aimonoids.rewrite_m import (COMMUTATION, SQUARE_RUN, STAIRCASE,
                                 MStandardMatch, infiniteness_witness,
                                 m_apply, m_confluence_audit,
                                 m_critical_pairs, m_equal, m_match_at,
                                 m_matches, m_reduce, m_reduce_random,
                                 m_reduce_steps, m_step, verify_sink)
from aimonoids.words import descent_inversions, random_word, validate_word

import pytest


def test_m_matches_idempotent_square():
    ms = m_matches((1, 1))
    assert len(ms) == 1
    m = ms[0]
    assert m.kind == SQUARE_RUN and (m.start, m.end) == (0, 2)
    assert (m.a, m.b) == (2, 1)


def test_m_matches_square_run_example():
    ms = m_matches((2, 1, 2, 1))
    assert len(ms) == 1
    m = ms[0]
    assert m.kind == SQUARE_RUN and (m.start, m.end) == (0, 4)
    assert (m.a, m.b) == (3, 1)


def test_m_matches_staircase_example():
    ms = m_matches((1, 2, 1, 2))
    assert len(ms) == 1
    m = ms[0]
    assert m.kind == STAIRCASE and (m.start, m.end) == (0, 4)
    assert (m.a, m.b) == (1, 2)
    assert all(s == e for s, e in m.y_spans + m.z_spans)


def test_m_matches_interleaved_staircase():
    # x1 (x3 x2 x1) x2 : the y-factor holds the commuting letter 3
    ms = m_matches((1, 3, 2, 1, 2))
    stairs = [m for m in ms if m.kind == STAIRCASE]
    assert len(stairs) == 1
    m = stairs[0]
    assert (m.start, m.end) == (0, 5) and (m.a, m.b) == (1, 2)
    assert m.y_spans == ((1, 2),)


def test_m_matches_at_most_one_per_start():
    rng = random.Random(21)
    for _ in range(300):
        w = random_word(rng, 5, 12)
        ms = m_matches(w)
        starts = [m.start for m in ms]
        assert starts == sorted(set(starts))
        for m in ms:
            assert m_match_at(w, m.start) == m


def test_m_step_and_apply():
    assert m_step((1, 1)) == (1,)
    assert m_step((1, 2, 1)) is None
    w = (3, 1)
    match = m_matches(w)[0]
    assert match.kind == COMMUTATION
    assert m_apply(w, match) == (1, 3)
    with pytest.raises(ValueError):
        m_apply((1, 3), match)


def test_m_reduce_examples():
    assert m_reduce((1, 1)) == (1,)
    assert m_reduce((1, 2, 1, 2)) == (1, 2, 1)
    assert m_reduce((2, 1, 2, 1)) == (1, 2, 1)
    assert m_reduce(()) == ()


def test_m_equal_example_with_oracle():
    assert m_equal((1, 1, 2, 1), (1, 2, 1))
    p = ci_presentation(chain_ci_matrix(2))
    assert bfs_equal(p, (1, 1, 2, 1), (1, 2, 1), max_len=10).status == EQUAL


def test_interleaved_reduction_regression():
    # the trailing letter only goes through the interleaved parse: the 3
    # cannot be commuted out of the way first
    assert m_reduce((1, 3, 2, 1, 2)) == (1, 3, 2, 1)
    p = ci_presentation(chain_ci_matrix(3))
    assert bfs_equal(p, (1, 3, 2, 1, 2), (1, 3, 2, 1),
                     max_len=12).status == EQUAL


def test_critical_pairs_family_a_instance():
    triples = m_critical_pairs(5, max_interleave=1)
    found = [(t.q, t.r, t.s) for t in triples if t.family == "a"]
    assert found == [((5,), (3,), (1,))]


def test_critical_pairs_family_f_instance():
    # (a, c, b, d) = (3, 3, 2, 1)
    triples = m_critical_pairs(3, max_interleave=1)
    found = [(t.q, t.r, t.s) for t in triples if t.family == "f"]
    assert ((2,), (2,), (1, 2, 1)) in found


def test_critical_pairs_products_are_standard():
    rng = random.Random(22)
    triples = m_critical_pairs(4, max_interleave=1)
    for t in rng.sample(triples, 80):
        for prod in (t.q + t.r, t.r + t.s):
            assert any(m.start == 0 and m.end == len(prod)
                       for m in m_matches(prod))


def test_confluence_audit_clean():
    rep = m_confluence_audit(4, max_interleave=1, random_words=40, seed=5)
    assert rep.ok
    assert set("bcdefghij") <= set(rep.by_family)
    assert all(v > 0 for v in rep.by_family.values())


def test_confluence_audit_negative_control():
    def no_commutation(w):
        w = tuple(w)
        while True:
            ms = [m for m in m_matches(w) if m.kind != COMMUTATION]
            if not ms:
                return w
            w = m_apply(w, ms[0])

    rep = m_confluence_audit(4, max_interleave=1, random_words=0,
                             reducer=no_commutation)
    assert not rep.ok


def test_termination_budget():
    rng = random.Random(23)
    for _ in range(10_000):
        n = rng.randint(1, 6)
        w = random_word(rng, n, 30)
        nf, steps = m_reduce_steps(w)
        assert len(nf) <= len(w)
        assert steps <= len(w) ** 2 * (n + 2)
        assert m_matches(nf) == []


def test_single_step_lowers_the_measure():
    rng = random.Random(24)
    checked = 0
    while checked < 300:
        w = random_word(rng, 5, 10, min_len=2)
        nxt = m_step(w)
        if nxt is None:
            continue
        checked += 1
        before = (len(w), descent_inversions(w))
        after = (len(nxt), descent_inversions(nxt))
        assert after < before


def test_strategy_independence():
    rng = random.Random(25)
    for _ in range(1000):
        w = random_word(rng, 4, 12)
        nf = m_reduce(w)
        for _ in range(20):
            got, steps = m_reduce_random(w, rng)
            assert got == nf


def test_reduce_random_validates_its_word_once(monkeypatch):
    from aimonoids import rewrite
    calls = []

    def counting(w):
        calls.append(w)
        return validate_word(w)

    monkeypatch.setattr(rewrite, "validate_word", counting)
    w = tuple((7 * i) % 5 + 1 for i in range(36))
    # the seeded results of the validate-every-step version
    assert m_reduce_random(w, random.Random(3)) == (
        (1, 2, 1, 3, 2, 1, 4, 3, 2, 1, 5, 4, 3, 2, 1), 49)
    assert len(calls) == 1
    assert m_reduce_random((3, 3, 1, 4, 2, 1, 2, 1, 3), random.Random(0)) == (
        (1, 3, 2, 1, 4, 3), 10)
    assert len(calls) == 2


def test_oracle_spot_agreement():
    p = ci_presentation(chain_ci_matrix(3))
    rng = random.Random(26)
    for i in range(60):
        u = random_word(rng, 3, 5)
        if i % 2 == 0:
            v = random_rewrite(p, u, rng, rng.randint(1, 3), max_len=8)
        else:
            v = random_word(rng, 3, 5)
        verdict = bfs_equal(p, u, v, max_len=12)
        if verdict.status == EQUAL:
            assert m_equal(u, v)
        if m_equal(u, v):
            assert verdict.status == EQUAL


def test_projection_compatibility():
    # generator-preserving quotient: braid-side equalities survive
    p = ai_presentation(chain_ci_matrix(3))
    rng = random.Random(27)
    for _ in range(1000):
        u = random_word(rng, 3, 8)
        v = random_rewrite(p, u, rng, rng.randint(1, 4), max_len=12)
        assert a_equal(u, v)
        assert m_equal(u, v)


def test_sink_reports():
    for n in (1, 2, 3):
        rep = verify_sink(n, trials=60, seed=n)
        assert rep.ok and rep.n == n and rep.trials == 60
    assert m_reduce((2,) + (1, 2, 1)) == m_reduce((1, 2, 1))
    assert m_reduce((1, 2, 1) + (2,)) == m_reduce((1, 2, 1))
    assert m_reduce((1, 1, 1)) == (1,)


def test_infiniteness_witness():
    assert infiniteness_witness(0)
    assert infiniteness_witness(1)
    assert infiniteness_witness(50)
    with pytest.raises(ValueError):
        infiniteness_witness(1, rank=2)
    words = {(2, 1, 2, 3) * k for k in range(51)}
    assert len(words) == 51
    assert all(m_matches(w) == [] for w in words)


def test_m_critical_pairs_refuse_a_bad_rank_or_cap():
    with pytest.raises(ValueError, match="rank must be positive"):
        m_critical_pairs(0)
    with pytest.raises(ValueError, match="interleave cap must be nonnegative"):
        m_critical_pairs(3, max_interleave=-1)


def test_sink_and_witness_refuse_bad_sizes():
    with pytest.raises(ValueError, match="rank must be positive"):
        verify_sink(0)
    with pytest.raises(ValueError, match="checks_run must be nonnegative, got -1"):
        verify_sink(3, -1)
    with pytest.raises(ValueError, match="k must be nonnegative"):
        infiniteness_witness(-1)


@pytest.mark.parametrize("entry", [m_step, m_matches, m_reduce])
@pytest.mark.parametrize("word", [(1, 0, 1, 0), (3.5, 1), (-3, -3), (True, 2)])
def test_word_entry_points_refuse_what_m_reduce_refuses(entry, word):
    with pytest.raises(ValueError, match="letters must be positive integers"):
        entry(word)


def layered_words_up_to(letters, cap):
    """Words of length <= cap, built one layer per length."""
    letters = tuple(letters)
    out = [()]
    layer = [()]
    for _ in range(cap):
        layer = [w + (x,) for w in layer for x in letters]
        out.extend(layer)
    return out


def test_words_up_to_matches_the_layered_construction():
    from aimonoids.rewrite_m import _words_up_to
    for alphabet in ((), (4,), (2, 5), (3, 1, 2)):
        for cap in range(4):
            assert _words_up_to(alphabet, cap) == layered_words_up_to(alphabet, cap)
            assert _words_up_to(range(1, len(alphabet) + 1), cap) == \
                layered_words_up_to(range(1, len(alphabet) + 1), cap)


def test_verify_sink_reports_each_kind_of_failure(monkeypatch):
    import aimonoids.rewrite_m as rewrite_m
    monkeypatch.setattr(rewrite_m, "m_reduce", tuple)  # reduces nothing
    rep = verify_sink(2, 3, 0)
    assert rep.failures == [((1,), ()), ((), (1,)), ((2,), ()), ((), (2,)),
                            ((2, 1, 2, 2, 2, 2), (2, 1, 1, 2, 1, 1, 2)),
                            ((1, 2, 1, 1, 2, 2, 1, 2), (2, 1, 2, 2, 2, 1)),
                            ((1, 1, 2, 1, 2, 2, 1, 2), (1,))]
    assert rep.checks_run == 3


def test_verify_sink_refuses_a_bad_rank_before_reducing(monkeypatch):
    import aimonoids.rewrite_m as rewrite_m

    def no_reduce(word):
        raise AssertionError("a word was reduced")
    monkeypatch.setattr(rewrite_m, "m_reduce", no_reduce)
    for n in (0, -3):
        with pytest.raises(ValueError, match="rank must be positive"):
            verify_sink(n)
