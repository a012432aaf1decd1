import enum
import random

import pytest

from aimonoids.words import (alternating, b_equivalent, b_reduced_form,
                             commute_sort, descending_run, descent_inversions,
                             format_word, parse_word, random_word,
                             validate_word)


def commutation_class(w):
    """Brute-force closure under swapping adjacent letters with gap >= 2."""
    seen = {tuple(w)}
    queue = [tuple(w)]
    while queue:
        u = queue.pop()
        for i in range(len(u) - 1):
            if abs(u[i] - u[i + 1]) >= 2:
                v = u[:i] + (u[i + 1], u[i]) + u[i + 2:]
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
    return seen


def is_b_reduced(w):
    return all(w[i] - w[i + 1] < 2 for i in range(len(w) - 1))


def test_parse_word_examples():
    assert parse_word("2 1 2 1") == (2, 1, 2, 1)
    assert parse_word("") == ()
    assert parse_word("   ") == ()
    assert parse_word("1 3 2") == (1, 3, 2)


def test_parse_word_rejects_bad_input():
    with pytest.raises(ValueError):
        parse_word("1 x 2")
    with pytest.raises(ValueError):
        parse_word("0 1")
    with pytest.raises(ValueError):
        parse_word("-3")
    with pytest.raises(ValueError):
        parse_word("1 4 2", rank=3)
    assert parse_word("1 3 2", rank=3) == (1, 3, 2)


def test_format_word_round_trip():
    rng = random.Random(1)
    for _ in range(50):
        w = random_word(rng, 6, 10)
        assert parse_word(format_word(w)) == w


def test_validate_word_rejects_non_integers():
    with pytest.raises(ValueError):
        validate_word((1, "2"))
    with pytest.raises(ValueError):
        validate_word((True,))


def reference_validate_word(word, rank=None):
    """validate_word as it was before plain ints passed on one comparison."""
    w = tuple(word)
    for x in w:
        if not isinstance(x, int) or isinstance(x, bool) or x < 1:
            raise ValueError(f"letters must be positive integers, got {x!r}")
        if rank is not None and x > rank:
            raise ValueError(f"letter {x} out of range for rank {rank}")
    return w


def test_validate_word_judges_odd_letters_as_the_isinstance_test_does():
    class Letter(enum.IntEnum):
        ZERO = 0
        ONE = 1
        FIVE = 5

    class Big(int):
        pass

    odd = [True, False, 1.0, 2.5, "2", None, 0, -1, 3, 7, Letter.ZERO,
           Letter.ONE, Letter.FIVE, Big(0), Big(2), Big(9)]
    for word in [(x,) for x in odd] + [(2, x, 1) for x in odd] + [(9, 0), (0, 9)]:
        for rank in (None, 4):
            outcomes = []
            for validate in (validate_word, reference_validate_word):
                try:
                    outcomes.append(("ok", validate(word, rank)))
                except ValueError as exc:
                    outcomes.append(("error", str(exc)))
            assert outcomes[0] == outcomes[1], (word, rank)
            if outcomes[0][0] == "ok":
                assert all(x.__class__ is y.__class__
                           for x, y in zip(outcomes[0][1], word))


def test_descending_run_examples():
    assert descending_run(3, 1) == (2, 1)
    assert descending_run(2, 2) == ()
    assert descending_run(4, 2) == (3, 2)
    with pytest.raises(ValueError):
        descending_run(2, 3)
    with pytest.raises(ValueError):
        descending_run(1, 0)


def test_descending_runs_compose():
    for a in range(1, 8):
        for b in range(1, a + 1):
            for c in range(1, b + 1):
                assert descending_run(a, b) + descending_run(b, c) == \
                    descending_run(a, c)


def test_alternating_examples():
    assert alternating(1, 2, 4) == (1, 2, 1, 2)
    assert alternating(1, 2, 0) == ()
    assert alternating(2, 1, 3) == (2, 1, 2)


def test_b_reduced_form_examples():
    assert b_reduced_form((3, 1)) == (1, 3)
    assert b_reduced_form((2, 1)) == (2, 1)
    assert b_reduced_form((4, 2, 3, 1)) == (2, 1, 4, 3)
    # the frozen value is the one the closure oracle singles out
    cls = commutation_class((4, 2, 3, 1))
    assert [w for w in cls if is_b_reduced(w)] == [(2, 1, 4, 3)]


def test_b_equivalent_examples():
    assert b_equivalent((3, 1), (1, 3))
    assert not b_equivalent((1, 2), (2, 1))
    assert b_equivalent((1, 4, 2), (1, 2, 4))
    assert (1, 2, 4) in commutation_class((1, 4, 2))


def test_b_reduced_form_idempotent_and_letter_preserving():
    rng = random.Random(2)
    for _ in range(200):
        w = random_word(rng, 5, 9)
        r = b_reduced_form(w)
        assert b_reduced_form(r) == r
        assert sorted(r) == sorted(w)
        assert is_b_reduced(r)


def test_b_reduced_form_agrees_with_closure_oracle():
    rng = random.Random(3)
    for _ in range(120):
        w = random_word(rng, 5, 7)
        cls = commutation_class(w)
        reduced = {u for u in cls if is_b_reduced(u)}
        # exactly one reduced word per class, and it is the computed one
        assert reduced == {b_reduced_form(w)}
        for v in cls:
            assert b_equivalent(w, v)
            assert b_reduced_form(v) == b_reduced_form(w)


def test_b_equivalent_false_across_classes():
    rng = random.Random(4)
    found = 0
    while found < 40:
        w = random_word(rng, 5, 7, min_len=2)
        cls = commutation_class(w)
        shuffled = list(w)
        rng.shuffle(shuffled)
        v = tuple(shuffled)
        if v not in cls:
            assert not b_equivalent(w, v)
            found += 1


def test_commute_sort_reports_moves():
    w = [4, 2, 3, 1]
    moves = commute_sort(w)
    assert tuple(w) == (2, 1, 4, 3)
    assert moves > 0
    again = commute_sort(w)
    assert again == 0 and tuple(w) == (2, 1, 4, 3)


def test_descent_inversions_measure():
    assert descent_inversions(()) == 0
    assert descent_inversions((3, 1)) == 1
    assert descent_inversions((3, 2, 1)) == 1
    # a legal swap lowers the count by exactly one
    rng = random.Random(5)
    for _ in range(100):
        w = random_word(rng, 5, 8, min_len=2)
        for i in range(len(w) - 1):
            if w[i] - w[i + 1] >= 2:
                swapped = w[:i] + (w[i + 1], w[i]) + w[i + 2:]
                assert descent_inversions(swapped) == descent_inversions(w) - 1


def test_random_word_respects_bounds():
    rng = random.Random(6)
    for _ in range(100):
        w = random_word(rng, 4, 6, min_len=2)
        assert 2 <= len(w) <= 6
        assert all(1 <= x <= 4 for x in w)


def test_parse_word_accepts_only_ascii_numerals():
    for text in ("1 --5", "1 ²", "1_0", "+2", "١"):
        with pytest.raises(ValueError):
            parse_word(text)


def test_alternating_refuses_a_negative_length():
    with pytest.raises(ValueError, match="length must be nonnegative"):
        alternating(1, 2, -1)


def randint_word(rng, rank, max_len, min_len=0):
    """random_word as drawn through randint, one call per letter."""
    n = rng.randint(min_len, max_len)
    return tuple(rng.randint(1, rank) for _ in range(n))


def test_random_word_draws_what_randint_draws():
    for seed in range(50):
        cases = [(rank, min_len, min_len + (7 * rank + seed) % 40)
                 for rank in range(1, 61) for min_len in range(4)]
        cases += [(rank, seed % 4, 3200)
                  for rank in (1 + seed % 60, 2 ** (seed % 6), 60 - seed % 7)]
        rng, ref = random.Random(seed), random.Random(seed)
        for rank, min_len, max_len in cases:
            w = random_word(rng, rank, max_len, min_len)
            assert w == randint_word(ref, rank, max_len, min_len), (seed, rank)
            assert rng.getstate() == ref.getstate(), (seed, rank, min_len, max_len)
            assert min_len <= len(w) <= max_len
            assert all(type(x) is int and 1 <= x <= rank for x in w)


@pytest.mark.parametrize("args,name", [
    ((0, 3), "rank"), ((-2, 3), "rank"),
    ((3, 2, -3), "min_len"), ((3, 4, -1), "min_len"),
    ((3, 2, 5), "max_len"), ((3, -1), "max_len"),
    ((3.0, 4), "rank"), ((True, 4), "rank"), (("3", 4), "rank"),
    ((3, 4.0), "max_len"), ((3, False), "max_len"), ((3, None), "max_len"),
    ((3, 4, 1.0), "min_len"), ((3, 4, True), "min_len"),
])
def test_random_word_refuses_bad_arguments_before_any_draw(args, name):
    rng = random.Random(7)
    before = rng.getstate()
    with pytest.raises(ValueError, match=name):
        random_word(rng, *args)
    assert rng.getstate() == before
