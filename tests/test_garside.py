import random
from itertools import product

from aimonoids import garside, rewrite_a
from aimonoids.garside import (check_lambda_identity, garside_cofactor,
                               garside_data, garside_harness, lambda_n,
                               left_cancel_harness, nabla, pi, verify_garside)
from aimonoids.monoid_core import Report, ai_presentation, chain_ci_matrix, \
    random_rewrite
from aimonoids.rewrite_a import a_equal, a_reduce
from aimonoids.words import descending_run, random_word, require_ints, validate_word

import pytest


def test_nabla_examples():
    assert nabla(1) == (1,)
    assert nabla(2) == (1, 2, 1)
    assert nabla(3) == (1, 2, 1, 3, 2, 1)
    with pytest.raises(ValueError):
        nabla(0)


def test_nabla_shape():
    for n in range(1, 9):
        w = nabla(n)
        assert len(w) == n * (n + 1) // 2
        assert pi(w) == (1,) * n
        if n > 1:
            assert w == nabla(n - 1) + descending_run(n + 1, 1)


def test_garside_data():
    for n in (1, 2, 4):
        data = garside_data(n)
        assert data.n == n
        assert data.nabla == nabla(n)
        assert data.nabla == (1,) + data.y_word


def test_pi_examples():
    assert pi((2, 1, 3, 1)) == (1, 1)
    assert pi(()) == ()
    assert pi(nabla(3)) == (1, 1, 1)


def test_lambda_examples():
    assert lambda_n((1,), 2) == (2, 1)
    assert lambda_n((2,), 2) == ()
    assert lambda_n((1, 2, 1), 3) == (3, 2, 1, 3, 2, 1)


def test_lambda_identity_examples():
    # x = x1 at n=2
    assert a_reduce((1,) + nabla(2)) == (1, 1, 2, 1)
    assert a_reduce(nabla(2) + lambda_n((1,), 2)) == (1, 1, 2, 1)
    assert a_equal((1, 1, 2, 1), (1, 2, 1, 2, 1))
    # x = x2 at n=2
    assert a_equal((2,) + nabla(2), nabla(2))
    # empty x
    assert a_equal(nabla(3), nabla(3) + lambda_n((), 3))


def test_lambda_reports():
    for n in (1, 2, 3):
        rep = check_lambda_identity(n, samples=60, seed=n)
        assert rep.ok and rep.checks_run > 0


def test_lambda_well_defined():
    p = ai_presentation(chain_ci_matrix(3))
    rng = random.Random(31)
    for _ in range(100):
        u = random_word(rng, 3, 6)
        v = random_rewrite(p, u, rng, rng.randint(1, 3), max_len=10)
        assert a_equal(lambda_n(u, 3), lambda_n(v, 3))


def test_single_letter_image_is_the_wrong_reading():
    # sending x1 to the bare letter x_n breaks the defining identity at n=2
    left = a_reduce((1,) + nabla(2))
    right = a_reduce(nabla(2) + (2,))
    assert left == (1, 1, 2, 1) and right == (1, 2, 1, 2)
    assert not a_equal(left, right)


def test_cofactor_examples():
    k, y = garside_cofactor((2,), 2)
    assert (k, y) == (1, (1, 2, 1))
    assert a_reduce((2, 1, 2, 1)) == (1, 2, 1) == nabla(2)

    k, y = garside_cofactor((), 1)
    assert (k, y) == (1, (1,))

    k, y = garside_cofactor((1, 1, 1), 2)
    assert k == 3 and y == (1,) + nabla(2)
    assert a_equal((1, 1, 1) + y, nabla(2) * 3)


def test_cofactor_random():
    rng = random.Random(32)
    for _ in range(150):
        n = rng.randint(1, 4)
        x = random_word(rng, n, 7)
        k, y = garside_cofactor(x, n)
        assert k >= 1
        assert a_equal(x + y, nabla(n) * k)


def test_verify_garside_reports():
    for n in (1, 2, 3, 4):
        rep = verify_garside(n, samples=50, seed=n)
        assert rep.ok and rep.checks_run > 0


def test_absorption_identities():
    # x_a swallowed by the full element
    for n in range(2, 7):
        for a in range(2, n + 1):
            assert a_equal((a,) + nabla(n), nabla(n))
    # the same through a power of x1
    for n in range(2, 6):
        for a in range(2, n + 1):
            for r in range(4):
                w = (1,) * r + nabla(n)
                assert a_equal((a,) + w, w)


def test_projection_absorption():
    rng = random.Random(33)
    for _ in range(200):
        n = rng.randint(1, 5)
        x = random_word(rng, n, 6)
        assert a_equal(x + nabla(n), pi(x) + nabla(n))


def test_interchange_identity():
    for n in range(2, 6):
        for a in range(2, n + 1):
            for ell in range(1, 5):
                lhs = (a,) + (a - 1,) * ell + (a, a - 1)
                rhs = (a - 1,) * ell + (a, a - 1)
                assert a_equal(lhs, rhs)


def test_left_cancel_harness():
    rep = left_cancel_harness(3, samples=500, seed=34)
    assert rep.ok and rep.checks_run >= 500
    assert a_equal((1, 2, 1), (2, 1, 2, 1))
    assert a_equal((2, 1, 2, 1), (2, 2, 1, 2, 1))


def test_left_cancel_rejects_nonpositive_rank():
    for n in (0, -1):
        with pytest.raises(ValueError, match="rank must be positive"):
            left_cancel_harness(n)


def test_garside_entry_points_refuse_bad_sizes():
    with pytest.raises(ValueError, match="rank must be positive"):
        garside_cofactor((), 0)
    with pytest.raises(ValueError, match="^samples must be nonnegative, got -5$"):
        left_cancel_harness(3, -5)


# ---------------------------------------------------------------------------
# the sampled harnesses against the per-check bodies they replace


def randint_word(rng, rank, max_len, min_len=0):
    """random_word as drawn through randint, one call per letter."""
    n = rng.randint(min_len, max_len)
    return tuple(rng.randint(1, rank) for _ in range(n))


def reduced_equal(u, v):
    """A sampled comparison as the harnesses spell it: the invariants, then
    both words through the module's a_reduce (a_equal reduces in lockstep,
    through no reducer a test can swap)."""
    return not rewrite_a._separated(u, v) and rewrite_a.a_reduce(u) == rewrite_a.a_reduce(v)


def reference_check_lambda_identity(n, samples, seed):
    nab = nabla(n)
    failures = []
    checks = 0
    for a in range(1, n + 1):
        checks += 1
        if not rewrite_a.a_equal((a,) + nab, nab + lambda_n((a,), n)):
            failures.append(("generator", (a,)))
    rng = random.Random(seed)
    p = ai_presentation(chain_ci_matrix(n))
    for _ in range(samples):
        x = randint_word(rng, n, 8)
        checks += 1
        if not reduced_equal(x + nab, nab + lambda_n(x, n)):
            failures.append(("word", x))
        u = random_rewrite(p, x, rng, rng.randint(0, 4))
        checks += 1
        if not reduced_equal(lambda_n(x, n), lambda_n(u, n)):
            failures.append(("well-defined", x, u))
    return Report(checks, failures)


def reference_verify_garside(n, samples, seed):
    nab = nabla(n)
    rng = random.Random(seed)
    failures = []
    checks = 0
    for _ in range(samples):
        x = randint_word(rng, n, 8)
        k, y = garside_cofactor(x, n)
        checks += 1
        if not reduced_equal(x + y, nab * k):
            failures.append(("cofactor", x, k))
        checks += 1
        if not reduced_equal(x + nab, nab + lambda_n(x, n)):
            failures.append(("endomorphism", x))
    return Report(checks, failures)


def reference_left_cancel_harness(n, samples, seed, max_word_len=6):
    rng = random.Random(seed)
    failures = []
    for _ in range(samples):
        x = randint_word(rng, n, max_word_len)
        y = randint_word(rng, n, max_word_len)
        if rng.random() < 0.3:
            z = rewrite_a.a_reduce(y)
        else:
            z = randint_word(rng, n, max_word_len)
        same = reduced_equal(y, z)
        if reduced_equal(x + y, x + z) != same:
            failures.append((x, y, z, same))
    return Report(samples, failures)


HARNESS_PAIRS = [(verify_garside, reference_verify_garside),
                 (check_lambda_identity, reference_check_lambda_identity),
                 (left_cancel_harness, reference_left_cancel_harness)]


def wrong_on_fifth_lengths(reduce_steps):
    """A deterministic wrong reducer: drops the last letter of words whose
    length is a positive multiple of 5 before reducing."""
    def steps(word):
        w = tuple(word)
        return reduce_steps(w[:-1] if w and len(w) % 5 == 0 else w)
    return steps


@pytest.mark.parametrize("harness,reference", HARNESS_PAIRS,
                         ids=[h.__name__ for h, _ in HARNESS_PAIRS])
def test_sampled_harnesses_equal_their_per_check_bodies(harness, reference):
    for n in range(1, 6):
        for seed in range(4):
            for samples in (0, 1, 7, 200):
                assert harness(n, samples, seed) == reference(n, samples, seed), \
                    (n, seed, samples)


@pytest.mark.parametrize("harness,reference", HARNESS_PAIRS,
                         ids=[h.__name__ for h, _ in HARNESS_PAIRS])
def test_sampled_harnesses_report_a_wrong_reducer_alike(harness, reference, monkeypatch):
    monkeypatch.setattr(rewrite_a, "a_reduce_steps",
                        wrong_on_fifth_lengths(rewrite_a.a_reduce_steps))
    for n in (2, 3, 4):
        for seed in (0, 1):
            rep = harness(n, 200, seed)
            assert rep.failures, (n, seed)
            assert rep == reference(n, 200, seed), (n, seed)


@pytest.mark.parametrize("harness,reference", HARNESS_PAIRS,
                         ids=[h.__name__ for h, _ in HARNESS_PAIRS])
def test_sampled_harnesses_reduce_each_word_once(harness, reference, monkeypatch):
    """Outside `a_equal`, no word is reduced twice within one harness call,
    and the words reduced are the ones the per-check body reduces."""
    log = []
    inside = [0]
    equal_calls = [0]
    reduce_steps = rewrite_a.a_reduce_steps
    a_equal = garside.a_equal

    def logged(word):
        log.append((tuple(word), inside[0] > 0))
        return reduce_steps(word)

    def counted_equal(u, v):
        equal_calls[0] += 1
        inside[0] += 1
        try:
            return a_equal(u, v)
        finally:
            inside[0] -= 1

    monkeypatch.setattr(rewrite_a, "a_reduce_steps", logged)
    monkeypatch.setattr(garside, "a_equal", counted_equal)
    for n in (1, 3, 4):
        for seed in (0, 2):
            del log[:]
            equal_calls[0] = 0
            rep = harness(n, 200, seed)
            outside = [w for w, in_equal in log if not in_equal]
            assert len(outside) == len(set(outside)), (n, seed)
            assert equal_calls[0] == (n if harness is check_lambda_identity else 0)
            first = log[:]
            # nothing is kept across calls: the next call reduces them all again
            del log[:]
            assert harness(n, 200, seed) == rep and log == first
            del log[:]
            assert reference(n, 200, seed) == rep
            assert {w for w, _ in first} == {w for w, _ in log}, (n, seed)


@pytest.mark.parametrize("harness", [verify_garside, check_lambda_identity,
                                     garside_harness])
def test_garside_harnesses_refuse_a_negative_sample_count(harness, monkeypatch):
    def no_reduce(word):
        raise AssertionError("a word was reduced")
    monkeypatch.setattr(rewrite_a, "a_reduce_steps", no_reduce)
    for samples in (-1, -200):
        with pytest.raises(ValueError, match="samples must be nonnegative"):
            harness(3, samples)


# ---------------------------------------------------------------------------
# the maps around nabla read one count of x1


def reference_pi(word):
    w = validate_word(word)
    return (1,) * sum(1 for x in w if x == 1)


def reference_lambda_n(word, n):
    require_ints(n=n)
    w = validate_word(word, n)
    out = []
    run = descending_run(n + 1, 1)
    for x in w:
        if x == 1:
            out.extend(run)
    return tuple(out)


def reference_cofactor(x, n):
    require_ints(n=n)
    if n < 1:
        raise ValueError("rank must be positive")
    x = validate_word(x, n)
    m = len(reference_pi(x))
    k = (m + n - 1) // n + 1
    return k, (1,) * ((k - 1) * n - m) + nabla(n)


def outcome(f, *args):
    try:
        return f(*args)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def test_maps_match_their_letter_loops_on_short_words():
    for n in range(1, 5):
        for length in range(6):
            for w in product(range(1, n + 1), repeat=length):
                assert pi(w) == reference_pi(w)
                assert lambda_n(w, n) == reference_lambda_n(w, n), (w, n)
                assert garside_cofactor(w, n) == reference_cofactor(w, n), (w, n)


BAD_PAIRS = [((), 0), ((1,), 0), ((), -1), ((1,), -1), ((5,), 3), ((5,), -1),
             ((0,), 2), ((0,), -1), ((True,), 2), ((1.0,), 2), ((2,), 1.5),
             ((1,), 1.5), ([1, "1"], 2), (None, 2)]


@pytest.mark.parametrize("word, n", BAD_PAIRS)
def test_maps_raise_as_their_letter_loops_do(word, n):
    assert outcome(lambda_n, word, n) == outcome(reference_lambda_n, word, n)
    assert outcome(garside_cofactor, word, n) == outcome(reference_cofactor, word, n)
    assert outcome(pi, word) == outcome(reference_pi, word)


def reference_lambda_loop(n, samples, seed):
    """check_lambda_identity as per-check bodies, drawing u through the
    module's random_rewrite so that an injected one is seen."""
    nab = nabla(n)
    failures = []
    checks = 0
    for a in range(1, n + 1):
        checks += 1
        if not a_equal((a,) + nab, nab + reference_lambda_n((a,), n)):
            failures.append(("generator", (a,)))
    rng = random.Random(seed)
    p = ai_presentation(chain_ci_matrix(n))
    for _ in range(samples):
        x = random_word(rng, n, 8)
        checks += 1
        if not a_equal(x + nab, nab + reference_lambda_n(x, n)):
            failures.append(("word", x))
        u = garside.random_rewrite(p, x, rng, rng.randint(0, 4))
        checks += 1
        if not a_equal(reference_lambda_n(x, n), reference_lambda_n(u, n)):
            failures.append(("well-defined", x, u))
    return Report(checks, failures)


def test_well_defined_check_reports_a_rewrite_that_adds_an_x1(monkeypatch):
    rewrite = garside.random_rewrite

    def one_more_x1(p, x, rng, steps):
        return rewrite(p, x, rng, steps) + (1,) * (steps % 2)
    monkeypatch.setattr(garside, "random_rewrite", one_more_x1)
    rep = check_lambda_identity(2, 4, 0)
    assert rep == Report(10, [("well-defined", (2, 1, 2, 2, 2, 2), (2, 1, 2, 2, 2, 2, 1))])
    for n in (1, 3, 4):
        for seed in (0, 1):
            rep = check_lambda_identity(n, 50, seed)
            assert rep.failures and rep == reference_lambda_loop(n, 50, seed), (n, seed)


@pytest.mark.parametrize("n", range(1, 7))
def test_chain_relations_keep_the_count_of_x1(n):
    # the premise of the well-defined check: lambda(u) and lambda(x) are one word
    p = ai_presentation(chain_ci_matrix(n))
    rng = random.Random(n)
    for _ in range(300):
        x = random_word(rng, n, 8)
        u = random_rewrite(p, x, rng, rng.randint(0, 6))
        assert u.count(1) == x.count(1) and lambda_n(u, n) == lambda_n(x, n)


def test_left_cancel_harness_refuses_a_negative_sample_count_before_any_work(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work was done")
    monkeypatch.setattr(garside, "a_reduce", no_work)
    monkeypatch.setattr(garside, "random_word", no_work)
    with pytest.raises(ValueError, match="^samples must be nonnegative, got -5$"):
        left_cancel_harness(3, -5)
