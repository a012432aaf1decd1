import random

from aimonoids.garside import (check_lambda_identity, garside_cofactor,
                               garside_data, lambda_n, left_cancel_harness,
                               nabla, pi, verify_garside)
from aimonoids.monoid_core import ai_presentation, chain_ci_matrix, \
    random_rewrite
from aimonoids.rewrite_a import a_equal, a_reduce
from aimonoids.words import descending_run, random_word

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
