import json
import random
import re
from itertools import permutations

from aimonoids import cli, linrep, monoid_core
from aimonoids.linrep import (act_letter, act_word, alternating_coeff,
                              basis_vector, check_alternating_action,
                              check_difference_recursion,
                              check_mixed_difference, forbidden_factors,
                              generator, random_ci_matrix, ring_add,
                              ring_mul, ring_one, ring_scale,
                              vec_add, vec_scale, vec_sub,
                              verify_representation)
from aimonoids.monoid_core import (INFINITY, chain_ci_matrix, ci_presentation,
                                   make_ci_matrix)
from aimonoids.words import alternating

import pytest

CHAIN3 = chain_ci_matrix(3)
ASYM2 = make_ci_matrix(2, {(1, 2): 3, (2, 1): 4})
SYM3 = make_ci_matrix(2, {(1, 2): 3, (2, 1): 3})
FREE2 = make_ci_matrix(2, {(1, 2): INFINITY, (2, 1): INFINITY})

# worked out from the labels by hand: for the pair (a, b) the dead factor
# alternates starting with x_ba and has length m(a, b) - 1
CHAIN3_FACTORS = {
    ((3, 1),), ((1, 3),),
    ((2, 1), (1, 2)), ((3, 2), (2, 3)),
    ((1, 2), (2, 1), (1, 2)), ((2, 3), (3, 2), (2, 3)),
}


def test_forbidden_factors_asymmetric_pair():
    got = set(forbidden_factors(ASYM2))
    assert got == {((2, 1), (1, 2)), ((1, 2), (2, 1), (1, 2))}


def test_forbidden_factors_chain():
    assert set(forbidden_factors(CHAIN3)) == CHAIN3_FACTORS


def test_forbidden_factors_degenerate_and_free():
    assert set(forbidden_factors(make_ci_matrix(2, {}))) == \
        {((1, 2),), ((2, 1),)}
    assert forbidden_factors(FREE2) == []


def test_generator_examples():
    assert generator(1, 2, SYM3) == {((1, 2),): 1}
    # label 2 kills the generator outright
    assert generator(1, 2, make_ci_matrix(2, {})) == {}
    with pytest.raises(ValueError):
        generator(1, 1, SYM3)
    with pytest.raises(ValueError):
        generator(1, 3, SYM3)


def test_ring_mul_examples():
    x12 = generator(1, 2, SYM3)
    x21 = generator(2, 1, SYM3)
    assert ring_mul(x12, x21, SYM3) == {}
    assert ring_mul(x21, x12, SYM3) == {}
    assert ring_mul(x12, x12, SYM3) == {((1, 2), (1, 2)): 1}
    assert ring_mul(x12, {}, SYM3) == {}
    assert ring_mul(ring_one(), x12, SYM3) == x12


def test_ring_orientation_is_visible_when_labels_differ():
    # under m(1,2)=3 only the product starting with x_21 dies
    x12 = generator(1, 2, ASYM2)
    x21 = generator(2, 1, ASYM2)
    assert ring_mul(x21, x12, ASYM2) == {}
    assert ring_mul(x12, x21, ASYM2) == {((1, 2), (2, 1)): 1}


def test_ring_axioms_on_random_elements():
    rng = random.Random(41)
    gens = [generator(a, b, CHAIN3)
            for a, b in permutations((1, 2, 3), 2)]

    def rand_elem():
        out = {}
        for _ in range(rng.randint(0, 3)):
            term = ring_one()
            for _ in range(rng.randint(0, 3)):
                term = ring_mul(term, rng.choice(gens), CHAIN3)
            out = ring_add(out, ring_scale(rng.randint(-3, 3), term))
        return out

    for _ in range(100):
        p, q, r = rand_elem(), rand_elem(), rand_elem()
        assert ring_mul(ring_mul(p, q, CHAIN3), r, CHAIN3) == \
            ring_mul(p, ring_mul(q, r, CHAIN3), CHAIN3)
        assert ring_mul(p, ring_add(q, r), CHAIN3) == \
            ring_add(ring_mul(p, q, CHAIN3), ring_mul(p, r, CHAIN3))
        assert ring_add(p, q) == ring_add(q, p)


def test_ring_mul_against_scan_oracle():
    # independent check: concatenate, then scan the whole word once
    def scan(mono):
        for f in CHAIN3_FACTORS:
            k = len(f)
            if any(mono[i:i + k] == f for i in range(len(mono) - k + 1)):
                return True
        return False

    rng = random.Random(42)
    pairs = list(permutations((1, 2, 3), 2))
    done = 0
    while done < 1000:
        mp = tuple(rng.choice(pairs) for _ in range(rng.randint(0, 4)))
        mq = tuple(rng.choice(pairs) for _ in range(rng.randint(0, 4)))
        if scan(mp) or scan(mq):
            continue
        done += 1
        got = ring_mul({mp: 1}, {mq: 1}, CHAIN3)
        want = {} if scan(mp + mq) else {mp + mq: 1}
        assert got == want


def test_act_letter_examples():
    e1, e2 = basis_vector(1), basis_vector(2)
    assert act_letter(e1, 1, FREE2) == {}
    hit = act_letter(e2, 1, FREE2)
    assert hit == {2: ring_one(), 1: {((2, 1),): 1}}
    assert act_letter(hit, 1, FREE2) == hit
    with pytest.raises(ValueError):
        act_letter(e1, 3, FREE2)


def test_act_word_alternating_example():
    # e_b . ab = x_ba e_a + x_ba x_ab e_b when nothing vanishes
    got = act_word(basis_vector(2), (1, 2), FREE2)
    want = {
        1: alternating_coeff(2, 1, 1, FREE2),
        2: alternating_coeff(2, 1, 2, FREE2),
    }
    assert got == want
    assert act_word(got, (), FREE2) == got


def test_difference_base_case():
    m = make_ci_matrix(3, {}, default=5)
    diff = vec_sub(act_word(basis_vector(3), (1,), m),
                   act_word(basis_vector(3), (2,), m))
    assert diff == {1: {((3, 1),): 1}, 2: {((3, 2),): -1}}


def test_idempotent_action():
    for matrix in (CHAIN3, SYM3, FREE2, make_ci_matrix(2, {})):
        for a in range(1, matrix.size + 1):
            for s in range(1, matrix.size + 1):
                e = basis_vector(s)
                assert act_word(e, (a, a), matrix) == act_word(e, (a,), matrix)


def test_closed_form_identities():
    for label in (2, 3, 4, 5):
        matrix = make_ci_matrix(2, {(1, 2): label, (2, 1): label})
        for n in range(1, 7):
            assert check_alternating_action(matrix, 1, 2, n)
            assert check_difference_recursion(matrix, 1, 2, n)
    for a, b, c in permutations((1, 2, 3), 3):
        for n in range(1, 7):
            assert check_mixed_difference(CHAIN3, a, b, c, n)


def test_verify_representation_chain():
    rep = verify_representation(CHAIN3)
    assert rep.ok
    assert rep.checks_run == 99


def test_verify_representation_other_matrices():
    assert verify_representation(SYM3).ok
    degenerate = make_ci_matrix(3, {})
    assert verify_representation(degenerate).ok
    assert all(generator(a, b, degenerate) == {}
               for a, b in permutations((1, 2, 3), 2))
    assert verify_representation(FREE2).ok


def test_verify_representation_rejects_bad_matrix():
    with pytest.raises(ValueError):
        verify_representation(make_ci_matrix(2, {(1, 2): 3, (2, 1): 5}))


def test_random_matrices():
    rng = random.Random(43)
    for _ in range(10):
        matrix = random_ci_matrix(rng)
        rep = verify_representation(matrix)
        assert rep.ok, rep.failures


def test_vector_helpers():
    e1 = basis_vector(1)
    assert vec_add(e1, vec_sub(basis_vector(2), basis_vector(2))) == e1
    doubled = vec_scale({(): 2}, e1, SYM3)
    assert doubled == {1: {(): 2}}


def test_ring_mul_against_scan_oracle_on_random_matrices():
    # whole-product scan over the published factor list, on matrices with
    # asymmetric, degenerate and infinite pairs; factors may sit inside
    # either operand as well as across the seam
    rng = random.Random(44)
    for _ in range(150):
        matrix = random_ci_matrix(rng, max_size=4, max_label=6)
        factors = forbidden_factors(matrix)
        pairs = list(permutations(range(1, matrix.size + 1), 2))
        if not pairs:
            continue

        def monomial():
            if rng.random() < 0.5:
                a, b = rng.choice(pairs)
                return tuple((a, b) if i % 2 == 0 else (b, a)
                             for i in range(rng.randint(0, 5)))
            return tuple(rng.choice(pairs) for _ in range(rng.randint(0, 3)))

        for _ in range(40):
            mp, mq = monomial(), monomial()
            mono = mp + mq
            dead = any(mono[i:i + len(f)] == f for f in factors
                       for i in range(len(mono) - len(f) + 1))
            got = ring_mul({mp: 1}, {mq: 1}, matrix)
            assert got == ({} if dead else {mono: 1}), (matrix, mp, mq)


def test_wrong_orientation_fails_the_harness(monkeypatch):
    # negative control: factors starting with x_ab instead of x_ba must
    # break the representation of a matrix with an asymmetric pair
    def wrong_vanishes(mono, matrix):
        for (a, b), k in matrix.m.items():
            if k == INFINITY:
                continue
            f = tuple((a, b) if i % 2 == 0 else (b, a) for i in range(k - 1))
            if any(mono[i:i + len(f)] == f
                   for i in range(len(mono) - len(f) + 1)):
                return True
        return False

    assert verify_representation(ASYM2).ok
    monkeypatch.setattr(linrep, "_vanishes", wrong_vanishes)
    rep = verify_representation(ASYM2)
    assert rep.checks_run == 26
    assert rep.failures == [("relation", (1, 2, 1), (2, 1, 2, 1), 2),
                            ("relation", (1, 2, 1), (1, 2, 1, 2), 2)]
    # the orientations agree on a symmetric matrix
    assert verify_representation(SYM3).ok


def test_matrix_is_checked_once(monkeypatch):
    matrix = chain_ci_matrix(3)
    calls = []
    scan = monoid_core._ci_conditions
    monkeypatch.setattr(monoid_core, "_ci_conditions",
                        lambda *args: calls.append(args) or scan(*args))
    assert verify_representation(matrix).ok
    assert calls == []
    bad = make_ci_matrix(2, {(1, 2): 3, (2, 1): 5})
    assert len(calls) == 1
    for call in (lambda: generator(1, 2, bad), lambda: ring_mul({}, {}, bad),
                 lambda: alternating_coeff(1, 2, 2, bad),
                 lambda: forbidden_factors(bad),
                 lambda: verify_representation(bad)):
        with pytest.raises(ValueError, match="^not a valid CI matrix$"):
            call()
    assert len(calls) == 1


def _without_elapsed(out):
    return re.sub(r"elapsed: \d+ ms|\"elapsed_ms\": \d+", "elapsed", out)


def test_verify_linrep_output_pinned(capsys, tmp_path):
    path = tmp_path / "asym.ci"
    path.write_text("rank 3\n1 2 3\n2 1 4\n2 3 5\n3 2 5\n1 3 inf\n3 1 inf\n")
    pinned = [
        (("--rank", "3"), "rank=3", '"rank": 3', 99),
        (("--rank", "4"), "rank=4", '"rank": 4', 244),
        (("--matrix", str(path)), "matrix=%s" % path,
         '"matrix": %s' % json.dumps(str(path)), 84),
    ]
    for argv, text_params, json_params, checks in pinned:
        assert cli.main(["verify", "linrep", *argv]) == 0
        assert _without_elapsed(capsys.readouterr().out) == (
            "verify linrep: %s\nchecks run: %d\nfailures: 0\nelapsed\n"
            % (text_params, checks))
        assert cli.main(["verify", "linrep", *argv, "--json"]) == 0
        assert _without_elapsed(capsys.readouterr().out) == (
            '{"command": "verify linrep", "params": {%s}, "checks_run": %d, '
            '"failures": [], elapsed}\n' % (json_params, checks))


def test_verify_representation_reports_each_closed_form_failure(monkeypatch):
    monkeypatch.setattr(linrep, "check_alternating_action", lambda m, a, b, n: n != 2)
    monkeypatch.setattr(linrep, "check_difference_recursion", lambda m, a, b, n: n != 3)
    monkeypatch.setattr(linrep, "check_mixed_difference", lambda m, a, b, c, n: n != 1)
    rep = verify_representation(CHAIN3)
    assert rep.checks_run == 99
    assert rep.failures[:6] == [("alternating-action", 1, 2, 2),
                                ("difference-recursion", 1, 2, 3),
                                ("mixed-difference", 1, 2, 3, 1),
                                ("alternating-action", 1, 3, 2),
                                ("difference-recursion", 1, 3, 3),
                                ("mixed-difference", 1, 3, 2, 1)]
    assert len(rep.failures) == 18


def test_difference_recursion_fails_on_a_wrong_difference(monkeypatch):
    difference = linrep._difference
    # the difference vector of every even length replaced by e itself
    monkeypatch.setattr(linrep, "_difference", lambda e, a, b, n, matrix:
                        difference(e, a, b, n, matrix) if n % 2 else e)
    assert [check_difference_recursion(ASYM2, 1, 2, p) for p in range(1, 5)] == [False] * 4
    rep = verify_representation(ASYM2)
    assert rep.failures == [("difference-recursion", 1, 2, p) for p in range(1, 5)] + \
        [("difference-recursion", 2, 1, p) for p in range(1, 6)]


@pytest.mark.parametrize("check, args, name", [
    (check_alternating_action, (1, 2, 0), "n"),
    (check_difference_recursion, (1, 2, 0), "p"),
    (check_mixed_difference, (1, 2, 3, 0), "n"),
    (check_alternating_action, (1, 2, -1), "n"),
    (check_difference_recursion, (1, 2, -1), "p"),
    (check_mixed_difference, (1, 2, 3, -1), "n"),
    (check_alternating_action, (1, 2, True), "n"),
    (check_difference_recursion, (1, 2, True), "p"),
    (check_mixed_difference, (1, 2, 3, 1.0), "n"),
    (check_alternating_action, (1, 1, 2), "b"),
    (check_difference_recursion, (2, 2, 1), "b"),
    (check_mixed_difference, (1, 1, 3, 2), "b"),
    (check_mixed_difference, (1, 2, 1, 2), "c"),
    (check_mixed_difference, (1, 2, 2, 2), "c"),
    (check_alternating_action, (0, 2, 1), "a"),
    (check_alternating_action, (1, 4, 1), "b"),
    (check_difference_recursion, (4, 1, 1), "a"),
    (check_mixed_difference, (1, 2, 4, 1), "c"),
    (check_mixed_difference, (1, 2, True, 1), "c"),
])
def test_identity_checks_refuse_arguments_outside_their_domain(check, args, name):
    with pytest.raises(ValueError, match=f"^{name} must "):
        check(CHAIN3, *args)


def reference_verify_representation(matrix):
    """verify_representation with every action computed by act_word alone."""
    size = matrix.size
    failures, checks = [], 0

    def parity(a, b, n):
        return (a, b) if n % 2 == 0 else (b, a)

    def difference(e, a, b, n):
        return vec_sub(act_word(e, alternating(a, b, n), matrix),
                       act_word(e, alternating(b, a, n), matrix))

    def scaled(r, s):
        return vec_scale(r, basis_vector(s), matrix)

    for lhs, rhs in ci_presentation(matrix).relations:
        for s in range(1, size + 1):
            checks += 1
            e = basis_vector(s)
            if act_word(e, lhs, matrix) != act_word(e, rhs, matrix):
                failures.append(("relation", lhs, rhs, s))
    for a, b in permutations(range(1, size + 1), 2):
        k = matrix.m[(a, b)]
        if k == INFINITY:
            continue
        for n in range(1, k + 2):
            an, bn = parity(a, b, n)
            checks += 2
            if act_word(basis_vector(b), alternating(a, b, n), matrix) != vec_add(
                    scaled(alternating_coeff(b, a, n - 1, matrix), an),
                    scaled(alternating_coeff(b, a, n, matrix), bn)):
                failures.append(("alternating-action", a, b, n))
            for s in range(1, size + 1):
                d = difference(basis_vector(s), a, b, n)
                if difference(basis_vector(s), a, b, n + 1) != vec_sub(
                        vec_add(act_word(d, (a,), matrix), act_word(d, (b,), matrix)), d):
                    failures.append(("difference-recursion", a, b, n))
                    break
        for c in range(1, size + 1):
            if c in (a, b):
                continue
            for n in range(1, k + 2):
                an, bn = parity(a, b, n)
                checks += 1
                xca = ring_mul(generator(c, a, matrix),
                               alternating_coeff(a, b, n - 1, matrix), matrix)
                xcb = ring_mul(generator(c, b, matrix),
                               alternating_coeff(b, a, n - 1, matrix), matrix)
                if difference(basis_vector(c), a, b, n) != vec_sub(
                        scaled(xca, bn), scaled(xcb, an)):
                    failures.append(("mixed-difference", a, b, c, n))
    return checks, failures


def test_verify_representation_matches_the_act_word_reference(monkeypatch):
    matrices = [chain_ci_matrix(rank) for rank in range(1, 6)]
    matrices += [random_ci_matrix(random.Random(seed), max_size=4) for seed in range(20)]
    for matrix in matrices:
        rep = verify_representation(matrix)
        assert (rep.checks_run, rep.failures) == reference_verify_representation(matrix)
    # injected faults fail the same checks in both: with nothing vanishing
    # the relations fail, and with the action of x1 doubled every family
    act = linrep.act_letter
    faults = [("_vanishes", lambda mono, matrix: False),
              ("act_letter", lambda v, a, matrix: act(v, a, matrix) if a != 1
               else vec_add(act(v, a, matrix), act(v, a, matrix)))]
    for name, fault in faults:
        with monkeypatch.context() as patch:
            patch.setattr(linrep, name, fault)
            for matrix in (ASYM2, CHAIN3, chain_ci_matrix(4)):
                rep = verify_representation(matrix)
                assert rep.failures
                assert (rep.checks_run, rep.failures) == \
                    reference_verify_representation(matrix)


def test_verify_representation_acts_once_per_row_entry(monkeypatch):
    calls = []
    act = linrep.act_letter
    monkeypatch.setattr(linrep, "act_letter",
                        lambda v, a, matrix: calls.append(a) or act(v, a, matrix))
    for rank, bound in ((3, 258), (4, 632)):
        calls.clear()
        assert verify_representation(chain_ci_matrix(rank)).ok
        assert len(calls) <= bound, rank
    # outside a verify_representation call each check acts afresh
    calls.clear()
    for _ in range(2):
        assert check_alternating_action(CHAIN3, 1, 2, 3)
    assert len(calls) == 6


def test_no_row_outlives_its_call(monkeypatch):
    # rows filled under a patched _vanishes are gone when the call returns
    monkeypatch.setattr(linrep, "_vanishes", lambda mono, matrix: False)
    assert not verify_representation(ASYM2).ok
    monkeypatch.undo()
    assert verify_representation(ASYM2).ok
    assert linrep._ROWS.get() is None

    def broken(matrix, a, b, n):
        raise RuntimeError("injected")
    monkeypatch.setattr(linrep, "check_alternating_action", broken)
    with pytest.raises(RuntimeError, match="injected"):
        verify_representation(CHAIN3)
    assert linrep._ROWS.get() is None
