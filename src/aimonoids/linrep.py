"""A linear representation of any CI monoid over a presented ring.

The ring R has one generator x_ab per ordered pair of distinct monoid
generators, and for each pair with finite label the single relation that
the alternating monomial [x_ba, x_ab; m(a,b)-1] vanishes.  The ideal is
generated by monomials, so exact arithmetic is just "drop any monomial
containing a forbidden alternating factor"; integer coefficients never
need reduction.

V is a free left R-module with basis e_1 .. e_size, and the monoid acts on
the right by

    e_a * a = 0,        e_b * a = e_b + x_ba e_a  (b != a),

with coefficients collecting on the left.  verify_representation checks
that every defining relation of the monoid acts identically on every basis
vector, together with the closed-form identities used to prove it.
"""

from __future__ import annotations

import random
from itertools import permutations

from .monoid_core import (CIMatrix, INFINITY, Report, _require_ci,
                          ci_presentation, make_ci_matrix)
from .words import alternating, validate_word

# A ring monomial is a tuple of ordered pairs (a, b); a ring element maps
# normal monomials to nonzero integers; a module vector maps basis indices
# to nonzero ring elements.


def forbidden_factors(matrix: CIMatrix) -> list:
    """The monomials declared zero: one alternating word per finite pair.

    The factor attached to the ordered pair (a, b) starts with x_ba and has
    length m(a, b) - 1.  Starting it with x_ab instead breaks the relation
    check on every matrix with an asymmetric pair (see the tests); the two
    orientations agree whenever m is symmetric.
    """
    _require_ci(matrix)
    out = []
    for a in range(1, matrix.size + 1):
        for b in range(1, matrix.size + 1):
            if a == b or matrix.m[(a, b)] == INFINITY:
                continue
            k = matrix.m[(a, b)] - 1
            out.append(tuple((b, a) if i % 2 == 0 else (a, b) for i in range(k)))
    return out


def _vanishes(mono, matrix: CIMatrix) -> bool:
    """Whether the monomial contains one of the forbidden factors.

    Read right to left, `run` is the length of the alternating stretch
    x_ab x_ba x_ab ... starting at the current letter x_ab; the factor of
    the pair (b, a) is that stretch cut at length m(b, a) - 1.  A letter
    outside the matrix, like an infinite label, never vanishes.
    """
    run, after = 0, None
    for a, b in reversed(mono):
        run = run + 1 if after == (b, a) else 1
        after = (a, b)
        if run >= matrix.m.get((b, a), INFINITY) - 1:
            return True
    return False


def _put(out: dict, key, value) -> None:
    """Store a coefficient, keeping only the nonzero ones."""
    if value:
        out[key] = value
    else:
        out.pop(key, None)


def ring_one() -> dict:
    return {(): 1}


def generator(a: int, b: int, matrix: CIMatrix) -> dict:
    """The ring element x_ab; zero when the pair's label makes it so."""
    if a == b:
        raise ValueError("ring generators need distinct indices")
    if not (1 <= a <= matrix.size and 1 <= b <= matrix.size):
        raise ValueError(f"pair ({a}, {b}) out of range")
    return alternating_coeff(a, b, 1, matrix)


def ring_add(p: dict, q: dict) -> dict:
    out = dict(p)
    for mono, c in q.items():
        _put(out, mono, out.get(mono, 0) + c)
    return out


def ring_scale(c: int, p: dict) -> dict:
    if c == 0:
        return {}
    return {mono: c * x for mono, x in p.items()}


def ring_mul(p: dict, q: dict, matrix: CIMatrix) -> dict:
    """Bilinear product, dropping every product monomial that vanishes."""
    _require_ci(matrix)
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            mono = m1 + m2
            if not _vanishes(mono, matrix):
                _put(out, mono, out.get(mono, 0) + c1 * c2)
    return out


def alternating_coeff(a: int, b: int, k: int, matrix: CIMatrix) -> dict:
    """The ring element [x_ab, x_ba; k], normalized (possibly zero)."""
    _require_ci(matrix)
    mono = tuple((a, b) if i % 2 == 0 else (b, a) for i in range(k))
    return {} if _vanishes(mono, matrix) else {mono: 1}


# ---------------------------------------------------------------------------
# the module and the action


def basis_vector(s: int) -> dict:
    return {s: ring_one()}


def vec_add(u: dict, v: dict) -> dict:
    out = dict(u)
    for s, coef in v.items():
        _put(out, s, ring_add(out.get(s, {}), coef))
    return out


def vec_neg(v: dict) -> dict:
    return {s: ring_scale(-1, coef) for s, coef in v.items()}


def vec_sub(u: dict, v: dict) -> dict:
    return vec_add(u, vec_neg(v))


def vec_scale(r: dict, v: dict, matrix: CIMatrix) -> dict:
    """Left-multiply every coefficient by the ring element r."""
    out = {}
    for s, coef in v.items():
        _put(out, s, ring_mul(r, coef, matrix))
    return out


def act_letter(v: dict, a: int, matrix: CIMatrix) -> dict:
    """Right action of one generator: e_a dies, e_b gains x_ba e_a."""
    if not (1 <= a <= matrix.size):
        raise ValueError(f"generator {a} out of range")
    bump = {}
    for s, coef in v.items():
        if s != a:
            bump = ring_add(bump, ring_mul(coef, generator(s, a, matrix), matrix))
    return vec_add({s: coef for s, coef in v.items() if s != a}, {a: bump})


def act_word(v: dict, word, matrix: CIMatrix) -> dict:
    for a in validate_word(word, matrix.size):
        v = act_letter(v, a, matrix)
    return v


# ---------------------------------------------------------------------------
# the identities behind the representation


def _parity_pair(a: int, b: int, n: int) -> tuple:
    return (a, b) if n % 2 == 0 else (b, a)


def _difference(e: dict, a: int, b: int, n: int, matrix: CIMatrix) -> dict:
    """The vector e ([T_a,T_b;n] - [T_b,T_a;n])."""
    return vec_sub(act_word(e, alternating(a, b, n), matrix),
                   act_word(e, alternating(b, a, n), matrix))


def check_alternating_action(matrix: CIMatrix, a: int, b: int, n: int) -> bool:
    """e_b acted by the alternating word [a,b;n] has the closed form
    [x_ba,x_ab;n-1] e_{a(n)} + [x_ba,x_ab;n] e_{b(n)}."""
    lhs = act_word(basis_vector(b), alternating(a, b, n), matrix)
    an, bn = _parity_pair(a, b, n)
    rhs = vec_add(
        vec_scale(alternating_coeff(b, a, n - 1, matrix), basis_vector(an), matrix),
        vec_scale(alternating_coeff(b, a, n, matrix), basis_vector(bn), matrix),
    )
    return lhs == rhs


def check_difference_recursion(matrix: CIMatrix, a: int, b: int, p: int) -> bool:
    """[T_a,T_b;p+1] - [T_b,T_a;p+1] = ([T_a,T_b;p] - [T_b,T_a;p])(T_a+T_b-1),
    checked on every basis vector."""
    for s in range(1, matrix.size + 1):
        e = basis_vector(s)
        lhs = _difference(e, a, b, p + 1, matrix)
        d = _difference(e, a, b, p, matrix)
        rhs = vec_sub(
            vec_add(act_letter(d, a, matrix), act_letter(d, b, matrix)), d)
        if lhs != rhs:
            return False
    return True


def check_mixed_difference(matrix: CIMatrix, a: int, b: int, c: int, n: int) -> bool:
    """e_c ([T_a,T_b;n] - [T_b,T_a;n]) expands to
    x_ca [x_ab,x_ba;n-1] e_{b(n)} - x_cb [x_ba,x_ab;n-1] e_{a(n)}."""
    lhs = _difference(basis_vector(c), a, b, n, matrix)
    an, bn = _parity_pair(a, b, n)
    rhs = vec_sub(
        vec_scale(ring_mul(generator(c, a, matrix),
                           alternating_coeff(a, b, n - 1, matrix), matrix),
                  basis_vector(bn), matrix),
        vec_scale(ring_mul(generator(c, b, matrix),
                           alternating_coeff(b, a, n - 1, matrix), matrix),
                  basis_vector(an), matrix),
    )
    return lhs == rhs


def verify_representation(matrix: CIMatrix) -> Report:
    """Every defining relation acts identically on every basis vector,
    and the closed-form identities hold up to length m(a,b)+1.

    Pairs with an infinite label contribute no relations and are skipped.
    """
    failures = []
    checks = 0
    pres = ci_presentation(matrix)
    for lhs, rhs in pres.relations:
        for s in range(1, matrix.size + 1):
            checks += 1
            e = basis_vector(s)
            if act_word(e, lhs, matrix) != act_word(e, rhs, matrix):
                failures.append(("relation", lhs, rhs, s))
    for a, b in permutations(range(1, matrix.size + 1), 2):
        k = matrix.m[(a, b)]
        if k == INFINITY:
            continue
        for n in range(1, k + 2):
            checks += 1
            if not check_alternating_action(matrix, a, b, n):
                failures.append(("alternating-action", a, b, n))
            checks += 1
            if not check_difference_recursion(matrix, a, b, n):
                failures.append(("difference-recursion", a, b, n))
        for c in range(1, matrix.size + 1):
            if c in (a, b):
                continue
            for n in range(1, k + 2):
                checks += 1
                if not check_mixed_difference(matrix, a, b, c, n):
                    failures.append(("mixed-difference", a, b, c, n))
    return Report(checks, failures)


def random_ci_matrix(rng: random.Random, max_size: int = 3,
                     max_label: int = 5) -> CIMatrix:
    """A random valid CI matrix, for fuzzing the representation."""
    size = rng.randint(1, max_size)
    entries = {}
    for a in range(1, size + 1):
        for b in range(a + 1, size + 1):
            if rng.random() < 0.15:
                entries[(a, b)] = INFINITY
                entries[(b, a)] = INFINITY
                continue
            k = rng.randint(2, max_label)
            entries[(a, b)] = k
            entries[(b, a)] = max(2, min(max_label, k + rng.choice((-1, 0, 0, 1))))
    matrix = make_ci_matrix(size, entries)
    _require_ci(matrix)
    return matrix
