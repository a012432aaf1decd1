"""The Garside word of the Artin-flavoured monoid and its companion maps.

nabla(n) is the stacked descending run x1 (x2 x1) (x3 x2 x1) ... ; every
generator absorbs into it on the left, and multiplying on the left by any
word costs only a controlled power of nabla on the right.  The harnesses
here check those identities through the normal-form machinery, which keeps
them independent of the breadth-first oracle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .monoid_core import Report, ai_presentation, chain_ci_matrix, random_rewrite
from .rewrite_a import a_equal, a_reduce
from .words import Word, descending_run, nabla, random_word, validate_word


@dataclass(frozen=True)
class GarsideData:
    n: int
    nabla: Word
    y_word: Word  # nabla with the leading x1 removed


def garside_data(n: int) -> GarsideData:
    nab = nabla(n)
    return GarsideData(n, nab, nab[1:])


def pi(word) -> Word:
    """Project onto the first generator: keep only the letters equal to 1."""
    w = validate_word(word)
    return (1,) * sum(1 for x in w if x == 1)


def lambda_n(word, n: int) -> Word:
    """Endomorphism sending x1 to the full run x_n ... x1 and killing the rest."""
    w = validate_word(word, n)
    out = []
    run = descending_run(n + 1, 1)
    for x in w:
        if x == 1:
            out.extend(run)
    return tuple(out)


def check_lambda_identity(n: int, samples: int = 100, seed: int = 0) -> Report:
    """x nabla = nabla lambda(x), exactly on generators and on random words.

    Also checks that lambda is well defined on the monoid: images of
    equivalent words are equivalent.
    """
    nab = nabla(n)
    failures = []
    checks = 0
    for a in range(1, n + 1):
        checks += 1
        if not a_equal((a,) + nab, nab + lambda_n((a,), n)):
            failures.append(("generator", (a,)))
    rng = random.Random(seed)
    p = ai_presentation(chain_ci_matrix(n))
    for _ in range(samples):
        x = random_word(rng, n, 8)
        checks += 1
        if not a_equal(x + nab, nab + lambda_n(x, n)):
            failures.append(("word", x))
        u = random_rewrite(p, x, rng, rng.randint(0, 4))
        checks += 1
        if not a_equal(lambda_n(x, n), lambda_n(u, n)):
            failures.append(("well-defined", x, u))
    return Report(
        name="lambda-identity",
        params={"n": n, "samples": samples, "seed": seed},
        checks_run=checks,
        failures=failures,
    )


def garside_cofactor(x, n: int) -> tuple:
    """A pair (k, y) with x*y equal to the k-th power of nabla.

    Only the number m of occurrences of the letter 1 matters:
    k = ceil(m/n) + 1 and y pads with 1s before a final nabla.
    """
    if n < 1:
        raise ValueError("rank must be positive")
    x = validate_word(x, n)
    m = len(pi(x))
    k = (m + n - 1) // n + 1
    y = (1,) * ((k - 1) * n - m) + nabla(n)
    return k, y


def verify_garside(n: int, samples: int = 200, seed: int = 0) -> Report:
    """Both defining clauses of a Garside element, on random words.

    (1) every x has a cofactor y with x y = nabla^k;
    (2) x nabla = nabla lambda(x).
    """
    nab = nabla(n)
    rng = random.Random(seed)
    failures = []
    checks = 0
    for _ in range(samples):
        x = random_word(rng, n, 8)
        k, y = garside_cofactor(x, n)
        checks += 1
        if not a_equal(x + y, nab * k):
            failures.append(("cofactor", x, k))
        checks += 1
        if not a_equal(x + nab, nab + lambda_n(x, n)):
            failures.append(("endomorphism", x))
    return Report(
        name="garside-element",
        params={"n": n, "samples": samples, "seed": seed},
        checks_run=checks,
        failures=failures,
    )


def left_cancel_harness(n: int, samples: int = 1000, seed: int = 0,
                        max_word_len: int = 6) -> Report:
    """x y = x z forces y = z; sampled through normal forms.

    Equal pairs double as a congruence sanity check (x y = x z must hold
    when y = z).
    """
    rng = random.Random(seed)
    failures = []
    for _ in range(samples):
        x = random_word(rng, n, max_word_len)
        y = random_word(rng, n, max_word_len)
        if rng.random() < 0.3:
            z = a_reduce(y)  # force an equal pair
        else:
            z = random_word(rng, n, max_word_len)
        same = a_equal(y, z)
        if a_equal(x + y, x + z) != same:
            failures.append((x, y, z, same))
    return Report(
        name="left-cancellativity",
        params={"n": n, "samples": samples, "seed": seed,
                "max_word_len": max_word_len},
        checks_run=samples,
        failures=failures,
    )
