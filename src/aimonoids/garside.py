"""The Garside word of the Artin-flavoured monoid and its companion maps.

nabla(n) is the stacked descending run x1 (x2 x1) (x3 x2 x1) ... ; every
generator absorbs into it on the left, and multiplying on the left by any
word costs only a controlled power of nabla on the right.  lambda, pi and
the cofactor depend on a word only through its number of x1.  The
harnesses check these identities through normal forms and run no
breadth-first search: `check_lambda_identity` draws its equivalent word
with the oracle module's `random_rewrite`, and as every relation on the
chain keeps the number of x1, its well-defined check compares equal words.
Each sampled harness reduces each distinct word once per call (see
`_NormalForms`); the exact generator identities of `check_lambda_identity`
go through `a_equal`.  `left_cancel_harness` compares its words as
`a_equal` does: a pair that differs in its letter set or its count of x1
is distinct without a reduction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .monoid_core import Report, ai_presentation, chain_ci_matrix, random_rewrite
from .rewrite_a import _separated, a_equal, a_reduce
from .words import (Word, descending_run, nabla, random_word, require_ints,
                    validate_word)


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
    return (1,) * validate_word(word).count(1)


class _NormalForms(dict):
    """word -> a_reduce(word), reduced on the first lookup of the word.

    One per harness call, so nothing outlives it.  ``a_reduce`` is looked
    up by its name in this module, so rebinding it takes effect.
    """

    def __missing__(self, word):
        form = self[word] = a_reduce(word)
        return form

    def equal(self, u, v) -> bool:
        """a_equal(u, v) on valid words, each form reduced once."""
        return not _separated(u, v) and self[u] == self[v]


def lambda_n(word, n: int) -> Word:
    """Endomorphism sending x1 to the full run x_n ... x1 and killing the rest."""
    require_ints(n=n)
    w = validate_word(word, n)
    return descending_run(n + 1, 1) * w.count(1)


def check_lambda_identity(n: int, samples: int = 100, seed: int = 0) -> Report:
    """x nabla = nabla lambda(x), exactly on generators and on random words.

    Also checks that lambda is well defined on the monoid: images of
    equivalent words are equivalent.
    """
    Report.require_nonnegative("samples", samples)
    nab = nabla(n)
    failures = []
    for a in range(1, n + 1):
        if not a_equal((a,) + nab, nab + lambda_n((a,), n)):
            failures.append(("generator", (a,)))
    rng = random.Random(seed)
    p = ai_presentation(chain_ci_matrix(n))
    forms = _NormalForms()
    for _ in range(samples):
        x = random_word(rng, n, 8)
        image = lambda_n(x, n)
        if forms[x + nab] != forms[nab + image]:
            failures.append(("word", x))
        u = random_rewrite(p, x, rng, rng.randint(0, 4))
        if forms[image] != forms[lambda_n(u, n)]:
            failures.append(("well-defined", x, u))
    return Report(n + 2 * samples, failures)


def garside_cofactor(x, n: int) -> tuple:
    """A pair (k, y) with x*y equal to the k-th power of nabla.

    Only the number m of occurrences of the letter 1 matters:
    k = ceil(m/n) + 1 and y pads with 1s before a final nabla.
    """
    require_ints(n=n)
    if n < 1:
        raise ValueError("rank must be positive")
    m = validate_word(x, n).count(1)
    k = (m + n - 1) // n + 1
    y = (1,) * ((k - 1) * n - m) + nabla(n)
    return k, y


def verify_garside(n: int, samples: int = 200, seed: int = 0) -> Report:
    """Both defining clauses of a Garside element, on random words.

    (1) every x has a cofactor y with x y = nabla^k;
    (2) x nabla = nabla lambda(x).
    """
    Report.require_nonnegative("samples", samples)
    nab = nabla(n)
    rng = random.Random(seed)
    forms = _NormalForms()
    failures = []
    for _ in range(samples):
        x = random_word(rng, n, 8)
        k, y = garside_cofactor(x, n)
        if forms[x + y] != forms[nab * k]:
            failures.append(("cofactor", x, k))
        if forms[x + nab] != forms[nab + lambda_n(x, n)]:
            failures.append(("endomorphism", x))
    return Report(2 * samples, failures)


def garside_harness(n: int, samples: int = 200, seed: int = 0) -> Report:
    """`verify_garside` and `check_lambda_identity` as one report."""
    first = verify_garside(n, samples, seed)
    second = check_lambda_identity(n, samples, seed)
    return Report(first.checks_run + second.checks_run,
                  first.failures + second.failures)


def left_cancel_harness(n: int, samples: int = 1000, seed: int = 0,
                        max_word_len: int = 6) -> Report:
    """x y = x z forces y = z; sampled through normal forms.

    Equal pairs double as a congruence sanity check (x y = x z must hold
    when y = z).  Both comparisons are a_equal's (`_NormalForms.equal`):
    a pair that its invariants separate is distinct and is not reduced.
    """
    if n < 1:
        raise ValueError("rank must be positive")
    Report.require_nonnegative("samples", samples)
    rng = random.Random(seed)
    forms = _NormalForms()
    failures = []
    for _ in range(samples):
        x = random_word(rng, n, max_word_len)
        y = random_word(rng, n, max_word_len)
        # an equal pair 30% of the time
        z = forms[y] if rng.random() < 0.3 else random_word(rng, n, max_word_len)
        same = forms.equal(y, z)
        if forms.equal(x + y, x + z) != same:
            failures.append((x, y, z, same))
    return Report(samples, failures)
