"""Confluent rewriting for the Artin-flavoured monoid of the chain diagram.

Two rule shapes over positive letters:

* Commutation: ``x_a x_b -> x_b x_a`` whenever ``a - b >= 2``.
* Block deletion: with ``(x_a, x_c]`` denoting the descending run
  ``x_{a-1} x_{a-2} ... x_c``, the left-hand side

      x_{a-1}^{c(1)} x_{a-2}^{c(2)} ... x_{a-b}^{c(b)} (x_a, x_{a-b}]

  rewrites to the same word with the leading ``x_{a-1}^{c(1)}`` block
  removed, for any b >= 2, a - b >= 1 and exponents c(i) >= 1.

Both shapes shrink the measure (length, descents of gap two or more), so
rewriting terminates; the overlap audit below certifies local confluence,
hence unique normal forms.  At most one rule matches at a given start
position: the letter following w[i] decides the shape (two or more below
w[i]: commutation; equal or one below: block deletion; anything else:
nothing), and within block deletion the exponents and the run start are
forced by maximality.

The matchers and the rule shapes live here; applying, normalizing and the
confluence audit are the shared driver in ``rewrite``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from . import rewrite
from .monoid_core import Report
from .rewrite import COMMUTATION, CriticalTriple
from .words import Word, descending_run

FAMILY = "family"


@dataclass(frozen=True)
class AStandardMatch:
    """One rule occurrence; the span [start, end) is the matched subword.

    Commutation carries the swapped letters as (a, b).  Family carries the
    run parameter a, the block count b and the block exponents; the matched
    subword is x_{a-1}^{c(1)} ... x_{a-b}^{c(b)} (x_a, x_{a-b}].
    """

    kind: str
    start: int
    end: int
    a: int
    b: int
    exponents: tuple | None = None

    @property
    def deleted(self) -> tuple:
        """The [lo, hi) span a family rule removes: its leading block."""
        return self.start, self.start + self.exponents[0]


def _family_match_at(w, i):
    n = len(w)
    h = w[i]
    if h < 2 or i + 4 > n:  # shortest instance is x_{a-1} x_{a-2} x_{a-1} x_{a-2}
        return None
    exps = []
    cur = h
    j = i
    while True:
        c = 0
        while j < n and w[j] == cur:
            c += 1
            j += 1
        exps.append(c)
        if j >= n:
            return None
        v = w[j]
        if v == cur - 1 and cur >= 2:
            cur -= 1
            continue
        if v == h and len(exps) >= 2:
            run_len = h - cur + 1
            if j + run_len > n:
                return None
            for t in range(run_len):
                if w[j + t] != h - t:
                    return None
            return AStandardMatch(FAMILY, i, j + run_len, h + 1, run_len, tuple(exps))
        return None


def a_match_at(w, i) -> AStandardMatch | None:
    """The unique rule occurrence starting at position i, if any."""
    if i + 1 < len(w) and w[i] - w[i + 1] >= 2:
        return AStandardMatch(COMMUTATION, i, i + 2, w[i], w[i + 1])
    return _family_match_at(w, i)


def a_matches(w) -> list:
    """All rule occurrences, in increasing start order (one per start at most)."""
    return rewrite.matches(a_match_at, w)


def a_apply(w, match: AStandardMatch) -> Word:
    return rewrite.apply(a_match_at, w, match)


def a_step(w) -> Word | None:
    """Apply the leftmost rule occurrence; None iff w is reduced."""
    return rewrite.step(a_match_at, a_apply, w)


def a_reduce_steps(word) -> tuple:
    """Normal form and the number of single-rule steps taken to reach it."""
    return rewrite.reduce_steps(_family_match_at, word)


def a_reduce(word) -> Word:
    """The unique normal form of the word; equals iterated a_step."""
    return a_reduce_steps(word)[0]


def a_reduce_random(word, rng) -> tuple:
    """Normalize by uniformly random rule choices; (normal form, steps)."""
    return rewrite.reduce_random(a_matches, a_apply, word, rng)


def a_equal(u, v) -> bool:
    """Word problem: compare normal forms."""
    return a_reduce(u) == a_reduce(v)


# ---------------------------------------------------------------------------
# overlap analysis


def _blocks(top: int, bottom: int, exps) -> Word:
    """x_top^{e(1)} x_{top-1}^{e(2)} ... x_bottom^{e(k)} for k = top-bottom+1."""
    out = []
    for letter, e in zip(range(top, bottom - 1, -1), exps):
        out.extend([letter] * e)
    return tuple(out)


def _exponent_vectors(k: int, cap: int):
    return product(range(1, cap + 1), repeat=k)


def a_critical_pairs(n: int, max_exponent: int = 2) -> list:
    """Every overlap triple with letters bounded by n, exponents by max_exponent.

    Four shapes exhaust the overlaps of the two rules:
    (a) two block deletions sharing the run piece (x_c, x_b];
    (b) a commutation feeding the leading block of a deletion;
    (c) a deletion whose final run letter commutes with what follows;
    (d) two commutations sharing their middle letter.
    """
    if n < 1:
        raise ValueError("rank must be positive")
    E = max_exponent
    if E < 1:
        raise ValueError("exponent cap must be positive")
    out = []
    for a in range(3, n + 2):
        for c in range(2, a + 1):
            for b in range(1, c):
                if a - b < 2:
                    continue
                for d in range(1, b + 1):
                    if c - d < 2:
                        continue
                    for rexp in _exponent_vectors(a - b, E):
                        q = _blocks(a - 1, b, rexp) + descending_run(a, c)
                        r = descending_run(c, b)
                        for sexp in _exponent_vectors(b - d, E):
                            s = _blocks(b - 1, d, sexp) + descending_run(c, d)
                            out.append(CriticalTriple("a", q, r, s))
    for c in range(4, n + 1):
        for a in range(3, c):
            for b in range(2, a):
                for rexp in _exponent_vectors(b, E):
                    s = ((a - 1,) * (rexp[0] - 1) + _blocks(a - 2, a - b, rexp[1:])
                         + descending_run(a, a - b))
                    out.append(CriticalTriple("b", (c,), (a - 1,), s))
    for a in range(5, n + 2):
        for b in range(2, a - 2):
            for rexp in _exponent_vectors(b, E):
                q = _blocks(a - 1, a - b, rexp) + descending_run(a, a - b + 1)
                for c in range(1, a - b - 1):
                    out.append(CriticalTriple("c", q, (a - b,), (c,)))
    for a in range(5, n + 1):
        for b in range(3, a - 1):
            for c in range(1, b - 1):
                out.append(CriticalTriple("d", (a,), (b,), (c,)))
    return rewrite.checked_triples(a_match_at, out)


def a_confluence_audit(n: int, max_exponent: int = 2, random_words: int = 200,
                       seed: int = 0, reducer=None) -> Report:
    """Join both one-step reducts of every overlap, plus random disjoint pairs.

    `reducer` defaults to a_reduce; tests inject a crippled one as a negative
    control.
    """
    return rewrite.confluence_audit(
        a_critical_pairs(n, max_exponent), a_match_at, a_matches, a_apply,
        a_reduce if reducer is None else reducer, n, random_words, seed)
