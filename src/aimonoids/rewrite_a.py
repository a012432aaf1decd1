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

The matchers, scanner and rule shapes live here; applying, normalizing
and the confluence audit are the shared driver in ``rewrite``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from . import rewrite
from .monoid_core import Report
from .rewrite import COMMUTATION
from .words import Word, descending_run, validate_word

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


def _scan_run(w, runs, i, stop):
    """Scan the starts i, i + 1, ... below stop for a family occurrence;
    (start, start, start + c(1)) for the first found, whose leading block
    w[start:start + c(1)] it deletes, else the next start (an int >= stop)
    that may have one.

    A failed scan has read the block chain x_h^{c(1)} ... x_cur^{c(k)} up to
    position j.  A later start inside the chain reads the rest of the same
    chain and the same w[j], so it can match only if w[j] is its own first
    letter and it reads two blocks or more: only in the block of letter
    w[j], and only when cur < w[j] < h; the block's first position is the
    leftmost such start, the first w[j] after i, as the chain descends.
    Otherwise nothing starts before j.

    The scan uses an entry of runs, a lower-bound run table of w (the
    exact one or all ones, see `rewrite._round`), only to cross in one
    step letters that reading one by one would cross: where the chain's
    next block starts with v = cur - 1, the letters from j to j + runs[j]
    - 1 descend, so each is a block of one and the reading reaches j +
    runs[j] - 1 with cur = w[j] there; and the run (x_a, x_{a-b}] sought
    at j starts with h, so its first min(runs[j], run_len) letters are
    those of the run from j.  The chain's end (j, cur, v) and every scan
    result are so the same for any lower-bound table, and an all-ones
    table reads every letter.
    """
    n = len(w)
    while i < stop:
        if i + 4 > n:  # shortest instance is x_{a-1} x_{a-2} x_{a-1} x_{a-2}
            return n
        h = w[i]
        cur = h
        j = i
        while True:
            while j < n and w[j] == cur:
                j += 1
            if j >= n:
                return n
            v = w[j]
            if v == cur - 1:  # blocks of one letter along the run from j
                j += runs[j] - 1
                cur = w[j]
                continue
            break
        if v == h and cur < h:
            run_len = h - cur + 1
            if j + run_len <= n:
                for t in range(min(runs[j], run_len), run_len):
                    if w[j + t] != h - t:
                        break
                else:
                    return i, i, w.index(h - 1, i)  # the leading block x_h^{c(1)}
        i = w.index(v, i) if cur < v < h else j
    return i


def _family_match_at(w, i):
    """The family occurrence starting at position i, if any; once the scan
    has found it, its blocks are read again for their exponents."""
    if rewrite.scan_at(_scan_run, w, i).__class__ is int:
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
    return rewrite.reduce_steps(_scan_run, word)


def a_reduce(word) -> Word:
    """The unique normal form of the word; equals iterated a_step."""
    return a_reduce_steps(word)[0]


def a_reduce_random(word, rng) -> tuple:
    """Normalize by uniformly random rule choices; (normal form, steps)."""
    return rewrite.reduce_random(a_match_at, a_apply, word, rng)


def _separated(u, v) -> bool:
    """Whether the words u and v differ in A's invariants: the count of x1
    or the letter set (see a_equal)."""
    return u.count(1) != v.count(1) or set(u) != set(v)


def a_equal(u, v) -> bool:
    """Word problem: compare normal forms, once the invariants agree.

    Every rule keeps a word's letter set and its count of x1: a
    commutation permutes letters, and a block deletion removes the
    leading block x_{a-1}^{c(1)} while the run (x_a, x_{a-b}] after it
    still holds x_{a-1}, with a - 1 >= b >= 2, so no x1 is removed.  So a
    word's normal form has its invariants, and when those of u and v
    differ, so do their normal forms: the answer is a_reduce(u) ==
    a_reduce(v) without either reduction.  Every relation of
    ai_presentation keeps both invariants too, so such a pair is distinct
    in the monoid whether or not the rules are confluent.  Both words are
    validated first, u before v, so a bad letter raises as a_reduce would,
    and only there.  A pair the invariants do not separate is reduced in
    lockstep by `rewrite.equal`, which stops as soon as the two words
    agree and answers a_reduce(u) == a_reduce(v) exactly (the proof is
    in its docstring).
    """
    u, v = validate_word(u), validate_word(v)
    return not _separated(u, v) and rewrite.equal(_scan_run, u, v)


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
    # family a stops r at a block boundary of r s; the overlaps whose r ends
    # inside a block (s[0] == r[-1]) are left out like M's longer overlaps:
    # listing them would change the audit's counts, and a test joins them.
    # As r s is a right word R split at j, s[0] != r[-1] reads R[j] !=
    # R[j - 1]: only those splits are indexed, so the triples built are
    # the (F, F) overlaps kept, in the order `rewrite.overlaps` lists them
    heads = {}
    for R in F:
        for j in range(1, len(R)):
            if R[j - 1] != R[j]:
                heads.setdefault(R[:j], []).append(R[j:])
    a = [rewrite.CriticalTriple("a", l[:-j], l[-j:], s)
         for l in F for j in range(1, len(l)) for s in heads.get(l[-j:], ())]
    overlaps = rewrite.overlaps
    return a + overlaps("b", C, F, 1) + overlaps("c", F, C, 1) + overlaps("d", C, C, 1)


def a_confluence_audit(n: int, max_exponent: int = 2, random_words: int = 200,
                       seed: int = 0) -> Report:
    """Join both one-step reducts of every overlap, plus random disjoint pairs.

    The driver decides each critical pair by `rewrite.equal` on _scan_run,
    which answers a_reduce(v) == a_reduce(w) exactly, and reduces each
    random reduct by `rewrite.reduce_steps` on it, as a_reduce does;
    _scan_run is read at call time, so rebinding it is seen here.  The
    driver rewrites each match as a_match_at parsed it from its word, so
    a_apply, which would parse it again, is not called.
    """
    Report.require_nonnegative("random_words", random_words)
    return rewrite.confluence_audit(
        a_critical_pairs(n, max_exponent), a_match_at, _scan_run,
        n, random_words, seed)
