"""Confluent rewriting for the Coxeter-flavoured monoid of the chain diagram.

Three rule shapes, with ``(x_a, x_b]`` again the descending run
``x_{a-1} ... x_b``:

* Commutation: ``x_a x_b -> x_b x_a`` whenever ``a - b >= 2``.
* Square run: ``(x_a,x_b](x_a,x_b] -> (x_{a-1},x_b](x_a,x_b]`` whenever
  ``a - b >= 1`` (the first letter is deleted); the smallest instance is
  the idempotent square ``x_b x_b -> x_b``.
* Staircase: for a < b, words y_i over letters above i and z_i over
  letters below i-1,

      x_a (y_{a+1} x_{a+1} x_a z_{a+1}) ... (y_b x_b x_{b-1} z_b) x_b

  loses its trailing ``x_b``.

The letter following w[i] picks the shape (lower by two or more:
commutation; equal or lower by one: square run; higher: staircase), and
each parse is forced, so again at most one rule occurrence per start
position.  x_a x_a arises as both a degenerate square run and a
degenerate staircase; it is reported once, as a square run.

The matchers, scanner and rule shapes live here; applying, normalizing
and the confluence audit are the shared driver in ``rewrite``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product

from . import rewrite
from .monoid_core import Report
from .rewrite import COMMUTATION
from .words import (Word, descending_run, nabla, random_word, require_ints,
                    validate_word)

SQUARE_RUN = "square-run"
STAIRCASE = "staircase"


@dataclass(frozen=True)
class MStandardMatch:
    """One rule occurrence over the span [start, end).

    Commutation: (a, b) are the swapped letters.  Square run: the run
    parameters with a - b >= 1.  Staircase: a and b are the first and last
    stair indices; y_spans and z_spans give the interleaved stretches in
    host-word coordinates, one pair per stair a+1 .. b.
    """

    kind: str
    start: int
    end: int
    a: int
    b: int
    y_spans: tuple = ()
    z_spans: tuple = ()

    @property
    def deleted(self) -> tuple:
        """The [lo, hi) span removed: a square run's first letter, a staircase's last."""
        if self.kind == SQUARE_RUN:
            return self.start, self.start + 1
        return self.end - 1, self.end


def _scan_run(w, runs, i, stop):
    """Scan the starts i, i + 1, ... below stop for a square run or a
    staircase; (start, lo, hi) for the first found, where w[lo:hi] is the
    letter it deletes, else the next start (an int >= stop) that may have
    one.  A span starting at the start is a square run's first letter; one
    starting later is a staircase's last x_b.

    Square run: a later start p inside the descending run w[i:j] reads the
    suffix w[p:j] of the same run and must find it again at j, so w[p]
    must equal w[j]; the last run letter w[j-1] can also begin a
    staircase.  A run that reaches the end of the word leaves nothing to
    match.  Staircase: a failed scan goes on at i + 1, as another
    staircase can start inside the stretch it read, so no later start is
    skipped.

    The scan uses an entry of runs, a lower-bound run table of w (the
    exact one or all ones, see `rewrite._round`), only to cross in one
    step letters that reading one by one would cross, and reads on one by
    one from there:
    * a y-stretch at level seg runs to the first letter <= seg.  At its
      letter c = w[j] > seg the run from j holds c, c - 1, ..., so its
      first min(runs[j], c - seg) letters are above seg; when runs[j] >
      c - seg, its letter at j + c - seg is seg, which ends the stretch.
    * a z-stretch runs to the first letter > seg - 2.  The run from its
      letter w[j] <= seg - 2 holds smaller letters only, so the runs[j]
      letters from j all lie in it.
    * a square run's first runs[i] letters descend from x, so reading the
      run may start after them; the run again must begin with x.
    Every stretch and run so ends where the reading one by one ends, and
    the scan reads on from there as it would without a table: every scan
    result is the same for any lower-bound table, and an all-ones table
    (`rewrite.scan_at`'s) reads every letter.
    """
    n = len(w)
    while i < stop:
        if i + 1 >= n:
            return n
        x = w[i]
        d = w[i + 1] - x
        if d >= 1:  # a staircase x_a (y x_{a+1} x_a z) ... x_b
            j = i + 1
            seg = x + 1
            while True:
                if j < n and w[j] > seg:  # y: a run from c holds seg at c - seg
                    r = runs[j]
                    if r > 1:
                        c = w[j] - seg
                        j += r if r < c else c
                    else:
                        j += 1
                    while j < n and w[j] > seg:
                        j += 1
                if j + 1 >= n or w[j] != seg or w[j + 1] != seg - 1:
                    break
                j += 2
                if j < n and w[j] <= seg - 2:  # z: the run from w[j] lies in it
                    j += runs[j]
                    while j < n and w[j] <= seg - 2:
                        j += 1
                if j >= n or w[j] < seg:
                    break
                if w[j] == seg:
                    return i, j, j + 1
                seg += 1
            i += 1
        elif d >= -1:  # a square run of the descending run from x
            run = runs[i]  # the table's part of the run from x
            while i + run < n and w[i + run] == x - run:
                run += 1
            j = i + run
            if j >= n:
                return n
            if w[j] == x and w[j:j + run] == w[i:j]:  # the run again
                return i, i, i + 1
            p = i + x - w[j]
            i = p if i < p < j - 1 else j - 1
        else:
            i += 1
    return i


def _deletion_at(w, i):
    """The square run or staircase starting at position i, if any; once the
    scan has found it, it is read again for its run or its y and z spans."""
    span = rewrite.scan_at(_scan_run, w, i)
    if span.__class__ is int:
        return None
    lo = span[0]
    if lo == i:  # the run descends from w[i], and repeats where w[i] recurs
        run = w.index(w[i], i + 1) - i
        return MStandardMatch(SQUARE_RUN, i, i + 2 * run, w[i] + 1, w[i] + 1 - run)
    j = i + 1
    seg = w[i]
    y_spans, z_spans = [], []
    while j < lo:
        seg += 1
        y_end = w.index(seg, j)  # y_seg has letters above seg only
        y_spans.append((j, y_end))
        j = y_end + 2
        while w[j] <= seg - 2:
            j += 1
        z_spans.append((y_end + 2, j))
    return MStandardMatch(STAIRCASE, i, lo + 1, w[i], seg,
                          tuple(y_spans), tuple(z_spans))


def m_match_at(w, i) -> MStandardMatch | None:
    """The unique rule occurrence starting at position i, if any."""
    if i + 1 < len(w) and w[i] - w[i + 1] >= 2:
        return MStandardMatch(COMMUTATION, i, i + 2, w[i], w[i + 1])
    return _deletion_at(w, i)


def m_matches(w) -> list:
    """All rule occurrences, in increasing start order (one per start at most)."""
    return rewrite.matches(m_match_at, w)


def m_apply(w, match: MStandardMatch) -> Word:
    return rewrite.apply(m_match_at, w, match)


def m_step(w) -> Word | None:
    """Apply the leftmost rule occurrence; None iff w is reduced."""
    return rewrite.step(m_match_at, m_apply, w)


def m_reduce_steps(word) -> tuple:
    """Normal form and the number of single-rule steps taken to reach it."""
    return rewrite.reduce_steps(_scan_run, word)


def m_reduce(word) -> Word:
    """The unique normal form of the word; equals iterated m_step."""
    return m_reduce_steps(word)[0]


def m_reduce_random(word, rng) -> tuple:
    """Normalize by uniformly random rule choices; (normal form, steps)."""
    return rewrite.reduce_random(m_match_at, m_apply, word, rng)


def m_equal(u, v) -> bool:
    """Word problem: compare normal forms, once the letter sets agree.

    Every rule keeps a word's letter set: a commutation permutes letters,
    a square run deletes its first letter x_{a-1} while the second run
    (x_a, x_b] still holds it, and a staircase deletes its trailing x_b
    while its last stair y_b x_b x_{b-1} z_b still holds it.  So a word's
    normal form has its letter set, and when the sets of u and v differ,
    so do their normal forms: the answer is m_reduce(u) == m_reduce(v)
    without either reduction.  Every relation of ci_presentation keeps
    the letter set too, so such a pair is distinct in the monoid whether
    or not the rules are confluent.  Both words are validated first, u
    before v, so a bad letter raises as m_reduce would, and only there.  A
    pair with one letter set is reduced in lockstep by `rewrite.equal`,
    which stops as soon as the two words agree and answers m_reduce(u) ==
    m_reduce(v) exactly (the proof is in its docstring).
    """
    u, v = validate_word(u), validate_word(v)
    return set(u) == set(v) and rewrite.equal(_scan_run, u, v)


# ---------------------------------------------------------------------------
# overlap analysis


def _words_up_to(letters, cap: int):
    """All words of length <= cap over the alphabet, shortest first."""
    return [w for k in range(cap + 1) for w in product(letters, repeat=k)]


def _interleave_assignments(lo: int, hi: int, n: int, cap: int):
    """Choices of (y_i, z_i) for each stair index lo..hi, as dicts."""
    per = []
    for i in range(lo, hi + 1):
        ys = _words_up_to(range(i + 1, n + 1), cap)
        zs = _words_up_to(range(1, i - 1), cap)
        per.append([(y, z) for y in ys for z in zs])
    for combo in product(*per):
        yield dict(zip(range(lo, hi + 1), combo))


def _stair_segments(lo: int, hi: int, assign) -> Word:
    out = []
    for i in range(lo, hi + 1):
        y, z = assign[i]
        out += (*y, i, i - 1, *z)
    return tuple(out)


def m_critical_pairs(n: int, max_interleave: int = 1) -> list:
    """Overlap triples of the rules with letters bounded by n and interleaved
    stretches of length at most max_interleave, as `rewrite.overlaps` of
    the rule lists C (commutations), S (square runs) and T (staircases,
    which take b > a, so x_a x_a counts as a square run only), in ten
    families:
    (a)-(e) the one-letter overlaps of (C, C), (C, S), (S, C), (C, T) and
        (T, C), every overlap of those pairs, since a commutation has two
        letters;
    (f) every overlap of (S, S), at every length: two square runs
        sharing a run;
    (g)-(i) the one-letter overlaps of (S, T), (T, S) and (T, T);
    (j) the two-letter overlaps of a staircase ending x_{b-1} x_b (its
        last z empty) with one beginning x_{b-1} x_b (its first y empty).
    Not listed: the (S, T) and (T, S) overlaps of three letters or more,
    the other (T, T) overlaps of two letters or more (at rank 4,
    interleave <= 1, family j keeps 166 of the 727 two-letter (T, T)
    overlaps, and the audit lists 1057 of the 1781 proper overlaps), and
    rules lying inside a deletion.
    """
    if n < 1:
        raise ValueError("rank must be positive")
    L = max_interleave
    if L < 0:
        raise ValueError("interleave cap must be nonnegative")
    # the left-hand sides: C commutations, S square runs, T staircases
    C = rewrite.checked_lefts(m_match_at, rewrite.commutations(n))
    S = rewrite.checked_lefts(m_match_at, [
        descending_run(a, b) * 2 for a in range(2, n + 2) for b in range(1, a)])
    T = rewrite.checked_lefts(m_match_at, [
        (a,) + _stair_segments(a + 1, b, assign) + (b,)
        for a in range(1, n) for b in range(a + 1, n + 1)
        for assign in _interleave_assignments(a + 1, b, n, L)])
    overlaps = rewrite.overlaps
    # j: a staircase ending x_{b-1} x_b (its last z empty) over one
    # beginning x_{b-1} x_b (its first y empty)
    T_end = [t for t in T if t[-2] + 1 == t[-1]]
    T_start = [t for t in T if t[0] + 1 == t[1]]
    return (overlaps("a", C, C, 1) + overlaps("b", C, S, 1) + overlaps("c", S, C, 1)
            + overlaps("d", C, T, 1) + overlaps("e", T, C, 1) + overlaps("f", S, S)
            + overlaps("g", S, T, 1) + overlaps("h", T, S, 1) + overlaps("i", T, T, 1)
            + overlaps("j", T_end, T_start, 2))


def m_confluence_audit(n: int, max_interleave: int = 1, random_words: int = 200,
                       seed: int = 0) -> Report:
    """Join both one-step reducts of every overlap, plus random disjoint pairs.

    The driver decides each critical pair by `rewrite.equal` on _scan_run,
    which answers m_reduce(v) == m_reduce(w) exactly, and reduces each
    random reduct by `rewrite.reduce_steps` on it, as m_reduce does;
    _scan_run is read at call time, so rebinding it is seen here.  The
    driver rewrites each match as m_match_at parsed it from its word, so
    m_apply, which would parse it again, is not called.  The audit's
    words are far shorter than rewrite.RUN_TABLE_MIN, so every round
    scans with the all-ones table, which changes no scan's result.
    """
    Report.require_nonnegative("random_words", random_words)
    return rewrite.confluence_audit(
        m_critical_pairs(n, max_interleave), m_match_at, _scan_run,
        n, random_words, seed)


# ---------------------------------------------------------------------------
# global structure witnesses


def verify_sink(n: int, trials: int = 500, seed: int = 0) -> Report:
    """The image of the Garside word absorbs everything: x nabla y = nabla.

    Checks the one-sided generator identities exactly, then random two-sided
    products.  One check per trial; the details are `n` and `trials`.
    """
    Report.require_nonnegative("trials", trials)
    nab = nabla(n)
    target = m_reduce(nab)
    failures = []
    for a in range(1, n + 1):
        if m_reduce((a,) + nab) != target:
            failures.append(((a,), ()))
        if m_reduce(nab + (a,)) != target:
            failures.append(((), (a,)))
    rng = random.Random(seed)
    for _ in range(trials):
        x = random_word(rng, n, 8)
        y = random_word(rng, n, 8)
        if m_reduce(x + nab + y) != target:
            failures.append((x, y))
    return Report(trials, failures, {"n": n, "trials": trials})


def infiniteness_witness(k: int, rank: int = 3) -> bool:
    """Whether the k-th power of the probe word x2 x1 x2 x3 is reduced.

    The powers are pairwise distinct normal forms, so the monoid on three
    or more generators has infinitely many elements.
    """
    require_ints(k=k, rank=rank)
    if rank < 3:
        raise ValueError("the probe word needs rank at least 3")
    if k < 0:
        raise ValueError("k must be nonnegative")
    return not m_matches((2, 1, 2, 3) * k)
