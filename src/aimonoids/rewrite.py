"""The rewriting driver shared by systems A and M.

In both systems at most one rule occurrence starts at each position; rules
are the commutation ``x_a x_b -> x_b x_a`` (a - b >= 2) and deletions, each
removing the span ``match.deleted``.  Each rewriting function takes the
system's own functions (matcher, deletion scanner, apply) as arguments;
the confluence audit takes the matcher and the scanner, not apply, and
rewrites each match it has parsed without parsing it again.  rewrite_a
and rewrite_m pass their module functions on every call, so rebinding
one is seen here.  Normalizing builds no match: a system's scanner
runs over the starts itself and reports the first deletion as
(start, lo, hi), the span w[lo:hi] it removes (in M, lo == start is a
square run); only the match-at functions parse one.  Normalizing
commute-sorts the word, then runs rounds that delete left to right and
commute-sort again; each round hands the scanner a table of the word's
descending runs, which both systems' scanners cross in one step: the
exact table, or the shared all-ones table, which holds for every word.
A reduction's rounds share one exact table: `run_lengths` of its list,
or empty after a round that left the exact path, for the next long
round to build.  A round keeps it exact through its deletions, and its
closing sort visits only the pairs those deletions joined and repairs
the table where it moved letters, or empties it when it takes the
stack.  A long round leaves the exact path at the deletion that passes
1/16 of its letters or lands at or before a pair an earlier one joined,
and scans on with the all-ones table, as short rounds do throughout.
The word problem (`equal`) runs the rounds of both words in lockstep
and stops as soon as the two words agree, as from then on they reduce
alike.  For the overlap audit this module lists the commutation
left-hand sides and the overlaps of two lists of left-hand sides; the
audit joins each critical pair's two reducts in the same lockstep, and
reduces each reduct of a random word once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .monoid_core import Report
from .words import (Word, _rerun, commute_sort, random_word, require_ints,
                    run_lengths, validate_word)

COMMUTATION = "commutation"


def matches(match_at, w) -> list:
    """All rule occurrences, in increasing start order (one per start at most)."""
    return _matches(match_at, validate_word(w))


def _matches(match_at, w) -> list:
    return [m for m in (match_at(w, i) for i in range(len(w))) if m is not None]


def apply(match_at, w, match) -> Word:
    """The word after rewriting the occurrence `match`, which must occur in w."""
    w = tuple(w)
    if match_at(w, match.start) != match:
        raise ValueError(f"match {match} does not occur in {w}")
    return _rewrite(w, match)


def _rewrite(w: Word, match) -> Word:
    """The tuple w after rewriting `match`, which the caller has parsed
    from w (apply, unchecked)."""
    if match.kind == COMMUTATION:
        i = match.start
        return w[:i] + (w[i + 1], w[i]) + w[i + 2:]
    lo, hi = match.deleted
    return w[:lo] + w[hi:]


def step(match_at, apply_fn, w) -> Word | None:
    """Apply the leftmost rule occurrence; None iff w is reduced."""
    w = validate_word(w)
    for i in range(len(w)):
        m = match_at(w, i)
        if m is not None:
            return apply_fn(w, m)
    return None


#: Rounds on words shorter than this share the all-ones run table instead
#: of building one.  A table for every word made `verify sink` and `verify
#: confluence-m` 3-6% slower (rank 4, thread time, 2-CPU x86 box).  From 64
#: to 400 letters, random words of ranks 6 and 20 pay up to 10% for it in A
#: and in M, and the descending words ((L - i) mod 50) + 1 gain: A x1.3 at
#: L = 64 and x2 at 400, M x1.15 and x2.
RUN_TABLE_MIN = 64
_ONES = [1] * RUN_TABLE_MIN


def _ones(n) -> list:
    """The shared all-ones run table, grown to at least n entries."""
    if len(_ONES) < n:
        _ONES.extend([1] * (n - len(_ONES)))
    return _ONES


def scan_at(scan, w, i):
    """scan at the one start i: its span (lo, hi), else its next start,
    read with the shared all-ones table."""
    s = scan(w, _ones(len(w)), i, i + 1)
    return s if s.__class__ is int else s[1:]


def _round(scan, w, runs) -> int:
    """One round on the commute-sorted list w, in place: delete left to
    right, then commute-sort for the next round; the steps taken, 0 iff w
    is its normal form.

    scan(w, table, i, stop) returns (start, lo, hi) for the first deletion
    at a start in [i, stop), else the next start (an int >= stop),
    skipping only starts that provably start none.  The round deletes
    w[lo:hi] and scans on from start, one call per deletion and one more;
    a deletion may uncover one to its left, for the next round.  A round
    that deletes nothing certifies the normal form and sorts nothing.

    The table is one of two, and each scanner gives the same result with
    either (see its docstring): runs, the exact run table of w, or the
    shared all-ones table, which holds for every word and is never
    written.  runs comes as `run_lengths` of w, or empty after a round
    that left the exact path, for this round to build.  A round on fewer
    than RUN_TABLE_MIN letters scans with the all-ones table and leaves
    runs alone (no later round reads it, as rounds never lengthen the
    list); a longer one scans with runs and keeps it for the next round.

    The round keeps runs exact through each deletion.  Deleting
    runs[lo:hi] leaves the entries from lo on those of the same runs
    after hi.  The entries before lo are re-derived from lo - 1 down by
    runs[k] = runs[k + 1] + 1 if w[k] == w[k + 1] + 1 else 1, up to the
    first that keeps its value (`words._rerun`): the letters before lo
    did not change, so neither do the entries before that one.  The
    round also appends to its cuts each lo whose pair w[lo - 1], w[lo]
    the deletion joined and left a descent.  A deletion after the last
    cut moves no cut and changes no cut's pair, and the list came
    sorted, so the cuts are the descents of the list.  Its closing sort,
    commute_sort(w, cuts, runs), visits only the cuts and the letter
    after each slide, gives the list and the moves of the full pass and
    leaves runs run_lengths of the sorted list, or empty when it took
    the stack (the proof is in its docstring).

    The round leaves the exact path at the deletion that takes it past
    1/16 of its letters, which would repair long spans, and at a
    deletion at or before its last cut, which may break or move cuts.
    There it empties runs, scans the rest of the round with the all-ones
    table and sorts by the full pass, and the next long round builds
    runs again.  The scan contract allows a deletion at or before a cut;
    whether either system's scanner makes one is not proven.
    """
    n = len(w)
    deleted = 0
    if n < RUN_TABLE_MIN:
        table, room = _ONES, -1  # no table to keep
    else:
        if not runs:
            runs += run_lengths(w)
        table, room = runs, n >> 4  # the letters it deletes keeping runs exact
        cuts = []
    s = scan(w, table, 0, n)
    while s.__class__ is not int:
        start, lo, hi = s
        del w[lo:hi]
        deleted += 1
        if room >= 0:
            room = -1 if cuts and cuts[-1] >= lo else room - (hi - lo)
            if room >= 0:
                del runs[lo:hi]
                _rerun(w, runs, lo - 1, lo)
                if 0 < lo < len(w) and w[lo - 1] - w[lo] >= 2:
                    cuts.append(lo)
            else:  # leave the exact path
                del runs[:]
                table = _ones(len(w))
        s = scan(w, table, start, len(w))
    if room < 0:
        return deleted and deleted + commute_sort(w)
    return deleted and deleted + commute_sort(w, cuts, runs)


def reduce_steps(scan, word) -> tuple:
    """Normal form and the number of single-rule steps taken to reach it:
    commute-sort w, then run rounds (`_round`) until one deletes nothing.

    The rounds share one run table (see `_round`): the first round on
    RUN_TABLE_MIN letters or more builds it, and every round that long
    leaves it run_lengths of its list, or empty after a round that left
    the exact path, for the next long round to build.  So every scanner
    call reads either run_lengths of its list or the all-ones table, and
    as a scan's result is the same with either, the steps and the normal
    form are those of rounds that scan with the all-ones table
    throughout.
    """
    w = list(validate_word(word))
    steps = commute_sort(w)
    runs = []
    while True:
        taken = _round(scan, w, runs)
        if not taken:
            return tuple(w), steps
        steps += taken


def equal(scan, u, v) -> bool:
    """reduce_steps(scan, u)[0] == reduce_steps(scan, v)[0], for words
    already validated, with the two reductions run in lockstep: both words
    are commute-sorted, then a round runs on u, then one on v, and so on.
    After each commute_sort the two current lists are compared, and v's is
    also compared with the list u had before its last round; equal lists
    answer True.  Once both sides have reached their normal forms, the
    answer is whether those are equal.

    Proof.  A round reads the list and a table, the exact table or the
    all-ones one (see `_round`: each side keeps its own exact table, built
    at its first round on RUN_TABLE_MIN letters or more; the table is
    run_lengths of its list, or empty after a round that left the exact
    path), and the scanner gives the same result with either.  So once
    a round has started, all that follows depends only on the list at
    that moment.  Every list compared
    is one that its side has commute-sorted: the current list just after
    a commute_sort, or its normal form, and u's list before its last
    round, which the commute_sort before that round sorted.
    commute_sort moves nothing on a list it has sorted, so reduce_steps
    from a compared list runs, after a first commute_sort that moves
    nothing, the rounds that its side ran or has still to run from there,
    and reaches that side's normal form.  Two equal lists therefore have
    one normal form, that of u and that of v; and if the lists never
    agree, both sides end on their normal forms, which are compared.  No
    step appeals to confluence: the answer is the comparison of the two
    reductions for any scanner.  A pair meets early when its reductions
    agree at the same round, when v's is one round ahead of u's, or when
    it is one round behind; the last costs a copy of u's list per round
    of u.
    """
    a, b = list(u), list(v)
    commute_sort(a)
    commute_sort(b)
    a_more = b_more = True
    a_runs, b_runs = [], []
    while a != b:
        if not (a_more or b_more):
            return False
        if a_more:
            before = a[:]
            a_more = _round(scan, a, a_runs) > 0
            if a == b:
                return True
        if b_more:
            b_more = _round(scan, b, b_runs) > 0
            if b == before:
                return True
    return True


def reduce_random(match_at, apply_fn, word, rng) -> tuple:
    """Normalize by uniformly random rule choices; (normal form, steps).

    Confluence says the result agrees with reduce_steps whatever the
    strategy; the step count exercises the termination bound.
    """
    w = tuple(validate_word(word))
    steps = 0
    while True:
        ms = _matches(match_at, w)
        if not ms:
            return w, steps
        w = apply_fn(w, rng.choice(ms))
        steps += 1


# ---------------------------------------------------------------------------
# overlap analysis


@dataclass(frozen=True)
class CriticalTriple:
    """Nontrivial words with q*r and r*s both full rule left-hand sides."""

    family: str
    q: Word
    r: Word
    s: Word


def commutations(n: int) -> list:
    """The commutation left-hand sides (a, b), a - b >= 2, over letters 1..n."""
    return [(a, b) for a in range(3, n + 1) for b in range(1, a - 1)]


def overlaps(family: str, lefts, rights, k: int | None = None) -> list:
    """The triples (l[:-j], l[-j:], r[j:]) for every left-hand side l in
    lefts and r in rights whose last j and first j letters agree, with
    0 < j < min(len(l), len(r)); only j == k when k, a positive int, is
    given.

    The rights are indexed by prefix, of length k only when k is given, so
    no l is compared with an r it does not overlap: the cost is that of
    slicing the words plus the size of the output.
    """
    if k is not None:
        require_ints(k=k)
        if k < 1:
            raise ValueError(f"k must be positive, got {k}")

    def lengths(w):
        if k is None:
            return range(1, len(w))
        return (k,) if 0 < k < len(w) else ()

    heads = {}
    for r in rights:
        for j in lengths(r):
            heads.setdefault(r[:j], []).append(r[j:])
    out = []
    for l in lefts:
        for j in lengths(l):
            q, r = l[:-j], l[-j:]
            out.extend(CriticalTriple(family, q, r, s) for s in heads.get(r, ()))
    return out


def full_span(match_at, w):
    """The occurrence covering all of w (the only one that can start at 0)."""
    m = match_at(w, 0)
    if m is None or m.end != len(w):
        raise ValueError(f"not a rule left-hand side: {w}")
    return m


def checked_lefts(match_at, lefts):
    """The words, after checking that each is a full rule left-hand side."""
    for w in lefts:
        full_span(match_at, w)
    return lefts


def confluence_audit(triples, match_at, scan,
                     n: int, random_words: int, seed: int) -> Report:
    """Join both one-step reducts of every overlap, plus random disjoint pairs.

    Failures are (overlap word, left reduct, right reduct); the details are
    `pairs_checked` and the per-family counts `by_family`.

    The rewriting is done once per call: the triples share a few left-hand
    sides (at most one per rule), so each distinct q*r or r*s is parsed
    with `full_span` and rewritten once and its reduct looked up after
    that.  Each match is rewritten as parsed (`_rewrite`): `apply` would
    parse it again to check that it occurs, and the audit has just parsed
    it from that word, with `full_span` or `matches`.  A triple's two
    words v = rewritten(q r) s and w = q rewritten(r s) are then decided
    by `equal(scan, v, w)`, which runs the two reductions in lockstep and
    stops where they meet; its proof shows the answer is exactly
    reduce_steps(scan, v)[0] == reduce_steps(scan, w)[0] for any scanner,
    confluent rules or not, so the audit counts and reports the same
    failures as if it reduced both.  In a random word
    each match is rewritten, and its reduct reduced once by reduce_steps,
    the first time a disjoint pair needs it, not once per pair: those
    normal forms are shared by the pairs of the word.
    """
    Report.require_nonnegative("random_words", random_words)
    failures = []
    by_family = {}
    reduct = {}

    def rewritten(lhs):
        v = reduct.get(lhs)
        if v is None:
            v = reduct[lhs] = _rewrite(lhs, full_span(match_at, lhs))
        return v

    for t in triples:
        v = rewritten(t.q + t.r) + t.s
        w = t.q + rewritten(t.r + t.s)
        by_family[t.family] = by_family.get(t.family, 0) + 1
        if not equal(scan, v, w):
            failures.append((t.q + t.r + t.s, v, w))
    rng = random.Random(seed)
    for _ in range(random_words):
        w0 = random_word(rng, n, 12, 2)
        ms = matches(match_at, w0)
        reducts, forms = [None] * len(ms), [None] * len(ms)
        for x in range(len(ms)):
            for y in range(x + 1, len(ms)):
                if ms[x].end <= ms[y].start:
                    for i in (x, y):
                        if reducts[i] is None:
                            reducts[i] = _rewrite(w0, ms[i])
                            forms[i] = reduce_steps(scan, reducts[i])[0]
                    by_family["disjoint"] = by_family.get("disjoint", 0) + 1
                    if forms[x] != forms[y]:
                        failures.append((w0, reducts[x], reducts[y]))
    checked = sum(by_family.values())
    return Report(checked, failures,
                  {"pairs_checked": checked, "by_family": by_family})
