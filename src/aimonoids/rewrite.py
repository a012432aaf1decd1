"""The rewriting driver shared by systems A and M.

In both systems at most one rule occurrence starts at each position; rules
are the commutation ``x_a x_b -> x_b x_a`` (a - b >= 2) and deletions, each
removing the span ``match.deleted``.  Each rewriting function takes the
system's own functions (matcher, deletion scanner, apply) as arguments;
rewrite_a and rewrite_m pass their module functions on every call, so
rebinding one is seen here.  Normalizing builds no match: a system's
scanner runs over the starts itself and reports the first deletion as
(start, lo, hi), the span w[lo:hi] it removes (in M, lo == start is a
square run); only the match-at functions parse one.  Normalizing
commute-sorts the word, then runs rounds that delete left to right and
commute-sort again; each round hands the scanner a table of the word's
descending runs, which both systems' scanners cross in one step.  The
word problem (`equal`) runs the rounds of both words in lockstep and
stops as soon as the two words agree, as from then on they reduce
alike.  For the overlap audit this module lists the commutation
left-hand sides and the overlaps of two lists of left-hand sides; the
audit joins each critical pair's two reducts in the same lockstep, and
reduces each reduct of a random word once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .monoid_core import Report
from .words import Word, commute_sort, random_word, validate_word

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


def run_lengths(w) -> list:
    """The run table of w: entry k is the length of the descending run
    w[k], w[k] - 1, ... from k."""
    runs = []
    r = below = 0
    for x in reversed(w):
        r = r + 1 if x == below + 1 else 1
        runs.append(r)
        below = x
    runs.reverse()
    return runs


def scan_at(scan, w, i):
    """scan at the one start i: its span (lo, hi), else its next start,
    read with the shared all-ones table grown to w's length."""
    if len(_ONES) < len(w):
        _ONES.extend([1] * (len(w) - len(_ONES)))
    s = scan(w, _ONES, i, i + 1)
    return s if s.__class__ is int else s[1:]


def _round(scan, w) -> int:
    """One round on the commute-sorted list w, in place: delete left to
    right, then commute-sort for the next round; the steps taken, 0 iff w
    is its normal form.

    scan(w, runs, i, stop) returns (start, lo, hi) for the first deletion
    at a start in [i, stop), else the next start (an int >= stop),
    skipping only starts that provably start none.  The round deletes
    w[lo:hi] and scans on from start, one call per deletion and one more;
    a deletion may uncover one to its left, for the next round.  A round
    that deletes nothing certifies the normal form and sorts nothing.

    runs is the round's run table, a lower bound: entry k is at least 1
    and at most the length of the descending run w[k], w[k] - 1, ... from
    k.  A round on a word of RUN_TABLE_MIN letters or more builds the
    exact table (`run_lengths`); a shorter one gets the shared all-ones
    table, which holds for every word and is never written.  The round
    keeps its own table a lower bound through each deletion: it deletes
    runs[lo:hi], which leaves the entries from lo on those of the same
    runs after hi, and caps each entry k < lo whose run reached lo (k +
    runs[k] > lo) to lo - k, as w[lo] is now another letter.  Those are
    the entries from lo - 1 down to the first that does not reach lo: an
    entry exceeds the next by at most one (true of the exact table, and
    kept by the deletion and the cap), so below it none reaches lo.
    """
    runs = _ONES if len(w) < RUN_TABLE_MIN else run_lengths(w)
    deleted = 0
    s = scan(w, runs, 0, len(w))
    while s.__class__ is not int:
        start, lo, hi = s
        del w[lo:hi]
        if runs is not _ONES:
            del runs[lo:hi]
            k = lo - 1
            while k >= 0 and runs[k] > lo - k:
                runs[k] = lo - k
                k -= 1
        deleted += 1
        s = scan(w, runs, start, len(w))
    return deleted and deleted + commute_sort(w)


def reduce_steps(scan, word) -> tuple:
    """Normal form and the number of single-rule steps taken to reach it:
    commute-sort w, then run rounds (`_round`) until one deletes nothing."""
    w = list(validate_word(word))
    steps = commute_sort(w)
    while True:
        taken = _round(scan, w)
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

    Proof.  A round reads nothing but the list (it builds its run table
    from the list, the scanner reads both, the deletions cut them,
    commute_sort sorts the list in place) and leaves nothing for the next
    round but the list, so once a round has started, all that follows
    depends only on the list at that moment.  Every list compared is one
    that its side has commute-sorted: the current list just after a
    commute_sort, or its normal form, and u's list before its last round,
    which the commute_sort before that round sorted.  commute_sort moves
    nothing on a list it has sorted, so reduce_steps from a compared list
    runs, after a first commute_sort that moves nothing, the rounds that
    its side ran or has still to run from there, and reaches that side's
    normal form.  Two equal lists therefore have one normal form, that of
    u and that of v; and if the lists never agree, both sides end on
    their normal forms, which are compared.  No step appeals to
    confluence: the answer is the comparison of the two reductions for
    any scanner.  A pair meets early when its reductions agree at the
    same round, when v's is one round ahead of u's, or when it is one
    round behind; the last costs a copy of u's list per round of u.
    """
    a, b = list(u), list(v)
    commute_sort(a)
    commute_sort(b)
    a_more = b_more = True
    while a != b:
        if not (a_more or b_more):
            return False
        if a_more:
            before = a[:]
            a_more = _round(scan, a) > 0
            if a == b:
                return True
        if b_more:
            b_more = _round(scan, b) > 0
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
    0 < j < min(len(l), len(r)); only j == k when k is given.

    The rights are indexed by prefix, of length k only when k is given, so
    no l is compared with an r it does not overlap: the cost is that of
    slicing the words plus the size of the output.
    """
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


def confluence_audit(triples, match_at, apply_fn, scan,
                     n: int, random_words: int, seed: int) -> Report:
    """Join both one-step reducts of every overlap, plus random disjoint pairs.

    Failures are (overlap word, left reduct, right reduct); the details are
    `pairs_checked` and the per-family counts `by_family`.

    The rewriting is done once per call: the triples share a few left-hand
    sides (at most one per rule), so each distinct q*r or r*s is parsed
    with `full_span` and rewritten once and its reduct looked up after
    that.  A triple's two words v = rewritten(q r) s and w = q
    rewritten(r s) are then decided by `equal(scan, v, w)`, which runs the
    two reductions in lockstep and stops where they meet; its proof shows
    the answer is exactly reduce_steps(scan, v)[0] == reduce_steps(scan,
    w)[0] for any scanner, confluent rules or not, so the audit counts and
    reports the same failures as if it reduced both.  In a random word
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
            v = reduct[lhs] = apply_fn(lhs, full_span(match_at, lhs))
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
                            reducts[i] = apply_fn(w0, ms[i])
                            forms[i] = reduce_steps(scan, reducts[i])[0]
                    by_family["disjoint"] = by_family.get("disjoint", 0) + 1
                    if forms[x] != forms[y]:
                        failures.append((w0, reducts[x], reducts[y]))
    checked = sum(by_family.values())
    return Report(checked, failures,
                  {"pairs_checked": checked, "by_family": by_family})
