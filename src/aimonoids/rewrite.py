"""The rewriting driver shared by systems A and M.

In both systems at most one rule occurrence starts at each position; rules
are the commutation ``x_a x_b -> x_b x_a`` (a - b >= 2) and deletions, each
removing the span ``match.deleted``.  Each rewriting function takes the
system's own functions (matcher, deletion scan, apply, reducer) as
arguments; rewrite_a and rewrite_m pass their module functions on every
call, so rebinding one is seen here.  Normalizing builds no match: a
deletion scan reports the deleted span (lo, hi), which with the scan's
start i names the rule (in M, lo == i is a square run); only the match-at
functions parse one.  For the overlap audit this module lists the
commutation left-hand sides and the overlaps of two lists of left-hand
sides.
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


def sweep(scan, w: list) -> int:
    """Greedy left-to-right deletions in place; returns the count.

    scan(w, i) returns the span (lo, hi) that the deletion starting at i
    removes or, when there is none, the next position (an int) where one
    can start; every position skipped provably starts none, so the sweep
    deletes exactly what a scan at every position would.  The sweep
    deletes w[lo:hi] and scans i again.  A clean sweep on a word with no
    commutation occurrences certifies the normal form.  Deletions may
    uncover occurrences to the left; those are picked up by the next round
    of reduce_steps.
    """
    applied = 0
    i = 0
    while i < len(w):
        s = scan(w, i)
        if s.__class__ is int:
            i = s
        else:
            del w[s[0]:s[1]]
            applied += 1
    return applied


def reduce_steps(scan, word) -> tuple:
    """Normal form and the number of single-rule steps taken to reach it."""
    w = list(validate_word(word))
    steps = 0
    while True:
        steps += commute_sort(w)
        deleted = sweep(scan, w)
        steps += deleted
        if not deleted:
            return tuple(w), steps


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


def confluence_audit(triples, match_at, apply_fn, reduce_fn,
                     n: int, random_words: int, seed: int) -> Report:
    """Join both one-step reducts of every overlap, plus random disjoint pairs.

    Failures are (overlap word, left reduct, right reduct); the details are
    `pairs_checked` and the per-family counts `by_family`.

    The rewriting is done once per call: the triples share a few left-hand
    sides (at most one per rule), so each distinct q*r or r*s is parsed
    with `full_span` and rewritten once and its reduct looked up after
    that; both words of every triple still go to reduce_fn.  In a random
    word each match is rewritten, and its reduct reduced, the first time a
    disjoint pair needs it, not once per pair.  reduce_fn must therefore
    be a function of its word, as a normal form is.
    """
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
        if reduce_fn(v) != reduce_fn(w):
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
                            forms[i] = reduce_fn(reducts[i])
                    by_family["disjoint"] = by_family.get("disjoint", 0) + 1
                    if forms[x] != forms[y]:
                        failures.append((w0, reducts[x], reducts[y]))
    checked = sum(by_family.values())
    return Report(checked, failures,
                  {"pairs_checked": checked, "by_family": by_family})
