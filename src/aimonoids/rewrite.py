"""The rewriting driver shared by systems A and M.

In both systems at most one rule occurrence starts at each position; rules
are the commutation ``x_a x_b -> x_b x_a`` (a - b >= 2) and deletions, each
removing the span ``match.deleted``.  Every function takes the system's own
functions (matcher, apply, reducer) as arguments; rewrite_a and rewrite_m
pass their module functions on every call, so rebinding one is seen here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .monoid_core import Report
from .words import Word, commute_sort, random_word, validate_word

COMMUTATION = "commutation"


def matches(match_at, w) -> list:
    """All rule occurrences, in increasing start order (one per start at most)."""
    w = tuple(w)
    out = []
    for i in range(len(w)):
        m = match_at(w, i)
        if m is not None:
            out.append(m)
    return out


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
    w = tuple(w)
    for i in range(len(w)):
        m = match_at(w, i)
        if m is not None:
            return apply_fn(w, m)
    return None


def sweep(deletion_at, w: list) -> int:
    """Greedy left-to-right deletions in place; returns the count.

    A clean sweep on a word with no commutation occurrences certifies the
    normal form.  Deletions may uncover occurrences to the left; those are
    picked up by the next round of reduce_steps.
    """
    applied = 0
    i = 0
    while i < len(w):
        m = deletion_at(w, i)
        if m is None:
            i += 1
        else:
            lo, hi = m.deleted
            del w[lo:hi]
            applied += 1
    return applied


def reduce_steps(deletion_at, word) -> tuple:
    """Normal form and the number of single-rule steps taken to reach it."""
    w = list(validate_word(word))
    steps = 0
    while True:
        steps += commute_sort(w)
        deleted = sweep(deletion_at, w)
        steps += deleted
        if not deleted:
            return tuple(w), steps


def reduce_random(matches_fn, apply_fn, word, rng) -> tuple:
    """Normalize by uniformly random rule choices; (normal form, steps).

    Confluence says the result agrees with reduce_steps whatever the
    strategy; the step count exercises the termination bound.
    """
    w = tuple(validate_word(word))
    steps = 0
    while True:
        ms = matches_fn(w)
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


def full_span(match_at, w):
    """The occurrence covering all of w (the only one that can start at 0)."""
    m = match_at(w, 0)
    if m is None or m.end != len(w):
        raise ValueError(f"not a rule left-hand side: {w}")
    return m


def checked_triples(match_at, triples: list) -> list:
    """The triples, after checking that each q*r and r*s is a full left-hand side."""
    for t in triples:
        full_span(match_at, t.q + t.r)
        full_span(match_at, t.r + t.s)
    return triples


def confluence_audit(triples, match_at, matches_fn, apply_fn, reduce_fn,
                     n: int, random_words: int, seed: int) -> Report:
    """Join both one-step reducts of every overlap, plus random disjoint pairs.

    Failures are (overlap word, left reduct, right reduct); the details are
    `pairs_checked` and the per-family counts `by_family`.
    """
    failures = []
    by_family = {}
    checked = 0
    for t in triples:
        qr, rs = t.q + t.r, t.r + t.s
        v = apply_fn(qr, full_span(match_at, qr)) + t.s
        w = t.q + apply_fn(rs, full_span(match_at, rs))
        checked += 1
        by_family[t.family] = by_family.get(t.family, 0) + 1
        if reduce_fn(v) != reduce_fn(w):
            failures.append((t.q + t.r + t.s, v, w))
    rng = random.Random(seed)
    for _ in range(random_words):
        w0 = random_word(rng, n, 12, 2)
        ms = matches_fn(w0)
        for x in range(len(ms)):
            for y in range(x + 1, len(ms)):
                if ms[x].end <= ms[y].start:
                    v = apply_fn(w0, ms[x])
                    w = apply_fn(w0, ms[y])
                    checked += 1
                    by_family["disjoint"] = by_family.get("disjoint", 0) + 1
                    if reduce_fn(v) != reduce_fn(w):
                        failures.append((w0, v, w))
    return Report(checked, failures,
                  {"pairs_checked": checked, "by_family": by_family})
