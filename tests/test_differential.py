"""Seeded differential tests.

The fast normalizers (commutation sort plus deletion sweeps) must give
exactly what the slow reference gives, iterated leftmost single steps, and
what uniformly random rule choices give (ranks 4-6).  The skip-ahead sweep
must take exactly the steps and rounds of a sweep that scans every
position (ranks 4-20 and the descending-run words up to length 400).
At every position of those words a deletion scan must report a span
exactly when the match-at function finds a match, and the span must be
the match's deleted span; the matches must equal those of a one-pass
parse that records the match as it reads, and normalizing must build no
match object.  Words are drawn letter by letter and as concatenated
descending runs, which exercise the long rule shapes.  At rank 4 both
deciders must agree with the breadth-first oracle's class closures on
every pair of short words.  The commutation sort must give the list and
move count of plain insertion sort on both sides of its switch to the
suffix-minima stack.
The oracle must visit neighbours in the order of a search that encodes
the relations afresh on every call (relation, direction, position), so
its statuses, witness chains, closures and random choices stay the same.
A query the oracle settles without a search, by letter sets or by its
verified rank-2 quotients, must get the reference search's verdict.
The neighbours the search does not build, those past the length bound
and the repeats within one run of x under x^m -> x^k, must leave its
statuses, witnesses, state counts and closures as the reference's.
The critical-pair families derived from the rule lists must be, family by
family, the multiset of triples the hand-written overlap loops gave, and
every overlap of the bounded rule lists must join, listed or not.
The confluence audits must report what an audit that rewrites every
triple and every random pair afresh reports, also under a normalizer
crippled to skip commute_sort and beyond rank 4, while parsing each
left-hand side once and reducing each match's reduct in a random word
once.  A's relations are among M's, so reducing a word in A first must
not change its M normal form.
"""

import random
from collections import Counter
from contextlib import nullcontext
from itertools import combinations, product
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aimonoids import rewrite, rewrite_a, rewrite_m
from aimonoids.rewrite import run_lengths
from aimonoids.cube import cube_presentation
from aimonoids.monoid_core import (DISTINCT_WITHIN_BOUND, EQUAL, INCONCLUSIVE,
                                   Presentation, ai_presentation, bfs_equal,
                                   chain_ci_matrix, ci_presentation,
                                   congruence_closure, one_step_related,
                                   random_rewrite)
from aimonoids.rewrite_a import (_blocks, _exponent_vectors, _family_match_at,
                                 a_apply, a_critical_pairs, a_equal,
                                 a_match_at, a_reduce, a_reduce_random,
                                 a_reduce_steps, a_step)
from aimonoids.rewrite_m import (_deletion_at, _interleave_assignments,
                                 _stair_segments, m_apply, m_critical_pairs,
                                 m_equal, m_match_at, m_reduce,
                                 m_reduce_random, m_reduce_steps, m_step)
from aimonoids.words import (_rerun, alternating, b_reduced_form, commute_sort,
                             descending_run, descent_inversions, nabla,
                             random_word)

SYSTEMS = {
    "A": (a_reduce, a_reduce_steps, a_reduce_random, a_step),
    "M": (m_reduce, m_reduce_steps, m_reduce_random, m_step),
}


def iterate_steps(step, w):
    while True:
        nxt = step(w)
        if nxt is None:
            return w
        w = nxt


@st.composite
def ranked_words(draw):
    n = draw(st.integers(4, 6))
    letters = st.lists(st.integers(1, n), max_size=20).map(tuple)
    runs = st.lists(st.tuples(st.integers(1, n + 1), st.integers(1, n + 1)),
                    max_size=6).map(
        lambda pairs: sum((descending_run(max(p), min(p)) for p in pairs), ()))
    return n, draw(st.one_of(letters, runs))


@pytest.mark.parametrize("system", sorted(SYSTEMS))
@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(case=ranked_words(), seed=st.integers(0, 2**32 - 1))
def test_fast_normalizer_matches_references(system, case, seed):
    reduce_fn, reduce_steps, reduce_random, step = SYSTEMS[system]
    n, w = case
    nf = reduce_fn(w)
    assert nf == iterate_steps(step, w)
    random_nf, random_steps = reduce_random(w, random.Random(seed))
    assert random_nf == nf
    budget = len(w) * (len(w) + n)
    assert random_steps <= budget
    nf_steps, steps = reduce_steps(w)
    assert nf_steps == nf
    assert steps <= budget


# ---------------------------------------------------------------------------
# the skip-ahead deletion sweep against a scan at every position


def descending_word(length, period=50):
    """The adversarial descending-run word ((L - i) mod period) + 1, i < L."""
    return tuple((length - i) % period + 1 for i in range(length))


def per_position_reduce(deletion_at, word):
    """(normal form, steps, rounds) of commute_sort plus a deletion sweep that
    tries the matcher at every position, one round per commute_sort call."""
    w = list(word)
    steps = rounds = 0
    while True:
        rounds += 1
        steps += commute_sort(w)
        deleted = 0
        i = 0
        while i < len(w):
            m = deletion_at(w, i)
            if m is None:
                i += 1
            else:
                lo, hi = m.deleted
                del w[lo:hi]
                deleted += 1
        steps += deleted
        if not deleted:
            return tuple(w), steps, rounds


def counted_reduce(reduce_steps, word):
    """(normal form, steps, rounds), counting the driver's commute_sort calls."""
    calls = []

    def counting(w, *args):
        calls.append(None)
        return commute_sort(w, *args)

    with mock.patch.object(rewrite, "commute_sort", counting):
        nf, steps = reduce_steps(word)
    return nf, steps, len(calls)


SWEEP_SYSTEMS = {
    "A": (a_reduce_steps, _family_match_at),
    "M": (m_reduce_steps, _deletion_at),
}


@st.composite
def sweep_words(draw):
    n = draw(st.integers(4, 20))
    letters = st.lists(st.integers(1, n), max_size=80).map(tuple)
    runs = st.lists(st.tuples(st.integers(1, n + 1), st.integers(1, n + 1),
                              st.integers(1, 3)),
                    max_size=12).map(
        lambda parts: sum((descending_run(max(a, b), min(a, b)) * k
                           for a, b, k in parts), ()))
    descending = st.builds(descending_word, st.integers(0, 400),
                           st.sampled_from([n, 49, 50]))
    return draw(st.one_of(letters, runs, descending))


@pytest.mark.parametrize("system", sorted(SWEEP_SYSTEMS))
@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(w=sweep_words())
@example(w=descending_word(400))
@example(w=descending_word(397, 49))
def test_skip_ahead_sweep_matches_per_position_sweep(system, w):
    reduce_steps, deletion_at = SWEEP_SYSTEMS[system]
    assert counted_reduce(reduce_steps, w) == per_position_reduce(deletion_at, w)


@pytest.mark.parametrize("system", sorted(SWEEP_SYSTEMS))
def test_descending_word_rounds_pinned(system):
    reduce_steps, _ = SWEEP_SYSTEMS[system]
    rounds = {length: counted_reduce(reduce_steps, descending_word(length))[2]
              for length in (200, 400, 800)}
    assert rounds == {200: 3, 400: 7, 800: 15}


# ---------------------------------------------------------------------------
# deletion scans report spans; only the match-at functions parse matches

SCAN_SYSTEMS = {
    "A": (rewrite_a, _family_match_at),
    "M": (rewrite_m, _deletion_at),
}


def commute_sorted(w):
    w = list(w)
    commute_sort(w)
    return tuple(w)


@pytest.mark.parametrize("system", sorted(SCAN_SYSTEMS))
@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(w=sweep_words())
@example(w=descending_word(400))
@example(w=descending_word(397, 49))
def test_scan_reports_the_span_of_the_match_at_every_position(system, w):
    module, deletion_at = SCAN_SYSTEMS[system]
    for word in (w, commute_sorted(w)):
        for i in range(len(word)):
            span = rewrite.scan_at(module._scan_run, word, i)
            m = deletion_at(word, i)
            if m is None:
                assert span.__class__ is int and span > i
            else:
                assert span == m.deleted


# one scanner call runs over the starts below stop; every i <= stop <= len(w)
# of words cut to SCAN_RUN_LEN letters, as the pairs grow as its square
SCAN_RUN_LEN = 60
RUN_SYSTEMS = {"A": rewrite_a, "M": rewrite_m}


def stepped_scan(scan, w, i, stop):
    """Stepping the one-start view `rewrite.scan_at` of scan from i:
    (start, lo, hi) of the first span found at a start below stop, else
    the first start >= stop."""
    while i < stop:
        s = rewrite.scan_at(scan, w, i)
        if s.__class__ is not int:
            return (i,) + s
        i = s
    return i


@pytest.mark.parametrize("system", sorted(RUN_SYSTEMS))
@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(w=sweep_words().map(lambda w: w[:SCAN_RUN_LEN]))
@example(w=descending_word(SCAN_RUN_LEN))
@example(w=descending_word(SCAN_RUN_LEN, 7))
def test_scan_run_steps_the_one_start_view_to_every_stop(system, w):
    module = RUN_SYSTEMS[system]
    for word in (w, commute_sorted(w)):
        for i in range(len(word) + 1):
            for stop in range(i, len(word) + 1):
                assert (module._scan_run(word, rewrite.run_lengths(word), i, stop)
                        == stepped_scan(module._scan_run, word, i, stop)), (i, stop)


@pytest.mark.parametrize("system", sorted(RUN_SYSTEMS))
def test_reducing_calls_the_scanner_once_per_deletion_and_per_round(system, monkeypatch):
    module = RUN_SYSTEMS[system]
    reduce_steps = SWEEP_SYSTEMS[system][0]
    scan_run = module._scan_run
    calls = []
    sorts = []

    def counting_scan(w, runs, i, stop):
        s = scan_run(w, runs, i, stop)
        calls.append(s.__class__ is not int)
        return s

    def counting_sort(w, *args):
        moves = commute_sort(w, *args)
        sorts.append(moves)
        return moves

    monkeypatch.setattr(module, "_scan_run", counting_scan)
    monkeypatch.setattr(rewrite, "commute_sort", counting_sort)
    rng = random.Random(5)
    words = [(), (1,), (1, 1), (2, 1, 2, 1), (1, 2, 1, 2), (3, 2, 1, 3, 2, 1, 2),
             descending_word(400), descending_word(397, 49)]
    words += [tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 300)))
              for _ in range(30)]
    deleted_somewhere = 0
    for w in words:
        del calls[:], sorts[:]
        nf, steps = reduce_steps(w)
        deletions = sum(calls)
        # every call but the one ending each round found a deletion
        assert len(calls) == deletions + len(sorts), w
        assert steps == deletions + sum(sorts)
        assert len(nf) < len(w) or deletions == 0
        deleted_somewhere += deletions > 0
    assert deleted_somewhere > 20


def recording_family_at(w, i):
    """The family occurrence at i, parsed in one pass that records the
    block exponents as it reads them."""
    n = len(w)
    h = w[i]
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
        break
    run_len = h - cur + 1
    if v != h or len(exps) < 2 or j + run_len > n:
        return None
    if any(w[j + t] != h - t for t in range(run_len)):
        return None
    return rewrite_a.AStandardMatch(rewrite_a.FAMILY, i, j + run_len, h + 1,
                                    run_len, tuple(exps))


def recording_deletion_at(w, i):
    """The square run or staircase at i, parsed in one pass that records the
    run length or the y and z stretches as it reads them."""
    n = len(w)
    if i + 1 >= n:
        return None
    d = w[i + 1] - w[i]
    if d < -1:
        return None
    if d <= 0:
        run = 1
        while i + run < n and w[i + run] == w[i] - run:
            run += 1
        j = i + run
        if j + run > n or w[i] - run < 0:
            return None
        if any(w[j + t] != w[i] - t for t in range(run)):
            return None
        return rewrite_m.MStandardMatch(rewrite_m.SQUARE_RUN, i, j + run,
                                        w[i] + 1, w[i] + 1 - run)
    a = w[i]
    j = i + 1
    seg = a + 1
    y_spans, z_spans = [], []
    while True:
        y0 = j
        while j < n and w[j] > seg:
            j += 1
        y_spans.append((y0, j))
        if j + 1 >= n or w[j] != seg or w[j + 1] != seg - 1:
            return None
        j += 2
        z0 = j
        while j < n and w[j] <= seg - 2:
            j += 1
        z_spans.append((z0, j))
        if j >= n or w[j] < seg:
            return None
        if w[j] == seg:
            return rewrite_m.MStandardMatch(rewrite_m.STAIRCASE, i, j + 1, a, seg,
                                            tuple(y_spans), tuple(z_spans))
        seg += 1


def recording_matches(deletion_at, cls, w):
    out = []
    for i in range(len(w)):
        if i + 1 < len(w) and w[i] - w[i + 1] >= 2:
            out.append(cls(rewrite.COMMUTATION, i, i + 2, w[i], w[i + 1]))
        else:
            m = deletion_at(w, i)
            if m is not None:
                out.append(m)
    return out


RECORDING_SYSTEMS = {
    "A": (rewrite_a.a_matches, recording_family_at, rewrite_a.AStandardMatch),
    "M": (rewrite_m.m_matches, recording_deletion_at, rewrite_m.MStandardMatch),
}


@pytest.mark.parametrize("system", sorted(RECORDING_SYSTEMS))
@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(w=sweep_words())
@example(w=descending_word(400))
def test_matches_equal_a_one_pass_recording_parse(system, w):
    matches, deletion_at, cls = RECORDING_SYSTEMS[system]
    for word in (w, commute_sorted(w)):
        assert matches(word) == recording_matches(deletion_at, cls, word)


def test_reducing_builds_no_match_object(monkeypatch):
    words = [(1, 1), (2, 1, 2, 1), (1, 2, 1, 2), (3, 2, 1, 3, 2, 1, 2),
             (1, 1, 1, 2, 1, 2, 1), descending_word(400)]
    rng = random.Random(17)
    words += [tuple(rng.randint(1, 6) for _ in range(60)) for _ in range(20)]
    expected = [(a_reduce_steps(w), m_reduce_steps(w)) for w in words]

    def refuse(*args, **kwargs):
        raise AssertionError("a match object was built")

    monkeypatch.setattr(rewrite_a, "AStandardMatch", refuse)
    monkeypatch.setattr(rewrite_m, "MStandardMatch", refuse)
    with pytest.raises(AssertionError):
        a_match_at((2, 1, 2, 1), 0)
    with pytest.raises(AssertionError):
        m_match_at((1, 1), 0)
    got = [(a_reduce_steps(w), m_reduce_steps(w)) for w in words]
    assert got == expected
    # the words delete in both systems: a square run, a staircase, families
    assert got[0][1] == ((1,), 1) and got[2][1] == ((1, 2, 1), 1)
    assert got[1][0] == ((1, 2, 1), 1)
    for system in (0, 1):
        assert all(len(g[system][0]) < len(w) for w, g in zip(words[3:6], got[3:6]))
        assert sum(len(w) - len(g[system][0]) for w, g in zip(words[6:], got[6:])) > 100


@pytest.mark.parametrize("system", ["A", "M"])
def test_deciders_agree_with_oracle_closures_at_rank_4(system):
    # all 341 words of length <= 4 at rank 4 (57,970 pairs), one shared
    # closure per class as in acceptance criterion 02; the closures are
    # bounded at length 10, so "distinct" is evidence within that bound
    matrix = chain_ci_matrix(4)
    pres, equal = ((ai_presentation(matrix), a_equal) if system == "A"
                   else (ci_presentation(matrix), m_equal))
    words = [w for k in range(5) for w in product(range(1, 5), repeat=k)]
    assert len(words) == 341
    closures = []
    for w in words:
        if not any(w in cls for cls in closures):
            cls, _ = congruence_closure(pres, w, max_len=10)
            closures.append(cls)
    class_of = {w: i for i, cls in enumerate(closures) for w in cls}
    disagreements = [(u, v) for u, v in combinations(words, 2)
                     if equal(u, v) != (class_of[u] == class_of[v])]
    assert disagreements == []


# ---------------------------------------------------------------------------
# commute_sort against plain insertion sort


def insertion_commute_sort(w):
    """(move count, whether the run passed eight moves per letter seen):
    the commutation insertion sort with one interpreter step per move."""
    moves = 0
    long_slides = False
    for i in range(1, len(w)):
        x = w[i]
        j = i
        while j > 0 and w[j - 1] - x >= 2:
            w[j] = w[j - 1]
            j -= 1
        if j != i:
            w[j] = x
            moves += i - j
            long_slides = long_slides or moves > 8 * i
    return moves, long_slides


def check_commute_sort(word):
    """Compare with the reference; return whether the switch was reached."""
    got, expected = list(word), list(word)
    moves = commute_sort(got)
    reference_moves, long_slides = insertion_commute_sort(expected)
    assert (got, moves) == (expected, reference_moves)
    assert sorted(got) == sorted(word)
    assert moves == descent_inversions(word) - descent_inversions(got)
    assert all(a - b < 2 for a, b in zip(got, got[1:]))
    return long_slides


def test_commute_sort_matches_insertion_sort_on_all_short_words():
    words = [w for k in range(9) for w in product(range(1, 5), repeat=k)]
    assert len(words) == 87381
    for w in words:
        check_commute_sort(w)


def commute_sort_extremes():
    """Block words (k+2)^m 1^m, descending-run words and reversed normal
    forms, short and long."""
    rng = random.Random(7)
    blocks = [(k + 2,) * m + (1,) * m for k in (1, 5, 30) for m in (3, 9, 40, 200)]
    descending = [descending_word(n, period) for n in (10, 100, 400)
                  for period in (3, 20, 50)]
    reversed_forms = [tuple(reversed(b_reduced_form(
        [rng.randint(1, r) for _ in range(n)])))
        for r in (3, 6, 20, 60) for n in (12, 60, 400)]
    reversed_forms += [tuple(reversed(nabla(n))) for n in (3, 8, 20)]
    return blocks + descending + reversed_forms


def test_commute_sort_extremes_hit_both_sides_of_the_switch():
    switched = [check_commute_sort(w) for w in commute_sort_extremes()]
    assert any(switched) and not all(switched)


@st.composite
def sort_words(draw):
    n = draw(st.integers(2, 60))
    length = draw(st.integers(0, 400))
    letters = st.lists(st.integers(1, n), min_size=length, max_size=length)
    runs = st.lists(st.tuples(st.integers(1, n + 1), st.integers(1, n + 1)),
                    max_size=40).map(
        lambda pairs: [x for a, b in pairs
                       for x in descending_run(max(a, b), min(a, b))])
    return tuple(draw(st.one_of(letters, runs)))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(w=sort_words())
def test_commute_sort_matches_insertion_sort(w):
    check_commute_sort(w)


def cut_word(word, picks):
    """The commute-sorted word cut as a round cuts it: for each pick
    (position, width), w[lo:lo + width] is deleted (lo the position mod
    the length), its run table kept by `words._rerun`, and lo appended to
    the cuts when the pair it joined is a descent; the picks stop at the
    first whose lo is at or before the last cut, where a round leaves
    the cut path; (list, cuts, table)."""
    w = list(word)
    commute_sort(w)
    runs = run_lengths(w)
    cuts = []
    for pos, width in picks:
        if not w:
            break
        lo = pos % len(w)
        if cuts and cuts[-1] >= lo:
            break
        hi = min(lo + width, len(w))
        del w[lo:hi]
        del runs[lo:hi]
        _rerun(w, runs, lo - 1, lo)
        if 0 < lo < len(w) and w[lo - 1] - w[lo] >= 2:
            cuts.append(lo)
    return w, cuts, runs


def check_cut_sort(word, picks):
    """The cut path of commute_sort against the full pass: same list and
    moves, and it leaves the table run_lengths of the sorted list, or
    empty when it took the stack, which is reported."""
    w, cuts, runs = cut_word(word, picks)
    # a round's upkeep: the exact table, and a cut at every descent
    assert runs == run_lengths(w)
    assert cuts == [c for c in range(1, len(w)) if w[c - 1] - w[c] >= 2]
    before, expected = list(w), list(w)
    moves = commute_sort(expected)
    assert (commute_sort(w, cuts, runs), w) == (moves, expected)
    stacked = insertion_commute_sort(before)[1]
    assert runs == ([] if stacked else run_lengths(w))
    return stacked


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(word=sort_words(),
       picks=st.lists(st.tuples(st.integers(0, 10**6), st.integers(1, 3)), max_size=40))
# a slide that leaves the next pair a descent: 5 3 2 -> 3 5 2 -> 3 2 5
@example(word=(5, 4, 3, 2), picks=[(1, 1)])
# cuts at 1 and 3 (3 1 6 4 9 8 7), then a deletion at 2, where the picks stop
@example(word=(3, 2, 1, 6, 5, 4, 9, 8, 7), picks=[(1, 1), (3, 1), (2, 2)])
# the cut joins 9 to fifteen 2s, which slide past twenty 9s: the moves
# pass eight per letter seen, and the stack places the rest
@example(word=(9,) * 20 + (8, 7, 6, 5, 4, 3) + (2,) * 15, picks=[(20, 6)])
def test_the_cut_sort_is_the_full_sort(word, picks):
    check_cut_sort(word, picks)


def test_the_cut_sort_examples_reach_both_sides_of_the_switch():
    assert check_cut_sort((9,) * 20 + (8, 7, 6, 5, 4, 3) + (2,) * 15, [(20, 6)])
    assert not check_cut_sort((5, 4, 3, 2), [(1, 1)])


# ---------------------------------------------------------------------------
# the oracle's neighbour order against relations encoded on every call


def reference_subs(p):
    subs = []
    for lhs, rhs in p.relations:
        bl, br = bytes(lhs), bytes(rhs)
        if bl != br:
            subs += [(bl, br), (br, bl)]
    return subs


def reference_sites(w, subs):
    sites = []
    for lhs, rhs in subs:
        i = w.find(lhs)
        while i != -1:
            sites.append((i, lhs, rhs))
            i = w.find(lhs, i + 1)
    return sites


def reference_search(p, start, max_len, max_states, target=None):
    subs = reference_subs(p)
    parent = {start: None}
    queue = [start]
    complete = True
    for w in queue:
        for i, lhs, rhs in reference_sites(w, subs):
            nw = w[:i] + rhs + w[i + len(lhs):]
            if len(nw) > max_len:
                complete = False
            elif nw not in parent:
                if len(parent) >= max_states:
                    return parent, False, False
                parent[nw] = w
                if nw == target:
                    return parent, complete, True
                queue.append(nw)
    return parent, complete, False


def reference_bfs_equal(p, u, v, max_len, max_states):
    bu, bv = bytes(u), bytes(v)
    if bu == bv:
        return EQUAL, (u,)
    parent, complete, hit = reference_search(p, bu, max_len, max_states, bv)
    if not hit:
        return (DISTINCT_WITHIN_BOUND if complete else INCONCLUSIVE), None
    chain = []
    while bv is not None:
        chain.append(tuple(bv))
        bv = parent[bv]
    return EQUAL, tuple(reversed(chain))


def reference_random_rewrite(p, word, rng, steps, max_len):
    w, subs = bytes(word), reference_subs(p)
    for _ in range(steps):
        sites = [(i, lhs, rhs) for i, lhs, rhs in reference_sites(w, subs)
                 if len(w) - len(lhs) + len(rhs) <= max_len]
        if not sites:
            break
        i, lhs, rhs = rng.choice(sites)
        w = w[:i] + rhs + w[i + len(lhs):]
    return tuple(w)


def random_presentation(rng):
    """2-5 generators, sides of length 1-4, some sides identical and some
    relations repeated."""
    n = rng.randint(2, 5)
    rels = []
    for _ in range(rng.randint(1, 4)):
        lhs = tuple(rng.randint(1, n) for _ in range(rng.randint(1, 4)))
        rhs = lhs if rng.random() < 0.2 else tuple(
            rng.randint(1, n) for _ in range(rng.randint(1, 4)))
        rels += [(lhs, rhs)] * (2 if rng.random() < 0.2 else 1)
    return Presentation(n, tuple(rels))


@pytest.mark.parametrize("seed", range(4))
def test_oracle_neighbour_order_matches_per_call_encoding(seed):
    rng = random.Random(seed)
    for _ in range(60):
        p = random_presentation(rng)
        for _ in range(3):
            u = tuple(rng.randint(1, p.generators) for _ in range(rng.randint(0, 6)))
            steps, max_len = rng.randint(0, 5), len(u) + rng.randint(0, 3)
            walk = rng.randrange(2**32)
            v = random_rewrite(p, u, random.Random(walk), steps, max_len)
            assert v == reference_random_rewrite(p, u, random.Random(walk), steps, max_len)
            cap = rng.choice([5, 40, 2000])
            other = tuple(rng.randint(1, p.generators) for _ in range(rng.randint(0, 6)))
            for w in (v, other):
                bound = len(u) + len(w) + 2
                verdict = bfs_equal(p, u, w, bound, cap)
                assert (verdict.status, verdict.witness) == reference_bfs_equal(
                    p, u, w, bound, cap)
            words, complete = congruence_closure(p, u, len(u) + 2, cap)
            parent, ref_complete, _ = reference_search(p, bytes(u), len(u) + 2, cap)
            assert (words, complete) == (frozenset(map(tuple, parent)), ref_complete)
            for x in list(words)[:8]:
                assert one_step_related(p, u, x) == any(
                    u[:i] + tuple(rhs) + u[i + len(lhs):] == x
                    for i, lhs, rhs in reference_sites(bytes(u), reference_subs(p)))


def letter_keeping_presentation(rng):
    """2-4 generators; each right-hand side uses exactly its left-hand
    side's letters, sometimes containing the left-hand side (x -> x x)."""
    n = rng.randint(2, 4)
    rels = []
    for _ in range(rng.randint(1, 4)):
        lhs = tuple(rng.randint(1, n) for _ in range(rng.randint(1, 3)))
        extra = [rng.choice(lhs) for _ in range(rng.randint(0, 2))]
        if rng.random() < 0.4:
            rhs = lhs + tuple(extra or lhs[:1])
        else:
            rhs = list(lhs) + extra
            rng.shuffle(rhs)
        rels.append((lhs, tuple(rhs)))
    return Presentation(n, tuple(rels))


def rank2_idempotent_presentation(k, l):
    """The two-idempotent presentations the rank-2 class counts search."""
    a, b = alternating(1, 2, k), alternating(2, 1, l)
    return Presentation(2, (((1, 1), (1,)), ((2, 2), (2,)),
                            (a, alternating(1, 2, k + 1)), (a, b),
                            (b, alternating(2, 1, l + 1))))


def settled_presentations(rng):
    yield from (ci_presentation(chain_ci_matrix(n)) for n in range(2, 6))
    yield from (rank2_idempotent_presentation(k, l) for k in range(2, 7)
                for l in (k - 1, k, k + 1) if l >= 2)
    yield from (letter_keeping_presentation(rng) for _ in range(100))


@pytest.mark.parametrize("seed", range(2))
def test_settled_verdicts_match_reference_search(seed):
    rng = random.Random(seed)
    settled = 0
    for p in settled_presentations(rng):
        assert p.pumps is not None
        for _ in range(8):
            u, v = (), ()
            while set(u) == set(v):
                u, v = (tuple(rng.randint(1, p.generators) for _ in range(rng.randint(0, 6)))
                        for _ in range(2))
            for cap in (1, 5, 2000):
                for max_len in (max(len(u), len(v)), len(u) + len(v) + 2):
                    verdict = bfs_equal(p, u, v, max_len, cap)
                    assert (verdict.status, verdict.witness) == reference_bfs_equal(
                        p, u, v, max_len, cap), (p, u, v, max_len, cap)
                    settled += verdict.states_explored == 0
    assert settled > 200


def quotient_presentations():
    for n in range(2, 6):
        yield ci_presentation(chain_ci_matrix(n))
        yield ai_presentation(chain_ci_matrix(n))
    yield from (rank2_idempotent_presentation(k, l) for k in range(2, 7)
                for l in (k - 1, k, k + 1) if l >= 2)
    yield cube_presentation()


def same_letters_pair(rng, p):
    """u of length 1-7, half the time around one of p's pumps, and v != u
    over exactly u's letters."""
    u = tuple(rng.randint(1, p.generators) for _ in range(rng.randint(1, 4)))
    if p.pumps and rng.random() < 0.5:
        i = rng.randint(0, len(u))
        u = u[:i] + tuple(rng.choice(p.pumps))[:7 - len(u)] + u[i:]
    letters = sorted(set(u))
    v = u
    while v == u:
        v = letters + [rng.choice(letters) for _ in range(rng.randint(0, 4))]
        rng.shuffle(v)
        v = tuple(v)
    return u, v


# how many calls of the test below each seed settles without a search
QUOTIENT_SETTLED = {0: 720, 1: 570}


@pytest.mark.parametrize("seed", range(2))
def test_quotient_settled_verdicts_match_reference_search(seed):
    rng = random.Random(seed)
    settled = 0
    for p in quotient_presentations():
        assert p.pumps
        for _ in range(10):
            u, v = same_letters_pair(rng, p)
            for cap in (1, 5, 2000):
                for max_len in (max(len(u), len(v)), len(u) + len(v) + 2):
                    verdict = bfs_equal(p, u, v, max_len, cap)
                    assert (verdict.status, verdict.witness) == reference_bfs_equal(
                        p, u, v, max_len, cap), (p, u, v, max_len, cap)
                    settled += verdict.states_explored == 0
    assert settled == QUOTIENT_SETTLED[seed]


def power_presentation(rng):
    """random_presentation's relations plus one to three relations between
    powers of letters, x^m = x^k (1 <= m != k <= 3), and one in four of
    them x^m = y^k with y != x, whose sites in one run of x give different
    words."""
    p = random_presentation(rng)
    n, rels = p.generators, list(p.relations)
    for _ in range(rng.randint(1, 3)):
        x = rng.randint(1, n)
        y = x if rng.random() < 0.75 else rng.choice([z for z in range(1, n + 1) if z != x])
        m, k = rng.sample(range(1, 4), 2)
        rels.insert(rng.randint(0, len(rels)), ((x,) * m, (y,) * k))
    return Presentation(n, tuple(rels))


def run_word(rng, n):
    """One to four runs of a random letter, each of length 1-4."""
    return sum(((rng.randint(1, n),) * rng.randint(1, 4) for _ in range(rng.randint(1, 4))), ())


@pytest.mark.parametrize("seed", range(2))
def test_search_skips_match_reference_search(seed):
    # the search builds no neighbour past max_len and one per run of x for
    # x^m -> x^k; words at exactly max_len and runs of length >= 3 are
    # where a wrong skip would show
    rng = random.Random(seed)
    presentations = [power_presentation(rng) for _ in range(25)]
    presentations += [ci_presentation(chain_ci_matrix(n)) for n in range(2, 5)]
    searched = 0
    for p in presentations:
        for _ in range(4):
            u = run_word(rng, p.generators)
            v = (random_rewrite(p, u, rng, rng.randint(1, 4)) if rng.random() < 0.5
                 else run_word(rng, p.generators))
            for cap, extra in product((1, 2, 5, 2000), range(3)):
                max_len = max(len(u), len(v)) + extra
                verdict = bfs_equal(p, u, v, max_len, cap)
                expected = reference_bfs_equal(p, u, v, max_len, cap)
                assert (verdict.status, verdict.witness) == expected, (p, u, v, max_len, cap)
                if verdict.states_explored:
                    parent, _, _ = reference_search(p, bytes(u), max_len, cap, bytes(v))
                    assert verdict.states_explored == len(parent), (p, u, v, max_len, cap)
                    searched += 1
                words, complete = congruence_closure(p, u, len(u) + extra, cap)
                parent, ref_complete, _ = reference_search(p, bytes(u), len(u) + extra, cap)
                assert (words, complete) == (frozenset(map(tuple, parent)), ref_complete)
    assert searched > 1000
    # the oracle workload's closures: rank 3, length cap 12, 5,000 states
    p = ci_presentation(chain_ci_matrix(3))
    forms = sorted({m_reduce(w) for k in range(6) for w in product((1, 2, 3), repeat=k)},
                   key=lambda w: (len(w), w))
    for start in forms[seed::len(forms) // 8][:8]:
        words, complete = congruence_closure(p, start, 12, 5000)
        parent, ref_complete, _ = reference_search(p, bytes(start), 12, 5000)
        assert (words, complete) == (frozenset(map(tuple, parent)), ref_complete), start


# ---------------------------------------------------------------------------
# critical pairs


def reference_a_pairs(n, E):
    """A's one-letter overlap families b-d as hand-written loops."""
    out = []
    for c in range(4, n + 1):
        for a in range(3, c):
            for b in range(2, a):
                for rexp in _exponent_vectors(b, E):
                    s = ((a - 1,) * (rexp[0] - 1) + _blocks(a - 2, a - b, rexp[1:])
                         + descending_run(a, a - b))
                    out.append(("b", (c,), (a - 1,), s))
    for a in range(5, n + 2):
        for b in range(2, a - 2):
            for rexp in _exponent_vectors(b, E):
                q = _blocks(a - 1, a - b, rexp) + descending_run(a, a - b + 1)
                for c in range(1, a - b - 1):
                    out.append(("c", q, (a - b,), (c,)))
    for a in range(5, n + 1):
        for b in range(3, a - 1):
            for c in range(1, b - 1):
                out.append(("d", (a,), (b,), (c,)))
    return out


def reference_m_pairs(n, L):
    """M's one-letter overlap families a-e and g-i as hand-written loops."""
    out = []
    for a in range(5, n + 1):
        for b in range(3, a - 1):
            for c in range(1, b - 1):
                out.append(("a", (a,), (b,), (c,)))
    for c in range(1, n - 1):
        for b in range(c + 1, n):
            for a in range(b + 1, n + 1):
                s = descending_run(b - 1, c) + descending_run(b, c)
                out.append(("b", (a,), (b - 1,), s))
    for c in range(1, n - 1):
        for b in range(c + 2, n + 1):
            for a in range(b + 1, n + 2):
                q = descending_run(a, b) + descending_run(a, b + 1)
                out.append(("c", q, (b,), (c,)))
    for a in range(1, n):
        for b in range(a + 1, n + 1):
            for assign in _interleave_assignments(a + 1, b, n, L):
                stairs = _stair_segments(a + 1, b, assign)
                for c in range(a + 2, n + 1):
                    out.append(("d", (c,), (a,), stairs + (b,)))
                for c in range(1, b - 1):
                    out.append(("e", (a,) + stairs, (b,), (c,)))
                for c in range(a + 1, n + 2):
                    q = descending_run(c, a) + descending_run(c, a + 1)
                    out.append(("g", q, (a,), stairs + (b,)))
                for c in range(1, b + 1):
                    s = descending_run(b, c) + descending_run(b + 1, c)
                    out.append(("h", (a,) + stairs, (b,), s))
    for a in range(1, n - 1):
        for b in range(a + 1, n):
            for c in range(b + 1, n + 1):
                for assign in _interleave_assignments(a + 1, c, n, L):
                    q = (a,) + _stair_segments(a + 1, b, assign)
                    s = _stair_segments(b + 1, c, assign) + (c,)
                    out.append(("i", q, (b,), s))
    return out


def by_family(triples):
    out = {}
    for family, q, r, s in triples:
        out.setdefault(family, Counter())[(q, r, s)] += 1
    return out


DERIVED = {
    "A": (a_critical_pairs, reference_a_pairs, "bcd",
          [(n, E) for n in range(1, 7) for E in (1, 2, 3)]),
    "M": (m_critical_pairs, reference_m_pairs, "abcdeghi",
          [(n, L) for n in range(1, 6) for L in (0, 1)] + [(4, 2)]),
}


@pytest.mark.parametrize("system", sorted(DERIVED))
def test_derived_critical_pairs_match_hand_written_families(system):
    pairs, reference, families, sizes = DERIVED[system]
    for n, cap in sizes:
        derived = by_family((t.family, t.q, t.r, t.s) for t in pairs(n, cap)
                            if t.family in families)
        assert derived == by_family(reference(n, cap)), (n, cap)


@pytest.mark.parametrize("system", sorted(DERIVED))
def test_a_corrupted_rule_list_is_refused(system, monkeypatch):
    pairs = DERIVED[system][0]
    module = rewrite_a if system == "A" else rewrite_m
    with monkeypatch.context() as patch:
        # a non-rule in the commutation list, which only derived families use
        commutations = rewrite.commutations
        patch.setattr(rewrite, "commutations", lambda n: [(1, 2)] + commutations(n))
        with pytest.raises(ValueError, match="not a rule left-hand side"):
            pairs(4, 1)
    # every run one letter too long
    run = module.descending_run
    monkeypatch.setattr(module, "descending_run", lambda a, b: run(a, b) + (1,))
    with pytest.raises(ValueError, match="not a rule left-hand side"):
        pairs(4, 1)


def a_rule_lefts(n, E):
    """Every left-hand side of A with letters <= n and exponents <= E."""
    lefts = [(a, b) for a in range(3, n + 1) for b in range(1, a - 1)]
    for a in range(3, n + 2):
        for b in range(2, a):
            for exps in product(range(1, E + 1), repeat=b):
                blocks = sum(((a - 1 - i,) * e for i, e in enumerate(exps)), ())
                lefts.append(blocks + descending_run(a, a - b))
    return lefts


def m_rule_lefts(n, L):
    """Every left-hand side of M with letters <= n and stretches <= L."""
    def words(letters):
        return [w for k in range(L + 1) for w in product(letters, repeat=k)]
    lefts = [(a, b) for a in range(3, n + 1) for b in range(1, a - 1)]
    lefts += [descending_run(a, b) * 2 for a in range(2, n + 2) for b in range(1, a)]
    for a in range(1, n):
        for b in range(a + 1, n + 1):
            stairs = [[y + (i, i - 1) + z for y in words(range(i + 1, n + 1))
                       for z in words(range(1, i - 1))] for i in range(a + 1, b + 1)]
            lefts += [(a,) + sum(combo, ()) + (b,) for combo in product(*stairs)]
    return lefts


BOUNDED_RULES = {
    # the rules at bounds (rank, cap) and the counts of (proper overlaps,
    # rules inside another, overlaps listed by the audit)
    "A": (a_match_at, a_apply, a_reduce, a_rule_lefts, a_critical_pairs,
          (5, 2), (1609, 52, 825)),
    "M": (m_match_at, m_apply, m_reduce, m_rule_lefts, m_critical_pairs,
          (4, 1), (1781, 42, 1057)),
}


@pytest.mark.parametrize("system", sorted(BOUNDED_RULES))
def test_every_overlap_of_the_bounded_rule_lists_joins(system):
    match_at, apply_fn, reduce_fn, rule_lefts, pairs, bounds, counts = BOUNDED_RULES[system]
    lefts = rule_lefts(*bounds)
    rhs = {l: apply_fn(l, rewrite.full_span(match_at, l)) for l in lefts}
    overlaps, inside = set(), []
    for l1, l2 in product(lefts, repeat=2):
        for k in range(1, min(len(l1), len(l2))):
            if l1[-k:] == l2[:k]:
                overlaps.add((l1[:-k], l1[-k:], l2[k:]))
        if l1 != l2:
            inside += [(l1, p, l2) for p in range(len(l1) - len(l2) + 1)
                       if l1[p:p + len(l2)] == l2]
    listed = {(t.q, t.r, t.s) for t in pairs(*bounds)}
    assert listed <= overlaps
    assert (len(overlaps), len(inside), len(listed)) == counts
    for q, r, s in overlaps:
        assert reduce_fn(rhs[q + r] + s) == reduce_fn(q + rhs[r + s]), (q, r, s)
    for l1, p, l2 in inside:
        assert reduce_fn(rhs[l1]) == reduce_fn(
            l1[:p] + rhs[l2] + l1[p + len(l2):]), (l1, p, l2)


def reference_a_family_a(n, E):
    """A's family a, two block deletions sharing the run piece (x_c, x_b],
    as the hand-written loop."""
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
                            out.append(("a", q, r, s))
    return out


def reference_m_families_f_j(n, L):
    """M's families f, two square runs sharing a run, and j, two staircases
    overlapping in a descent pair, as the hand-written loops."""
    out = []
    for d in range(1, n + 1):
        for b in range(d, n + 1):
            for c in range(b + 1, n + 2):
                for a in range(c, n + 2):
                    q = descending_run(a, b) + descending_run(a, c)
                    r = descending_run(c, b)
                    s = descending_run(b, d) + descending_run(c, d)
                    out.append(("f", q, r, s))
    for a in range(1, n):
        for b in range(a + 1, n + 1):
            for c in range(b, n + 1):
                for assign in _interleave_assignments(a + 1, c, n, L):
                    yb, zb = assign[b]
                    q = ((a,) + _stair_segments(a + 1, b - 1, assign)
                         + tuple(yb) + (b,))
                    s = ((b - 1,) + tuple(zb)
                         + _stair_segments(b + 1, c, assign) + (c,))
                    out.append(("j", q, (b - 1, b), s))
    return out


SLICED = {
    "A": (a_critical_pairs, reference_a_family_a, "a", DERIVED["A"][3]),
    "M": (m_critical_pairs, reference_m_families_f_j, "fj", DERIVED["M"][3]),
}


@pytest.mark.parametrize("system", sorted(SLICED))
def test_overlap_slices_match_hand_written_families(system):
    pairs, reference, families, sizes = SLICED[system]
    for n, cap in sizes:
        derived = by_family((t.family, t.q, t.r, t.s) for t in pairs(n, cap)
                            if t.family in families)
        assert derived == by_family(reference(n, cap)), (n, cap)


def reference_confluence_audit(triples, match_at, apply_fn, reduce_fn,
                               n, random_words, seed):
    """The audit as it was before it rewrote each left-hand side and each
    random word's reducts once: every triple and every pair afresh."""
    failures = []
    by_family = {}
    checked = 0
    for t in triples:
        qr, rs = t.q + t.r, t.r + t.s
        v = apply_fn(qr, rewrite.full_span(match_at, qr)) + t.s
        w = t.q + apply_fn(rs, rewrite.full_span(match_at, rs))
        checked += 1
        by_family[t.family] = by_family.get(t.family, 0) + 1
        if reduce_fn(v) != reduce_fn(w):
            failures.append((t.q + t.r + t.s, v, w))
    rng = random.Random(seed)
    for _ in range(random_words):
        w0 = random_word(rng, n, 12, 2)
        ms = rewrite.matches(match_at, w0)
        for x in range(len(ms)):
            for y in range(x + 1, len(ms)):
                if ms[x].end <= ms[y].start:
                    v = apply_fn(w0, ms[x])
                    w = apply_fn(w0, ms[y])
                    checked += 1
                    by_family["disjoint"] = by_family.get("disjoint", 0) + 1
                    if reduce_fn(v) != reduce_fn(w):
                        failures.append((w0, v, w))
    return checked, failures, {"pairs_checked": checked, "by_family": by_family}


def without_commute_sort():
    """A normalizer that applies only deletions (a negative control): the
    driver's commute_sort moves nothing."""
    return mock.patch.object(rewrite, "commute_sort", lambda w: 0)


AUDITS = {
    "A": (rewrite_a.a_confluence_audit, a_critical_pairs, a_match_at, a_apply,
          a_reduce, [(n, E) for n in (3, 4, 5) for E in (1, 2)]),
    "M": (rewrite_m.m_confluence_audit, m_critical_pairs, m_match_at, m_apply,
          m_reduce, [(n, L) for n in (3, 4) for L in (0, 1)]),
}

#: system -> the scanner its audit passes to the driver
SCANS = {"A": rewrite_a._scan_run, "M": rewrite_m._scan_run}


@pytest.mark.parametrize("system", sorted(AUDITS))
def test_confluence_audit_matches_the_per_pair_reference(system):
    audit, pairs, match_at, apply_fn, reduce_fn, sizes = AUDITS[system]
    for (n, cap), seed in product(sizes, range(3)):
        # the crippled normalizer gets fewer random words, to keep the test short
        for crippled, samples in ((False, 200), (True, 40)):
            with without_commute_sort() if crippled else nullcontext():
                rep = audit(n, cap, samples, seed)
                expected = reference_confluence_audit(
                    pairs(n, cap), match_at, apply_fn, reduce_fn, n, samples, seed)
            assert (rep.checks_run, rep.failures, rep.details) == expected, (n, cap, seed)
    with without_commute_sort():
        assert not audit(4, 1, 20, 0).ok


@pytest.mark.parametrize("system", sorted(AUDITS))
def test_confluence_audit_rewrites_each_word_once(system, monkeypatch):
    _, pairs, match_at, _, reduce_fn, sizes = AUDITS[system]
    n, cap = sizes[-1]
    triples = pairs(n, cap)
    log = []

    def parse(match_at, w):
        log.append(("full_span", w))
        return full_span(match_at, w)

    def rewrite_once(w, m):
        v = rewrite_match(w, m)
        log.append(("apply", (w, m), v))
        return v

    def reduce(scan, w):
        log.append(("reduce", w))
        return reduce_steps(scan, w)

    def draw(*args):
        w = random_word(*args)
        log.append(("word", w))
        return w

    full_span = rewrite.full_span
    reduce_steps = rewrite.reduce_steps
    random_word = rewrite.random_word
    rewrite_match = rewrite._rewrite
    monkeypatch.setattr(rewrite, "full_span", parse)
    monkeypatch.setattr(rewrite, "reduce_steps", reduce)
    monkeypatch.setattr(rewrite, "random_word", draw)
    monkeypatch.setattr(rewrite, "_rewrite", rewrite_once)
    rep = rewrite.confluence_audit(triples, match_at, SCANS[system], n, 200, 7)
    assert rep.ok
    first_word = next(k for k, e in enumerate(log) if e[0] == "word")
    lefts = {t.q + t.r for t in triples} | {t.r + t.s for t in triples}
    parsed = Counter(e[1] for e in log[:first_word] if e[0] == "full_span")
    assert set(parsed) == lefts and set(parsed.values()) == {1}
    # the triples are joined in lockstep: none reaches reduce_steps
    assert not [e for e in log[:first_word] if e[0] == "reduce"]
    # within one random word, each match is rewritten and its reduct
    # reduced at most once
    words = [k for k, e in enumerate(log) if e[0] == "word"] + [len(log)]
    disjoint = 0
    for lo, hi in zip(words, words[1:]):
        applied = Counter(e[1] for e in log[lo:hi] if e[0] == "apply")
        assert set(applied.values()) <= {1}
        assert (Counter(e[2] for e in log[lo:hi] if e[0] == "apply")
                == Counter(e[1] for e in log[lo:hi] if e[0] == "reduce"))
        disjoint += bool(applied)
    assert disjoint > 0


@pytest.mark.parametrize("system", sorted(AUDITS))
def test_neither_audit_calls_apply(system, monkeypatch):
    # the audit rewrites each match it parsed; apply would parse it again
    def refuse(*args):
        raise AssertionError("a parsed match went through rewrite.apply")
    monkeypatch.setattr(rewrite, "apply", refuse)
    rep = AUDITS[system][0](4, 1, 50, 0)
    assert rep.ok and rep.by_family["disjoint"] > 0


@pytest.mark.parametrize("system, bounds", [("A", (5, 2)), ("M", (4, 1))])
def test_critical_pairs_build_only_the_triples_they_return(system, bounds, monkeypatch):
    built = []
    triple = rewrite.CriticalTriple
    monkeypatch.setattr(rewrite, "CriticalTriple",
                        lambda *args: built.append(args) or triple(*args))
    triples = AUDITS[system][1](*bounds)
    assert len(built) == len(triples)


def test_a_critical_pairs_equal_the_filtered_overlap_list():
    # family a indexes only the splits it keeps: the list is the one that
    # built every (F, F) overlap and dropped those with s[0] == r[-1]
    overlaps = rewrite.overlaps
    for n, E in [(n, E) for n in range(1, 7) for E in (1, 2)] + [(5, 3)]:
        C = rewrite.commutations(n)
        F = a_rule_lefts(n, E)[len(C):]
        filtered = ([t for t in overlaps("a", F, F) if t.s[0] != t.r[-1]]
                    + overlaps("b", C, F, 1) + overlaps("c", F, C, 1)
                    + overlaps("d", C, C, 1))
        assert a_critical_pairs(n, E) == filtered, (n, E)


@pytest.mark.parametrize("k", [0, -1, True, 1.5, "1"])
def test_overlaps_refuse_a_length_that_is_not_a_positive_int(k):
    with pytest.raises(ValueError, match="^k must be "):
        rewrite.overlaps("x", [(3, 1)], [(1, 2)], k)


@pytest.mark.parametrize("system, n, cap", [("A", 6, 2), ("M", 5, 1)])
def test_default_audit_matches_the_reference_beyond_rank_4(system, n, cap):
    # the default audit joins each triple in lockstep; the reference
    # reduces both of its words
    audit, pairs, match_at, apply_fn, reduce_fn, _ = AUDITS[system]
    rep = audit(n, cap, 200, 0)
    expected = reference_confluence_audit(pairs(n, cap), match_at, apply_fn,
                                          reduce_fn, n, 200, 0)
    assert (rep.checks_run, rep.failures, rep.details) == expected


def test_reducing_in_a_first_keeps_the_m_normal_form():
    # ai_presentation's relations are a subset of ci_presentation's, so a
    # word and its A normal form are equal in M
    rng = random.Random(7)
    for _ in range(4000):
        rank, length = rng.randint(1, 8), rng.randint(0, 60)
        w = tuple(rng.randint(1, rank) for _ in range(length))
        assert m_reduce(a_reduce(w)) == m_reduce(w), w
