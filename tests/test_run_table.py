"""Both systems' scanners cross descending runs in one step, from the reduction's run table.

`rewrite._round` hands the scanner a table whose entry k is a lower bound
on the length of the descending run from k.  At every start and stop each
scanner must give exactly what its scan that reads letter by letter gives
(copies of both are kept here), with the exact table, an all-ones table
or any lower bound.  A reduction builds its table once: every round must
start on `run_lengths` of its list, every scanner call must get exactly
`run_lengths` of its list or the shared all-ones table `rewrite._ONES`,
and `run_lengths` may run again only after a round that left the exact
path: at a deletion at or before one of its cuts, at one that passes
1/16 of its letters, or at a sort that took the stack.  Such a round
must switch from the exact table to the all-ones one at that deletion,
and no round of the benchmark's ops takes the exit at a cut.  A and M
reductions of the benchmark's ops must keep their normal form, steps,
commute_sort calls and scanner calls.
`rewrite.equal` also meets pairs whose second word lags the first by one
round.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_differential import descending_word, sweep_words

from aimonoids import rewrite, rewrite_a, rewrite_m, words
from aimonoids.rewrite import run_lengths
from aimonoids.rewrite_m import _scan_run, m_equal, m_reduce_steps
from aimonoids.words import commute_sort, descending_run


def letter_scan(w, i, stop):
    """rewrite_m._scan_run as it was before the run table: every stretch
    and run is read one letter at a time."""
    n = len(w)
    while i < stop:
        if i + 1 >= n:
            return n
        x = w[i]
        d = w[i + 1] - x
        if d >= 1:
            j = i + 1
            seg = x + 1
            while True:
                while j < n and w[j] > seg:
                    j += 1
                if j + 1 >= n or w[j] != seg or w[j + 1] != seg - 1:
                    break
                j += 2
                while j < n and w[j] <= seg - 2:
                    j += 1
                if j >= n or w[j] < seg:
                    break
                if w[j] == seg:
                    return i, j, j + 1
                seg += 1
            i += 1
        elif d >= -1:
            run = 1
            while i + run < n and w[i + run] == x - run:
                run += 1
            j = i + run
            if j >= n:
                return n
            if w[j:j + run] == w[i:j]:
                return i, i, i + 1
            p = i + x - w[j]
            i = p if i < p < j - 1 else j - 1
        else:
            i += 1
    return i


def a_letter_scan(w, i, stop):
    """rewrite_a._scan_run as it was before it read the run table: the
    block chain is read one block at a time, the run one letter at a
    time."""
    n = len(w)
    while i < stop:
        if i + 4 > n:
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
                    return i, i, w.index(h - 1, i)
        i = w.index(v, i) if cur < v < h else j
    return i


#: each system's module, its scanner's letter-by-letter reference and its
#: reduction
SYSTEMS = {
    "A": (rewrite_a, a_letter_scan, rewrite_a.a_reduce_steps),
    "M": (rewrite_m, letter_scan, m_reduce_steps),
}


def letter_reduce(word, scan=letter_scan):
    """(normal form, steps, commute_sort calls, scanner calls) of the
    reduction by the letter-by-letter scan, in the rounds of
    `rewrite._round`."""
    w = list(word)
    steps, sorts, scans = commute_sort(w), 1, 0
    while True:
        deleted = 0
        s = scan(w, 0, len(w))
        scans += 1
        while s.__class__ is not int:
            del w[s[1]:s[2]]
            deleted += 1
            s = scan(w, s[0], len(w))
            scans += 1
        if not deleted:
            return tuple(w), steps, sorts, scans
        steps += deleted + commute_sort(w)
        sorts += 1


def exact_runs(w):
    """The run table of w, read one run at a time from each position."""
    out = []
    for k in range(len(w)):
        r = 1
        while k + r < len(w) and w[k + r] == w[k] - r:
            r += 1
        out.append(r)
    return out


def letters(rng, rank, length):
    """A word of `length` letters drawn uniformly from 1..rank."""
    return tuple(rng.randint(1, rank) for _ in range(length))


# a scan at every start and stop of a word costs its length squared
SCAN_LEN = 60


def cut(rng, w):
    """w commute-sorted, less 0-4 letters at random: a list as a round
    scans it after its deletions."""
    w = list(w)
    commute_sort(w)
    for _ in range(min(len(w), rng.randint(0, 4))):
        del w[rng.randrange(len(w))]
    return w


def test_run_lengths_is_the_run_table():
    rng = random.Random(3)
    words = [(), (1,), (2, 1), (1, 2), (3, 2, 1, 3, 2, 1, 2), descending_word(120),
             descending_word(97, 7)]
    words += [letters(rng, rank, rng.randint(0, 200)) for rank in (2, 6, 20)
              for _ in range(20)]
    for w in words:
        assert run_lengths(list(w)) == exact_runs(w)


def scans_alike(scan, reference, w, seed):
    """scan with the exact, the all-ones and a random lower-bound table
    gives what reference gives, at every start and stop of w and of a
    copy cut by `cut`."""
    rng = random.Random(seed)
    for word in (list(w), cut(rng, w)):
        exact = exact_runs(word)
        tables = (exact, [1] * len(word), [rng.randint(1, r) for r in exact])
        for i in range(len(word) + 1):
            for stop in range(i, len(word) + 1):
                expected = reference(word, i, stop)
                for table in tables:
                    assert scan(word, table, i, stop) == expected, (i, stop, table)


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(w=sweep_words().map(lambda w: w[:SCAN_LEN]), seed=st.integers(0, 2**32 - 1))
@example(w=descending_word(SCAN_LEN), seed=0)
@example(w=descending_word(SCAN_LEN, 7), seed=1)
def test_the_table_scan_is_the_letter_scan_at_every_start_and_stop(w, seed):
    scans_alike(_scan_run, letter_scan, w, seed)


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(w=sweep_words().map(lambda w: w[:SCAN_LEN]), seed=st.integers(0, 2**32 - 1))
@example(w=descending_word(SCAN_LEN), seed=0)
@example(w=descending_word(SCAN_LEN, 7), seed=1)
# block chains whose blocks lie on descending runs, followed by their
# run (x_a, x_{a-b}] whole or cut short
@example(w=(7, 6, 5, 4, 3, 2) * 3 + (6, 5, 4, 4, 3, 3, 7, 6, 5, 4, 3), seed=2)
@example(w=(9, 8, 8, 7, 6, 5, 4, 9, 8, 7, 6, 5, 3, 9, 8, 7, 6, 5, 4), seed=3)
def test_a_table_scan_is_the_letter_scan_at_every_start_and_stop(w, seed):
    scans_alike(rewrite_a._scan_run, a_letter_scan, w, seed)


def table_read(w, runs):
    """Which table a scanner call on w got: "ones" for the shared
    all-ones table, "exact" for run_lengths of w; any other fails."""
    if runs is rewrite._ONES:
        assert len(runs) >= len(w) and set(runs) == {1}
        return "ones"
    assert runs == run_lengths(w)
    return "exact"


def checking_scan(seen, scan_run):
    """scan_run, after checking that the round's table is run_lengths of
    the list or the all-ones table; counts the calls that got each in
    `seen`."""
    def scan(w, runs, i, stop):
        seen[table_read(w, runs)] += 1
        return scan_run(w, runs, i, stop)
    return scan


def test_the_round_keeps_its_table_a_lower_bound_through_every_deletion():
    rng = random.Random(11)
    descending = [descending_word(length) for length in (200, 400, 800, 1600)]
    descending += [descending_word(length, 49) for length in (250, 900)]
    randoms = [letters(rng, rank, length) for rank in (6, 20)
               for length in (64, 100, 400, 1600)]
    for system, (module, _, reduce_steps) in SYSTEMS.items():
        seen = {}
        for family, words in (("descending", descending), ("random", randoms)):
            seen[family] = {"exact": 0, "ones": 0}
            for w in words:
                scan = checking_scan(seen[family], module._scan_run)
                assert rewrite.reduce_steps(scan, w) == reduce_steps(w), system
        # no descending round passes 1/16 or shrinks below RUN_TABLE_MIN,
        # so each call reads the exact table, kept through every deletion
        assert seen["descending"] == {"exact": 813, "ones": 0}, (system, seen)
        # the random words' long rounds read the exact table, their short
        # and dense ones the all-ones table
        assert min(seen["random"].values()) > 0, (system, seen)


@pytest.mark.parametrize("system", ["A", "M"])
def test_a_dense_round_switches_to_the_all_ones_table(system, monkeypatch):
    module = SYSTEMS[system][0]
    scan_run = module._scan_run
    w = list(letters(random.Random(23), 6, 1600))
    commute_sort(w)
    n = len(w)
    reads, sorts = [], []

    def scan(w, runs, i, stop):
        reads.append((n - len(w), table_read(w, runs)))
        return scan_run(w, runs, i, stop)

    def sort(w, *args):
        sorts.append(args)
        return commute_sort(w, *args)

    monkeypatch.setattr(rewrite, "commute_sort", sort)
    runs = []
    assert rewrite._round(scan, w, runs) > 0
    # the exact table until the deletions pass 1/16 of the letters, then
    # the all-ones table for the rest of the round
    assert reads[-1][0] > n >> 4
    assert [read for _, read in reads] == [
        "exact" if deleted <= n >> 4 else "ones" for deleted, _ in reads]
    assert sorts == [()] and runs == []
    # the next round starts on the table it rebuilds
    del reads[:]
    rewrite._round(scan, w, runs)
    assert reads[0][1] == "exact"


def test_a_deletion_at_or_before_a_cut_leaves_the_exact_path(monkeypatch):
    # a scripted scanner: its first deletion joins 44 and 42 into a descent,
    # a cut at 8, and its second deletion lands before that cut, at 6
    w = list(descending_word(200))
    commute_sort(w)
    assert w[6:10] == [45, 44, 43, 42]
    script = iter([(5, 8, 9), (5, 6, 7), 198])
    reads, sorts = [], []

    def scan(w, runs, i, stop):
        reads.append(table_read(w, runs))
        return next(script)

    def sort(w, *args):
        sorts.append(args)
        return commute_sort(w, *args)

    monkeypatch.setattr(rewrite, "commute_sort", sort)
    after = w[:6] + w[7:8] + w[9:]
    expected = list(after)
    moves = commute_sort(expected)
    assert moves > 0
    runs = run_lengths(w)
    assert rewrite._round(scan, w, runs) == 2 + moves
    # the exact table up to the deletion at or before the cut, then the
    # all-ones table and the full pass, and an empty table
    assert reads == ["exact", "exact", "ones"]
    assert sorts[-1] == () and w == expected and runs == []
    # the next round starts on the table it builds
    reads.clear()
    script = iter([len(w)])
    assert rewrite._round(scan, w, runs) == 0
    assert reads == ["exact"] and runs == run_lengths(w)


def test_no_benchmark_round_deletes_at_or_before_a_cut(wordproblem_pool, monkeypatch):
    # every third op per system, kind and family in the seed-0 pool, both
    # words of the equal ops; each long round's scanner calls read the
    # exact table while its deletions are within n >> 4 letters, and the
    # all-ones table after, so no round leaves the exact path at a cut
    groups = {}
    for op in wordproblem_pool:
        groups.setdefault((op.kind, op.info["family"]), []).append(op)
    ops = [op for group in groups.values() for op in group[::3]]
    real_round = rewrite._round
    rounds = []

    def round_(scan, w, runs):
        rounds.append((len(w), []) if len(w) >= rewrite.RUN_TABLE_MIN else None)
        return real_round(scan, w, runs)

    def reading(scan_run):
        def scan(w, runs, i, stop):
            if rounds[-1] is not None:
                n, reads = rounds[-1]
                reads.append((n - len(w), table_read(w, runs)))
            return scan_run(w, runs, i, stop)
        return scan

    reduce = {"a": rewrite_a.a_reduce_steps, "m": m_reduce_steps}
    with monkeypatch.context() as m:
        m.setattr(rewrite, "_round", round_)
        for module in (rewrite_a, rewrite_m):
            m.setattr(module, "_scan_run", reading(module._scan_run))
        for op in ops:
            for w in op.args:
                reduce[op.kind[0]](w)
    seen = {"exact": 0, "ones": 0}
    for n, reads in filter(None, rounds):
        assert [read for _, read in reads] == [
            "exact" if deleted <= n >> 4 else "ones" for deleted, _ in reads], n
        for _, read in reads:
            seen[read] += 1
    assert min(seen.values()) > 0, seen


def test_the_all_ones_table_stays_all_ones(wordproblem_pool):
    reduce = {"a": rewrite_a.a_reduce_steps, "m": m_reduce_steps}
    for op in wordproblem_pool:
        for w in op.args:
            reduce[op.kind[0]](w)
    w = descending_word(3200)
    assert rewrite.scan_at(_scan_run, w, 0) == _scan_run(w, run_lengths(w), 0, 1)[1:]
    assert len(rewrite._ONES) >= max(3200, rewrite.RUN_TABLE_MIN)
    assert set(rewrite._ONES) == {1}


def kept_table_reduce(system, word, monkeypatch):
    """The system's reduce_steps of word, checking that each round starts
    on run_lengths of its list and that each scanner call gets
    run_lengths of its list or the all-ones table; (result, counts)
    with the counts of run_lengths calls ("built"), dense rounds (rounds
    on RUN_TABLE_MIN letters or more that sort by the full pass), sorts
    that took the stack and round starts checked."""
    module, _, reduce_steps = SYSTEMS[system]
    scan_run, real_round, stack_sort = module._scan_run, rewrite._round, words._stack_sort
    counts = {"built": 0, "dense": 0, "stack": 0, "starts": 0}
    state = {"fresh": False, "long": False}

    def round_(scan, w, runs):
        state["fresh"], state["long"] = True, len(w) >= rewrite.RUN_TABLE_MIN
        return real_round(scan, w, runs)

    def scan(w, runs, i, stop):
        read = table_read(w, runs)
        if state["fresh"] and state["long"]:
            assert read == "exact"
            counts["starts"] += 1
        state["fresh"] = False
        return scan_run(w, runs, i, stop)

    def sort(w, *args):
        counts["dense"] += state["long"] and not args
        return commute_sort(w, *args)

    def stack(*args):
        counts["stack"] += 1
        return stack_sort(*args)

    def built(w):
        counts["built"] += 1
        return run_lengths(w)

    with monkeypatch.context() as m:
        m.setattr(rewrite, "_round", round_)
        m.setattr(module, "_scan_run", scan)
        m.setattr(rewrite, "commute_sort", sort)
        m.setattr(words, "_stack_sort", stack)
        m.setattr(rewrite, "run_lengths", built)
        m.setattr(words, "run_lengths", built)
        result = reduce_steps(word)
    return result, counts


@pytest.mark.parametrize("system", ["A", "M"])
def test_a_reduction_keeps_one_exact_table(system, wordproblem_pool, monkeypatch):
    rng = random.Random(17)
    # the words of 64-1600 letters of every fourth reduce op of the system
    # in the seed-0 pool, and random, run-concatenated and descending words
    cases = [op.args[0] for op in wordproblem_pool
             if op.kind == system.lower() + "_reduce"][::4]
    cases = [w for w in cases if 64 <= len(w) <= 1600]
    for length in (64, 200, 1600):
        cases += [letters(rng, rank, length) for rank in (6, 20)]
        cases.append(sum((descending_run(a, 1) for a in
                           rng.choices(range(2, 40), k=length // 20)), ())[:length])
        cases += [descending_word(length), descending_word(length, 49)]
    totals = {"built": 0, "dense": 0, "stack": 0, "starts": 0}
    for w in cases:
        result, counts = kept_table_reduce(system, w, monkeypatch)
        assert result == SYSTEMS[system][2](w)
        # built once per reduction on a long word, and again only after a
        # dense round or a sort that took the stack
        assert counts["built"] <= (len(w) >= rewrite.RUN_TABLE_MIN) + counts["dense"] + \
            counts["stack"], (len(w), counts)
        for key in totals:
            totals[key] += counts[key]
    # most round starts read a kept table, not a rebuilt one
    assert totals["starts"] > 200 and totals["built"] < totals["starts"] / 2, totals


def counted_reduce(system, word, monkeypatch):
    """(normal form, steps, commute_sort calls, scanner calls) of the
    system's reduce_steps."""
    module, _, reduce_steps = SYSTEMS[system]
    scan_run = module._scan_run
    counts = [0, 0]

    def sort(w, *args):
        counts[0] += 1
        return commute_sort(w, *args)

    def scan(w, runs, i, stop):
        counts[1] += 1
        return scan_run(w, runs, i, stop)

    with monkeypatch.context() as m:
        m.setattr(rewrite, "commute_sort", sort)
        m.setattr(module, "_scan_run", scan)
        nf, steps = reduce_steps(word)
    return (nf, steps, *counts)


def reductions_are_those_of_the_letter_scan(system, family, pool, monkeypatch):
    # every third op of the system and family in the seed-0 pool, both
    # words of the equal ops; the descending words are the rank-50 ones
    ops = [op for op in pool
           if op.info["system"] == system and op.info["family"] == family][::3]
    words = [w for op in ops for w in op.args]
    assert len(words) > 20
    assert any(len(w) >= 1000 for w in words)
    reference = SYSTEMS[system][1]
    for w in words:
        assert counted_reduce(system, w, monkeypatch) == letter_reduce(w, reference), len(w)


@pytest.mark.parametrize("family", ["rank6", "rank20", "descending"])
def test_m_reductions_of_the_benchmark_ops_are_those_of_the_letter_scan(
        family, wordproblem_pool, monkeypatch):
    reductions_are_those_of_the_letter_scan("M", family, wordproblem_pool, monkeypatch)


@pytest.mark.parametrize("family", ["rank6", "rank20", "descending"])
def test_a_reductions_of_the_benchmark_ops_are_those_of_the_letter_scan(
        family, wordproblem_pool, monkeypatch):
    reductions_are_those_of_the_letter_scan("A", family, wordproblem_pool, monkeypatch)


def test_equal_meets_the_lagging_descending_pairs_of_the_benchmark(
        wordproblem_pool, monkeypatch):
    # the related M pairs of descending words, in the seed-0 pool: 4 of them
    # first share a list at rounds (i, i + 1) of (u, v), for i = 0, 2, 5
    # and 19, and each meets there, after 2 + 2 (i + 1) commute_sorts
    pairs = [op.args for op in wordproblem_pool if op.kind == "m_equal"
             and op.info["family"] == "descending" and op.info["related"]]
    assert len(pairs) == 16
    sorts = [0]

    def sort(w, *args):
        sorts[0] += 1
        return commute_sort(w, *args)
    monkeypatch.setattr(rewrite, "commute_sort", sort)
    assert all(m_equal(u, v) for u, v in pairs)
    lockstep = sorts[0]
    sorts[0] = 0
    for u, v in pairs:
        m_reduce_steps(u)
        m_reduce_steps(v)
    # the two full reductions make 528 commute_sorts; a lockstep that
    # compares only the current lists makes 474, 18 more
    assert (lockstep, sorts[0]) == (456, 528)
