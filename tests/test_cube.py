import re
from itertools import product

from aimonoids.cube import (COMPLETE, CUBE_RELATIONS, STEP_BUDGET_EXCEEDED,
                            ComplementTable, complement_table,
                            cube_condition_check, cube_presentation,
                            reverse, upper_bound_census)
from aimonoids.monoid_core import DISTINCT_WITHIN_BOUND, EQUAL, INCONCLUSIVE, \
    Presentation, bfs_equal
from aimonoids.monoid_core import ai_presentation, make_ci_matrix

import pytest

TABLE = complement_table(cube_presentation())
BRAID = Presentation(2, (((1, 2, 1), (2, 1, 2)),))


def test_table_entries():
    assert TABLE.complement(1, 2) == (2, 1)
    assert TABLE.complement(2, 1) == (1, 2)
    assert TABLE.complement(2, 3) == (3, 2)
    assert TABLE.complement(3, 2) == (2, 3, 2)
    assert TABLE.complement(1, 3) == (3,)
    assert TABLE.complement(3, 1) == (1,)
    for s in (1, 2, 3):
        assert TABLE.complement(s, s) == ()


def test_table_entries_recover_the_relations():
    for s in (1, 2, 3):
        for t in range(s + 1, 4):
            pair = {(s,) + TABLE.complement(s, t),
                    (t,) + TABLE.complement(t, s)}
            assert any(pair == {lhs, rhs} for lhs, rhs in CUBE_RELATIONS)


def test_reverse_worked_instances():
    out = reverse((2, 1), (3,), TABLE)
    assert out.complete and out.word == (3, 2, 1)
    assert out.steps == 3
    assert out.remainder == reverse((3,), (2, 1), TABLE).word

    out = reverse((1, 2), (3, 2), TABLE)
    assert out.complete and out.word == (3, 2, 1, 2)
    assert out.steps == 6


def test_reverse_trivial_and_budget():
    out = reverse((1, 2), (1, 2), TABLE)
    assert out.status == COMPLETE and out.word == () and out.remainder == ()

    out = reverse((1, 2), (3, 2), TABLE, budget=2)
    assert out.status == STEP_BUDGET_EXCEEDED and not out.complete
    assert out.word is None

    with pytest.raises(ValueError):
        reverse((1,), (2,), TABLE, budget=0)


def test_reverse_transpose_duality():
    words = [w for k in range(4) for w in product((1, 2, 3), repeat=k)]
    for u in words:
        for v in words:
            fwd = reverse(u, v, TABLE)
            bwd = reverse(v, u, TABLE)
            assert fwd.complete == bwd.complete
            if fwd.complete:
                assert fwd.remainder == bwd.word


def test_reverse_closes_common_multiples():
    # the search oracle confirms u (u\v) = v (v\u) whenever it can decide;
    # a handful of length-17 products outrun the state budget
    p = cube_presentation()
    words = [w for k in range(4) for w in product((1, 2, 3), repeat=k)]
    equal = 0
    for u in words:
        for v in words:
            a = u + reverse(u, v, TABLE).word
            b = v + reverse(v, u, TABLE).word
            cap = max(len(a), len(b)) + 4
            verdict = bfs_equal(p, a, b, max_len=cap, max_states=200_000)
            assert verdict.status != DISTINCT_WITHIN_BOUND
            if verdict.status == EQUAL:
                equal += 1
            else:
                assert max(len(a), len(b)) > 14
    assert equal >= 1580


def test_cube_condition_counterexample():
    rep = cube_condition_check(cube_presentation(), 1, 2, 3)
    assert rep.w1 == (3, 2, 1)
    assert rep.w2 == (3, 2, 1, 2)
    assert rep.verdict == DISTINCT_WITHIN_BOUND


def test_cube_condition_degenerate_triple():
    rep = cube_condition_check(BRAID, 1, 2, 2)
    assert rep.w1 == rep.w2 == ()
    assert rep.verdict == EQUAL


def test_cube_condition_regression_snapshot():
    rep = cube_condition_check(cube_presentation(), 1, 3, 2)
    assert rep.w1 == (2, 3, 2, 1, 2)
    assert rep.w2 == (2, 1, 3, 2, 1, 2)
    assert rep.verdict == INCONCLUSIVE


def test_census_default_bound():
    rep = upper_bound_census(cube_presentation())
    assert rep.ok
    assert rep.max_len == 9
    assert len(rep.first_class) == 7
    assert all(w == (3,) * (len(w) - 3) + (2, 3, 2) for w in rep.first_class)
    assert len(rep.second_class) == 50
    assert (2, 1, 2, 3, 2, 1) in rep.second_class
    assert not (rep.first_class & rep.second_class)
    assert rep.checks_run == 65


def test_census_larger_bound():
    rep = upper_bound_census(cube_presentation(), max_len=10)
    assert rep.ok
    assert len(rep.first_class) == 8
    assert len(rep.second_class) == 80


def test_census_needs_two_targets():
    with pytest.raises(ValueError):
        upper_bound_census(cube_presentation(), targets=((2, 3, 2),))


def test_non_complemented_presentations():
    double = Presentation(2, (((1, 2, 1), (2, 1, 2)), ((1, 2), (2, 1))))
    same_start = Presentation(2, (((1, 2), (1, 1, 2)),))
    empty_side = Presentation(2, (((1, 2), ()),))
    missing = Presentation(3, (((1, 2, 1), (2, 1, 2)),))
    for p in (double, same_start, empty_side, missing):
        with pytest.raises(ValueError, match="not complemented"):
            complement_table(p)


def test_complement_table_lookup_errors():
    with pytest.raises(ValueError):
        TABLE.complement(1, 4)


def test_reverse_refuses_letters_outside_the_table():
    for u, v in [((5,), (1,)), ((1,), (5,)), ((0,), (2,)), ((-1,), (3,))]:
        with pytest.raises(ValueError, match="no complement entry for"):
            reverse(u, v, TABLE)


def test_reverse_checks_every_letter_before_it_starts():
    # no reversal step meets these letters, yet they are still refused
    for u, v in [((), (0,)), ((5,), ())]:
        with pytest.raises(ValueError, match="no complement entry for"):
            reverse(u, v, TABLE)


@pytest.mark.parametrize("triple, message", [
    ((True, 2, 3), "letters must be positive integers, got True"),
    ((1, 2.0, 3), "letters must be positive integers, got 2.0"),
    ((1, 2, 0), "letters must be positive integers, got 0"),
    ((1, 4, 3), "letter 4 out of range for rank 3"),
])
def test_cube_condition_check_validates_its_triple(triple, message):
    with pytest.raises(ValueError, match=message):
        cube_condition_check(cube_presentation(), *triple)


def test_census_refuses_a_bound_below_a_target_before_searching(monkeypatch):
    import aimonoids.cube as cube_module

    def no_search(*args):
        raise AssertionError("the census searched")
    monkeypatch.setattr(cube_module, "congruence_closure", no_search)
    with pytest.raises(ValueError, match=re.escape(
            "census max_len 6 is below the length 7 of the target "
            "(3, 1, 2, 3, 2, 1, 2)")):
        upper_bound_census(cube_presentation(), max_len=6)
    with pytest.raises(ValueError, match=re.escape(
            "census max_len 2 is below the length 3 of the target (2, 3, 2)")):
        upper_bound_census(cube_presentation(), max_len=2)


def rescan_reverse(u, v, table, budget):
    """Reference: rescan from the start for the leftmost s^-1 t at each step."""
    for x in tuple(u) + tuple(v):
        table.complement(x, x)
    signed = [(x, -1) for x in reversed(u)] + [(y, 1) for y in v]
    steps = 0
    while True:
        spot = -1
        for i in range(len(signed) - 1):
            if signed[i][1] < 0 and signed[i + 1][1] > 0:
                spot = i
                break
        if spot < 0:
            word = tuple(x for x, sign in signed if sign > 0)
            remainder = tuple(x for x, sign in reversed(signed) if sign < 0)
            return COMPLETE, word, remainder, steps
        if steps >= budget:
            return STEP_BUDGET_EXCEEDED, None, None, steps
        steps += 1
        s, t = signed[spot][0], signed[spot + 1][0]
        patch = [(x, 1) for x in table.complement(s, t)]
        patch += [(x, -1) for x in reversed(table.complement(t, s))]
        signed[spot:spot + 2] = patch


AI3 = complement_table(ai_presentation(make_ci_matrix(3, default=3)))


@pytest.mark.parametrize("table", [TABLE, AI3], ids=["cube", "ai3"])
def test_one_pass_reverse_matches_the_rescanning_reference(table):
    words = [w for k in range(4) for w in product((1, 2, 3), repeat=k)]
    statuses = set()
    for u in words:
        for v in words:
            for budget in (1, 2, 7, 100):
                out = reverse(u, v, table, budget)
                got = (out.status, out.word, out.remainder, out.steps)
                assert got == rescan_reverse(u, v, table, budget), (u, v, budget)
                statuses.add(out.status)
    assert statuses == {COMPLETE, STEP_BUDGET_EXCEEDED}


def test_long_reversal_runs_out_at_its_budget():
    out = reverse((1,), (2, 3), AI3, budget=10_000)
    assert out.status == STEP_BUDGET_EXCEEDED and out.steps == 10_000


def test_a_second_relation_on_a_pair_is_refused_either_way_round():
    swapped = Presentation(2, (((1, 2, 1), (2, 1, 2)), ((2, 1), (1, 2))))
    with pytest.raises(ValueError, match="two relations on the pair 1, 2"):
        complement_table(swapped)


# ---------------------------------------------------------------------------
# failure branches under injected closures


def reference_census(first, first_class, second_class, max_len):
    """(checks, failures) of the census, one word at a time."""
    failures = []
    checks = 0
    expected = set()
    for k in range(max(0, max_len - len(first)) + 1):
        expected.add((3,) * k + first)
    for w in sorted(first_class):
        checks += 1
        if w not in expected:
            failures.append(("shape", w))
    for w in sorted(expected):
        checks += 1
        if w not in first_class:
            failures.append(("missing", w))
    for w in sorted(second_class):
        checks += 1
        if w[:len(first)] == first:
            failures.append(("prefix", w))
    checks += 1
    for w in sorted(first_class & second_class):
        failures.append(("overlap", w))
    return checks, failures


def inject_closures(monkeypatch, classes):
    import aimonoids.cube as cube_module
    monkeypatch.setattr(cube_module, "congruence_closure",
                        lambda p, start, max_len: (classes[tuple(start)], True))


def test_census_reports_each_kind_of_failure_in_order(monkeypatch):
    inject_closures(monkeypatch, {
        (2, 3, 2): frozenset({(2, 3, 2), (3, 2, 3, 2), (1, 2, 3, 2)}),
        (3, 1): frozenset({(2, 3, 2, 1), (1, 2, 3, 2), (3, 1)})})
    rep = upper_bound_census(cube_presentation(), ((2, 3, 2), (3, 1)), max_len=5)
    assert rep.failures == [("shape", (1, 2, 3, 2)), ("missing", (3, 3, 2, 3, 2)),
                            ("prefix", (2, 3, 2, 1)), ("overlap", (1, 2, 3, 2))]
    assert rep.checks_run == 10


def test_census_matches_its_per_word_loops_under_injected_closures(monkeypatch):
    import random
    from aimonoids.monoid_core import congruence_closure
    p = cube_presentation()
    first, second = (2, 3, 2), (3, 1, 2, 3, 2, 1, 2)
    rng = random.Random(0)
    kinds = set()
    failing = 0
    for max_len in (7, 8, 9, 10):
        true_first, _ = congruence_closure(p, first, max_len)
        true_second, _ = congruence_closure(p, second, max_len)
        for _ in range(45):
            a, b = set(true_first), set(true_second)
            for _ in range(rng.randint(0, 2)):
                a.discard(rng.choice(sorted(a)))  # missing
            for _ in range(rng.randint(0, 2)):  # shape
                a.add(tuple(rng.randint(1, 3) for _ in range(rng.randint(1, max_len))))
            for _ in range(rng.randint(0, 2)):  # prefix
                b.add(first + tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 3))))
            if rng.random() < 0.5:  # overlap
                b.add(rng.choice(sorted(a)))
            inject_closures(monkeypatch, {first: frozenset(a), second: frozenset(b)})
            rep = upper_bound_census(p, max_len=max_len)
            checks, failures = reference_census(first, a, b, max_len)
            assert (rep.checks_run, rep.failures) == (checks, failures), max_len
            assert (rep.first_class, rep.second_class) == (a, b)
            kinds.update(f[0] for f in failures)
            failing += bool(failures)
    assert kinds == {"shape", "missing", "prefix", "overlap"}
    assert 0 < failing < 180


def test_cube_counterexample_reports_a_cube_condition_that_holds(monkeypatch):
    import aimonoids.cube as cube_module
    from aimonoids.cube import cube_counterexample
    from aimonoids.monoid_core import OracleVerdict
    monkeypatch.setattr(cube_module, "bfs_equal",
                        lambda p, u, v: OracleVerdict(EQUAL, (tuple(u), tuple(v))))
    rep = cube_counterexample()
    assert rep.failures == [("cube-condition-held", (3, 2, 1), (3, 2, 1, 2))]
    assert rep.verdict == EQUAL and rep.checks_run == 66
