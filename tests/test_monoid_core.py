import copy
import pickle
import random
import re
import tracemalloc

import pytest

from aimonoids import monoid_core
from aimonoids.cube import cube_presentation
from aimonoids.monoid_core import (DISTINCT_WITHIN_BOUND, EQUAL, INCONCLUSIVE,
                                   INFINITY, CIMatrix, FiniteMonoid,
                                   Presentation,
                                   ai_presentation, bfs_equal, chain_ci_matrix,
                                   ci_presentation, congruence_closure,
                                   hasse_dot, is_lattice, left_division_order,
                                   load_ci_matrix, make_ci_matrix,
                                   one_step_related, OracleVerdict,
                                   pair_collapse_action,
                                   Report,
                                   random_rewrite, rank2_monoid,
                                   reversal_respects_congruence, TupleAction,
                                   tuple_action, tuple_action_failures,
                                   validate_ci)
from aimonoids.monoid_core import DivisibilityOrder
from aimonoids.words import alternating, random_word

A2 = Presentation(2, (((2, 1, 2, 1), (1, 2, 1)),))


def test_validate_ci_examples():
    assert validate_ci(chain_ci_matrix(4))
    assert not validate_ci(make_ci_matrix(2, {(1, 2): 2, (2, 1): 4}))
    assert not validate_ci(make_ci_matrix(2, {(1, 2): INFINITY, (2, 1): 3}))


def test_chain_matrix_values():
    m = chain_ci_matrix(3).m
    assert m[(1, 2)] == 3 and m[(2, 1)] == 4
    assert m[(2, 3)] == 3 and m[(3, 2)] == 4
    assert m[(1, 3)] == 2 and m[(3, 1)] == 2


def test_presentations_rank2_asymmetric():
    mtx = make_ci_matrix(2, {(1, 2): 3, (2, 1): 4})
    ai = ai_presentation(mtx)
    assert set(ai.relations) == {((1, 2, 1), (2, 1, 2, 1))}
    ci = ci_presentation(mtx)
    assert set(ci.relations) == {
        ((1, 1), (1,)),
        ((2, 2), (2,)),
        ((1, 2, 1), (2, 1, 2, 1)),
        ((1, 2, 1), (1, 2, 1, 2)),
    }


def test_presentations_infinite_pair():
    mtx = make_ci_matrix(2, {(1, 2): INFINITY, (2, 1): INFINITY})
    assert ai_presentation(mtx).relations == ()
    assert set(ci_presentation(mtx).relations) == {((1, 1), (1,)), ((2, 2), (2,))}


def test_bfs_equal_examples():
    verdict = bfs_equal(A2, (2, 1, 2, 1), (1, 2, 1), max_len=8, max_states=10**5)
    assert verdict.status == EQUAL
    verdict = bfs_equal(A2, (1, 1, 2, 1), (1, 2, 1, 2), max_len=9, max_states=10**6)
    assert verdict.status != EQUAL
    assert bfs_equal(A2, (1, 2), (1, 2)).status == EQUAL


def test_bfs_equal_witness_chain_is_valid():
    verdict = bfs_equal(A2, (2, 1, 2, 1, 2, 1), (1, 1, 2, 1), max_len=10)
    assert verdict.status == EQUAL
    chain = verdict.witness
    assert chain[0] == (2, 1, 2, 1, 2, 1) and chain[-1] == (1, 1, 2, 1)
    for u, v in zip(chain, chain[1:]):
        assert one_step_related(A2, u, v)


def test_bfs_equal_symmetric_and_sound_on_random_rewrites():
    p = ci_presentation(chain_ci_matrix(3))
    rng = random.Random(7)
    for _ in range(60):
        u = random_word(rng, 3, 6, min_len=1)
        v = random_rewrite(p, u, rng, rng.randint(0, 3))
        bound = len(u) + len(v) + 6
        assert bfs_equal(p, u, v, max_len=bound).status == EQUAL
        assert bfs_equal(p, v, u, max_len=bound).status == EQUAL


def test_congruence_closure_contains_class():
    cls, complete = congruence_closure(A2, (2, 1, 2, 1), max_len=8)
    assert (1, 2, 1) in cls
    closure_again, _ = congruence_closure(A2, (1, 2, 1), max_len=8)
    assert cls == closure_again  # bounded reachability is an equivalence


def test_load_ci_matrix_round_trip():
    text = "rank 3\n1 2 3\n2 1 4\n2 3 3\n3 2 4\n"
    assert load_ci_matrix(text).m == chain_ci_matrix(3).m
    text_inf = "rank 2\n1 2 inf\n2 1 inf\n"
    mtx = load_ci_matrix(text_inf)
    assert mtx.m[(1, 2)] == INFINITY and mtx.m[(2, 1)] == INFINITY


def test_load_ci_matrix_rejects_garbage():
    with pytest.raises(ValueError):
        load_ci_matrix("3\n1 2 3\n")  # missing "rank"
    with pytest.raises(ValueError):
        load_ci_matrix("rank 2\n1 2 3\n1 2 4\n")  # duplicate entry
    with pytest.raises(ValueError):
        load_ci_matrix("rank 2\n1 2 bananas\n")


def test_load_ci_matrix_accepts_only_ascii_numerals():
    for bad in ("rank 2\n1 2 3\n2 1 \u0664\n", "rank 2\n1 2 3\n2 1 0_4\n",
                "rank 2\n1 2 x\n", "rank 2\n\u0661 2 3\n2 1 4\n",
                "rank 2\n1 +2 3\n2 1 4\n", "rank \u0662\n1 2 3\n2 1 4\n"):
        with pytest.raises(ValueError, match="^bad (matrix|rank) line: "):
            load_ci_matrix(bad)
    with pytest.raises(ValueError, match="^bad matrix line: '1 2 x'$"):
        load_ci_matrix("rank 2\n1 2 x\n")
    with pytest.raises(ValueError, match='must start with a "rank N" line'):
        load_ci_matrix("ranks 2\n1 2 3\n2 1 4\n")
    assert load_ci_matrix("rank 2\n1 2 inf\n2 1 inf\n").m[(1, 2)] == INFINITY


def test_load_ci_matrix_rank_line_is_exact():
    for bad in ("rank 2 junk", "rank 2 3", "rank"):
        with pytest.raises(ValueError, match="^bad rank line: %r$" % bad):
            load_ci_matrix(bad + "\n1 2 3\n2 1 4\n")
    assert load_ci_matrix("  rank   2  \n1 2 3\n2 1 4\n").size == 2


def test_rank2_monoid_sizes():
    assert len(rank2_monoid(3, 4).elements) == 7
    assert len(rank2_monoid(2, 2).elements) == 4
    assert len(rank2_monoid(2, 3).elements) == 5
    with pytest.raises(ValueError):
        rank2_monoid(1, 2)
    with pytest.raises(ValueError):
        rank2_monoid(2, 4)


def rank2_presentation(k, l):
    # squares are forced by "generated by two idempotents"
    return Presentation(2, (
        ((1, 1), (1,)),
        ((2, 2), (2,)),
        (alternating(1, 2, k), alternating(1, 2, k + 1)),
        (alternating(1, 2, k), alternating(2, 1, l)),
        (alternating(2, 1, l), alternating(2, 1, l + 1)),
    ))


def count_classes_by_search(k, l):
    """Identify words of length <= max(k, l) under the presentation."""
    p = rank2_presentation(k, l)
    top = max(k, l)
    words = [()]
    frontier = [()]
    for _ in range(top):
        frontier = [w + (x,) for w in frontier for x in (1, 2)]
        words += frontier
    reps = []
    for w in words:
        for rep in reps:
            verdict = bfs_equal(p, w, rep, max_len=top + 6, max_states=50_000)
            if verdict.status == EQUAL:
                break
        else:
            reps.append(w)
    return len(reps)


@pytest.mark.parametrize("k,l", [(2, 2), (2, 3), (3, 2), (3, 3), (3, 4),
                                 (4, 3), (4, 4), (4, 5), (5, 4), (5, 5),
                                 (5, 6), (6, 5), (6, 6)])
def test_rank2_sizes_against_presentation_closure(k, l):
    assert len(rank2_monoid(k, l).elements) == k + l
    assert count_classes_by_search(k, l) == k + l


def test_rank2_delta_is_a_sink():
    monoid = rank2_monoid(3, 4)
    delta = len(monoid.elements) - 1
    assert monoid.elements[delta] == (1, 2, 1)
    for i in range(len(monoid.elements)):
        for j in range(len(monoid.elements)):
            assert monoid.table[monoid.table[i][delta]][j] == delta


def test_left_division_lattice_examples():
    assert is_lattice(left_division_order(rank2_monoid(3, 4)))
    assert is_lattice(left_division_order(rank2_monoid(2, 2)))
    trivial = FiniteMonoid(((),), ((0,),), 0, ())
    assert is_lattice(left_division_order(trivial))


def test_hasse_dot_shapes():
    monoid = rank2_monoid(3, 4)
    dot = hasse_dot(left_division_order(monoid), monoid)
    assert dot.count("->") == 7
    assert dot.count(";") - dot.count("rankdir") == 7 + 7  # nodes + edges
    assert '"e" -> "1" [label="1"];' in dot
    assert '"2.1.2" -> "1.2.1" [label="1"];' in dot

    small = rank2_monoid(2, 2)
    dot = hasse_dot(left_division_order(small), small)
    assert dot.count("->") == 4

    trivial = FiniteMonoid(((),), ((0,),), 0, ())
    dot = hasse_dot(left_division_order(trivial), trivial)
    assert dot.count("->") == 0 and '"e";' in dot


def test_hasse_dot_refuses_non_orders():
    # right-zero pair with identity: a <= b <= a but a != b
    elements = ((), (1,), (2,))
    table = ((0, 1, 2), (1, 1, 2), (2, 1, 2))
    monoid = FiniteMonoid(elements, table, 0, (1, 2))
    order = left_division_order(monoid)
    assert not is_lattice(order)
    with pytest.raises(ValueError):
        hasse_dot(order, monoid)


def test_reversal_respects_congruence_chain():
    rep = reversal_respects_congruence(chain_ci_matrix(3), samples=40, seed=1)
    assert rep.ok and rep.checks_run == 40


def test_reversal_symmetric_label_six():
    rep = reversal_respects_congruence(
        make_ci_matrix(2, {(1, 2): 3, (2, 1): 3}), samples=30, seed=2)
    assert rep.ok


def test_reversal_refuses_label_nine():
    with pytest.raises(ValueError):
        reversal_respects_congruence(make_ci_matrix(2, {(1, 2): 4, (2, 1): 5}))


def test_pair_collapse_action_examples():
    act = pair_collapse_action(2, 1)
    assert tuple_action_failures(act) == []
    assert tuple_action(act, (1,), (0, 1)) == (0, 0)

    identity = TupleAction((0, 1), {(x, y): (x, y) for x in (0, 1) for y in (0, 1)}, 2)
    assert tuple_action_failures(identity) == []
    rng = random.Random(8)
    for _ in range(20):
        w = random_word(rng, 2, 5)
        t = (rng.randint(0, 1), rng.randint(0, 1), rng.randint(0, 1))
        assert tuple_action(identity, w, t) == t


def test_tuple_action_negative_control():
    swap = TupleAction((0, 1), {(x, y): (y, x) for x in (0, 1) for y in (0, 1)}, 2)
    assert tuple_action_failures(swap)  # not idempotent
    with pytest.raises(ValueError):
        tuple_action(swap, (1,), (0, 1, 0))


def test_tuple_action_respects_m_congruence():
    from aimonoids.rewrite_m import m_equal, m_reduce

    rng = random.Random(9)
    n = 3
    act = pair_collapse_action(3, n)
    tuples = [(a, b, c, d) for a in range(3) for b in range(3)
              for c in range(3) for d in range(3)]
    pairs = 0
    while pairs < 100:
        u = random_word(rng, n, 6)
        v = m_reduce(u) if pairs % 2 == 0 else random_word(rng, n, 6)
        if not m_equal(u, v):
            continue
        pairs += 1
        for t in tuples:
            assert tuple_action(act, u, t) == tuple_action(act, v, t)
    # the squares relation, pinned
    act2 = pair_collapse_action(2, 1)
    for t in [(0, 1), (1, 0), (1, 1)]:
        assert tuple_action(act2, (1, 1), t) == tuple_action(act2, (1,), t)


def test_oracle_core_semantics_pinned():
    a2 = ai_presentation(chain_ci_matrix(2))
    m3 = ci_presentation(chain_ci_matrix(3))
    assert bfs_equal(a2, (1,), (2,)).status == DISTINCT_WITHIN_BOUND
    # the closure of 121 is exhausted, but a neighbour was pruned
    assert bfs_equal(a2, (1, 2, 1), (1, 1), max_len=3).status == INCONCLUSIVE
    assert bfs_equal(a2, (1, 2, 1), (2, 1, 2, 1, 2, 1), max_len=8,
                     max_states=2).status == INCONCLUSIVE
    assert congruence_closure(a2, (1, 2, 1), 3) == (frozenset({(1, 2, 1)}), False)
    words, complete = congruence_closure(m3, (1, 2, 1), 12, max_states=50)
    assert len(words) == 50 and not complete
    rng = random.Random(3)
    assert [random_rewrite(m3, (1, 2, 3, 2, 1), rng, 4) for _ in range(3)] == [
        (1, 2, 3, 2, 3, 1, 1, 1, 1),
        (1, 2, 3, 3, 3, 2, 2, 1, 1),
        (1, 1, 3, 3, 2, 2, 3, 2, 1),
    ]


def test_report_details_survive_copy_and_pickle():
    rep = Report(3, [("x",)], {"by_family": {"a": 2}, "n": 4})
    assert rep.by_family == {"a": 2} and rep.n == 4 and not rep.ok
    assert not hasattr(rep, "missing")
    for clone in (copy.copy(rep), copy.deepcopy(rep),
                  pickle.loads(pickle.dumps(rep))):
        assert clone == rep and clone.by_family == {"a": 2}
        assert not hasattr(clone, "missing")
    assert Report(1).ok and Report(1).details == {}


def test_harnesses_return_one_report_type():
    from aimonoids.cube import (cube_condition_check, cube_counterexample,
                                cube_presentation, upper_bound_census)
    from aimonoids.garside import (check_lambda_identity, garside_harness,
                                   left_cancel_harness, verify_garside)
    from aimonoids.linrep import verify_representation
    from aimonoids.monoid_core import action_harness, rank2_harness
    from aimonoids.rewrite_a import a_confluence_audit
    from aimonoids.rewrite_m import m_confluence_audit, verify_sink

    braid = Presentation(2, (((1, 2, 1), (2, 1, 2)),))
    reports = [
        a_confluence_audit(3, random_words=5),
        m_confluence_audit(3, random_words=5),
        verify_sink(2, 5),
        Report(1, [], {"n": 1, "trials": 1}),
        upper_bound_census(cube_presentation(), max_len=7),
        verify_garside(2, 5),
        check_lambda_identity(2, 5),
        garside_harness(2, 5),
        left_cancel_harness(2, 5),
        verify_representation(chain_ci_matrix(2)),
        reversal_respects_congruence(chain_ci_matrix(2), samples=5),
        cube_condition_check(braid, 1, 2, 2),
        cube_counterexample(max_len=7),
        rank2_harness(3, 4),
        action_harness(2, 3),
    ]
    assert all(type(rep) is Report and rep.ok for rep in reports)


def test_harness_reports_carry_their_details():
    from aimonoids.cube import (cube_condition_check, cube_counterexample,
                                upper_bound_census)
    from aimonoids.monoid_core import rank2_harness
    from aimonoids.rewrite_m import verify_sink

    assert verify_sink(2, 5).details == {"n": 2, "trials": 5}
    rank2 = rank2_harness(3, 4)
    assert rank2.checks_run == 2 and rank2.lattice is True
    assert rank2.monoid == rank2_monoid(3, 4)
    assert rank2.order == left_division_order(rank2.monoid)
    cube = cube_counterexample(max_len=7)
    assert set(cube.details) == {"triple", "w1", "w2", "verdict", "witness",
                                 "max_len", "first_class", "second_class"}
    assert (cube.w1, cube.w2, cube.verdict) == ((3, 2, 1), (3, 2, 1, 2),
                                                DISTINCT_WITHIN_BOUND)
    census = upper_bound_census(cube_presentation(), max_len=7)
    assert cube.checks_run == 1 + census.checks_run
    check = cube_condition_check(cube_presentation(), 1, 2, 3)
    assert check.checks_run == 1 and check.triple == (1, 2, 3)
    assert check.failures == [(DISTINCT_WITHIN_BOUND, (3, 2, 1), (3, 2, 1, 2))]


INVALID_MATRICES = [make_ci_matrix(2, {(1, 2): 2, (2, 1): 4}),
                    make_ci_matrix(2, {(1, 2): INFINITY, (2, 1): 3})]
SWAP = TupleAction((0, 1), {(x, y): (y, x) for x in (0, 1) for y in (0, 1)}, 2)


def test_label_matrix_and_action_are_read_only():
    matrix = chain_ci_matrix(3)
    with pytest.raises(TypeError):
        matrix.m[(1, 2)] = 9
    act = pair_collapse_action(2, 1)
    with pytest.raises(TypeError):
        act.f[(0, 1)] = (1, 1)
    # the constructor copies its arguments
    entries = {(1, 2): 3, (2, 1): 4}
    built = CIMatrix(2, entries)
    entries[(1, 2)] = 9
    assert built.m[(1, 2)] == 3 and validate_ci(built)
    carrier = [0, 1]
    listed = TupleAction(carrier, dict(act.f), 1)
    carrier.append(2)
    assert listed.carrier == (0, 1) and listed == act


def test_matrix_and_action_survive_copy_and_pickle():
    for original in [chain_ci_matrix(3), *INVALID_MATRICES]:
        for clone in (copy.copy(original), copy.deepcopy(original),
                      pickle.loads(pickle.dumps(original))):
            assert clone == original
            assert validate_ci(clone) == validate_ci(original)
            with pytest.raises(TypeError):
                clone.m[(1, 2)] = 9
    assert not any(validate_ci(pickle.loads(pickle.dumps(m)))
                   for m in INVALID_MATRICES)
    for original in (pair_collapse_action(3, 2), SWAP):
        for clone in (copy.copy(original), copy.deepcopy(original),
                      pickle.loads(pickle.dumps(original))):
            assert clone == original
            assert tuple_action_failures(clone) == tuple_action_failures(original)
            with pytest.raises(TypeError):
                clone.f[(0, 0)] = (1, 1)


def test_tuple_action_failures_returns_a_fresh_list():
    first = tuple_action_failures(SWAP)
    first.clear()
    assert tuple_action_failures(SWAP)


def test_action_is_checked_once(monkeypatch):
    act = pair_collapse_action(3, 3)
    calls = []
    scan = monoid_core._action_failures
    monkeypatch.setattr(monoid_core, "_action_failures",
                        lambda *args: calls.append(args) or scan(*args))
    for t in [(0, 1, 2, 0), (2, 2, 1, 0)] * 50:
        assert tuple_action(act, (1, 2, 1), t) == tuple_action(act, (2, 1, 2, 1), t)
    assert tuple_action_failures(act) == []
    assert calls == []
    pair_collapse_action(2, 1)
    assert len(calls) == 1


def test_partial_action_reports_missing_images():
    # f(0, 0) = (1, 1), but f is undefined at (1, 1)
    partial = TupleAction((0, 1), {(0, 0): (1, 1), (0, 1): (0, 1),
                                   (1, 0): (1, 0)}, 2)
    assert tuple_action_failures(partial) == [
        "idempotence fails: f(f(0, 0)) != f(0, 0)",
        "f undefined at (1, 1)",
    ]
    with pytest.raises(ValueError, match=r"idempotence fails: f\(f\(0, 0\)\)"):
        tuple_action(partial, (1,), (0, 0, 1))


def test_oracle_entry_points_share_one_guard():
    wide = Presentation(256, (((1, 2), (2, 1)),))
    rng = random.Random(0)
    calls = [lambda: bfs_equal(wide, (1, 2), (2, 1)),
             lambda: bfs_equal(wide, (1,), (1,)),
             lambda: congruence_closure(wide, (1, 2), 4),
             lambda: random_rewrite(wide, (1, 2), rng, 3),
             lambda: one_step_related(wide, (1, 2), (2, 1))]
    for call in calls:
        with pytest.raises(ValueError, match="at most 255 generators"):
            call()
    # words are checked against the presentation's generators
    two = ai_presentation(chain_ci_matrix(2))
    for call in (lambda: one_step_related(two, (9,), (1,)),
                 lambda: one_step_related(two, (1,), (3,)),
                 lambda: bfs_equal(two, (1,), (3,)),
                 lambda: congruence_closure(two, (3,), 4),
                 lambda: random_rewrite(two, (3,), rng, 1)):
        with pytest.raises(ValueError, match="out of range for rank 2"):
            call()
    assert one_step_related(two, (1, 2, 1), (2, 1, 2, 1))


def test_presentations_keep_every_pair_after_a_reoriented_one():
    # m(1, 2) > m(2, 1) orients the first relation from generator 2; the
    # pairs scanned after it keep their own generators
    mtx = make_ci_matrix(3, {(1, 2): 4, (2, 1): 3})
    assert ai_presentation(mtx).relations == (
        ((2, 1, 2), (1, 2, 1, 2)), ((1, 3), (3, 1)), ((2, 3), (3, 2)))
    ci = ci_presentation(mtx)
    assert len(set(ci.relations)) == 3 + 2 * 3
    assert bfs_equal(ci, (1, 3), (3, 1)).status == EQUAL


def test_malformed_image_is_reported():
    # images that are not pairs leave the carrier; the check does not crash
    flat = TupleAction((0, 1), {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 0}, 1)
    assert tuple_action_failures(flat) == [
        f"f leaves the carrier at {pair}"
        for pair in [(0, 0), (0, 1), (1, 0), (1, 1)]]
    with pytest.raises(ValueError, match="f leaves the carrier"):
        tuple_action(flat, (1,), (0, 0))


def test_bfs_equal_checks_the_presentation_before_identical_words():
    empty_side = Presentation(2, (((1, 2), ()),))
    for u, v in [((1,), (1,)), ((), ()), ((1,), (2,))]:
        with pytest.raises(ValueError, match="relations with an empty side"):
            bfs_equal(empty_side, u, v)


def test_presentation_refuses_bad_relation_letters():
    for rel in [((1, 2), (3,)), ((0,), (1,)), ((True,), (1,)), ((2.0,), (1,)),
                ((1,), (300,))]:
        with pytest.raises(ValueError, match="letter"):
            Presentation(2, (rel,))


def test_presentation_refuses_a_bad_shape():
    for generators in (-1, 2.0, True, "2", None):
        with pytest.raises(ValueError, match="generators must be a non-negative integer"):
            Presentation(generators, (((1,), (2,)),))
    for relations in [((1, 2),), (((1,), (2,), (1,)),), (((1,),),), None, 5,
                      (((1,), 2),)]:
        with pytest.raises(ValueError, match="relations must be a sequence of word pairs"):
            Presentation(2, relations)
    assert Presentation(0, ()).relations == ()


def test_presentation_stores_relations_as_tuples():
    p = Presentation(2, [([1, 2], [2, 1]), ([1, 1], (1,))])
    assert p.relations == (((1, 2), (2, 1)), ((1, 1), (1,)))
    assert p == Presentation(2, (((1, 2), (2, 1)), ((1, 1), (1,))))
    assert len({p, Presentation(2, p.relations)}) == 1


def test_presentation_records_rewrites_in_relation_order():
    # lhs -> rhs then rhs -> lhs; identical sides skipped, duplicates kept
    p = Presentation(3, (((1, 2), (2, 1)), ((3,), (3,)), ((2, 3), (3,)),
                         ((1, 2), (2, 1))))
    assert p.rewrites == ((b"\1\2", b"\2\1"), (b"\2\1", b"\1\2"),
                          (b"\2\3", b"\3"), (b"\3", b"\2\3"),
                          (b"\1\2", b"\2\1"), (b"\2\1", b"\1\2"))
    # built, but refused by the oracle
    assert Presentation(2, (((1, 2), ()),)).rewrites is None
    assert Presentation(256, (((1, 2), (2, 1)),)).rewrites is None


def test_presentation_copy_and_pickle_keep_the_rewrites():
    p = ci_presentation(chain_ci_matrix(3))
    for q in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert q == p
        assert q.rewrites == p.rewrites
        assert congruence_closure(q, (1, 2, 1), 6) == congruence_closure(p, (1, 2, 1), 6)


def test_presentation_is_encoded_once(monkeypatch):
    p = ci_presentation(chain_ci_matrix(3))
    calls = []
    encode = monoid_core._byte_rewrites
    monkeypatch.setattr(monoid_core, "_byte_rewrites",
                        lambda *args: calls.append(args) or encode(*args))
    rng = random.Random(0)
    for _ in range(50):
        u = random_word(rng, 3, 5, 1)
        v = random_rewrite(p, u, rng, 2)
        assert one_step_related(p, u, random_rewrite(p, u, rng, 1))
        assert bfs_equal(p, u, v, max_states=2000).status in (EQUAL, INCONCLUSIVE)
        assert u in congruence_closure(p, u, len(u) + 1, 200)[0]
    assert calls == []
    Presentation(2, (((1, 2), (2, 1)),))
    assert len(calls) == 1


def test_congruence_closure_refuses_a_non_positive_state_cap():
    p = ai_presentation(chain_ci_matrix(3))
    for cap in (0, -3):
        with pytest.raises(ValueError, match="max_states must be positive"):
            congruence_closure(p, (1, 2, 1), 5, max_states=cap)
    assert congruence_closure(p, (1, 2, 1), 5, max_states=1) == (
        frozenset({(1, 2, 1)}), False)


def test_random_rewrite_builds_only_the_chosen_neighbour():
    # 4000 sites of 1 -> 11 on a 4000-letter word: holding every neighbour
    # would take about 16 MB, one of them about 4 kB
    p = Presentation(1, (((1,), (1, 1)),))
    rng = random.Random(0)
    tracemalloc.start()
    try:
        w = random_rewrite(p, (1,) * 4000, rng, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert set(w) == {1} and abs(len(w) - 4000) <= 3
    assert peak < 1_000_000


def test_settled_query_never_searches(monkeypatch):
    m4 = ci_presentation(chain_ci_matrix(4))
    cube = cube_presentation()

    def no_search(*args, **kwargs):
        raise AssertionError("a settled query searched")

    monkeypatch.setattr(monoid_core, "_search", no_search)
    for p, u, v in ((m4, (1, 2, 3), (1, 2, 4)), (m4, (4, 4, 1), (4,)),
                    (cube, (2, 3, 2), (3,)), (cube, (1, 2, 3, 2), (3, 1))):
        for max_len, cap in ((max(len(u), len(v)), 1), (None, 10**6)):
            verdict = bfs_equal(p, u, v, max_len, cap)
            assert verdict == OracleVerdict(INCONCLUSIVE)
            assert verdict.states_explored == 0
    identical = bfs_equal(m4, (1, 2), (1, 2))
    assert identical == OracleVerdict(EQUAL, ((1, 2),))
    assert identical.states_explored == 0


def test_settled_exit_boundaries():
    m3 = ci_presentation(chain_ci_matrix(3))
    # an empty u holds no pump: its closure is {()} and complete
    verdict = bfs_equal(m3, (), (1,))
    assert verdict.status == DISTINCT_WITHIN_BOUND and verdict.states_explored == 1
    # same letters, or no pump in u: the search decides
    assert bfs_equal(m3, (1, 2), (2, 1, 2), max_states=20).states_explored == 20
    assert bfs_equal(m3, (1, 3), (3, 1)).status == EQUAL
    # a letter-dropping relation: 1 -> 1 2 reaches a new letter
    dropping = Presentation(2, (((1, 1), (1,)), ((1, 2), (1,))))
    assert dropping.pumps is None
    verdict = bfs_equal(dropping, (1,), (1, 2))
    assert verdict.status == EQUAL and verdict.states_explored >= 2
    assert Presentation(2, (((1, 2), ()),)).pumps is None
    # a longer right-hand side without the left-hand side does not pump:
    # the closure of 1 2 is {1 2, 2 1 1}
    grows = Presentation(2, (((1, 2), (2, 1, 1)),))
    assert grows.pumps == ()
    assert bfs_equal(grows, (1, 2), (1,)).status == DISTINCT_WITHIN_BOUND


def test_presentation_records_pumps():
    m2 = ci_presentation(chain_ci_matrix(2))
    # found on first use: a presentation only rewritten never pays for them
    assert "pumps" not in vars(m2)
    assert m2.pumps == (b"\1", b"\2", b"\1\2\1")
    for q in (copy.copy(m2), copy.deepcopy(m2), pickle.loads(pickle.dumps(m2)),
              Presentation(2, m2.relations)):
        assert q == m2 and q.pumps == m2.pumps
    # the chain balance relation 1 2 1 = 2 1 2 1, and the cube's
    # 2 3 2 = 3 2 3 2, pump as x -> x x does
    assert ai_presentation(chain_ci_matrix(3)).pumps == (b"\1\2\1", b"\2\3\2")
    assert cube_presentation().pumps == (b"\2\3\2",)
    assert ai_presentation(make_ci_matrix(3, default=3)).pumps == ()
    assert ai_presentation(make_ci_matrix(3)).pumps == ()
    assert Presentation(1, (((1, 1), (1, 1, 1)), ((1,), (1,)))).pumps == (b"\1\1",)


def test_oracle_verdict_counts_states_without_changing_equality():
    a2 = ai_presentation(chain_ci_matrix(2))
    verdict = bfs_equal(a2, (1,), (2,))
    assert verdict == OracleVerdict(DISTINCT_WITHIN_BOUND)
    assert verdict.states_explored == 1
    # the same letters: the search runs through 121, 2121, ..., 2^5 121
    words, _ = congruence_closure(a2, (1, 2, 1), 8)
    verdict = bfs_equal(a2, (1, 2, 1), (1, 2), max_len=8)
    assert verdict.status == INCONCLUSIVE
    assert verdict.states_explored == len(words) == 6
    assert OracleVerdict(EQUAL, ((1,),), 7) == OracleVerdict(EQUAL, ((1,),))


CHAIN_RANK3_QUOTIENTS = [(1, 2, 2, 2), (1, 2, 2, 3), (1, 2, 3, 2), (1, 2, 3, 3), (1, 2, 3, 4),
                         (1, 3, 2, 2),
                         (2, 3, 2, 2), (2, 3, 2, 3), (2, 3, 3, 2), (2, 3, 3, 3), (2, 3, 3, 4)]


def test_presentation_records_quotients():
    m3 = ci_presentation(chain_ci_matrix(3))
    # found on first use, as pumps are
    assert "quotients" not in vars(m3)
    assert [q[:4] for q in m3.quotients] == CHAIN_RANK3_QUOTIENTS
    # A's relations are among M's, and keep the same rank-2 images
    assert [q[:4] for q in ai_presentation(chain_ci_matrix(3)).quotients] == CHAIN_RANK3_QUOTIENTS
    assert len(ci_presentation(chain_ci_matrix(4)).quotients) == 18
    assert len(ai_presentation(chain_ci_matrix(4)).quotients) == 18
    assert [q[:4] for q in cube_presentation().quotients] == [
        (1, 2, 2, 2), (1, 2, 2, 3), (1, 2, 3, 2), (1, 2, 3, 3), (1, 3, 2, 2),
        (2, 3, 2, 2), (2, 3, 2, 3), (2, 3, 3, 2), (2, 3, 3, 3), (2, 3, 3, 4)]
    # rank2_monoid(2, 2) is the letter set on {a, b}, which every relation
    # that keeps its letter set respects: the commutation verifies only it
    assert [q[:4] for q in Presentation(2, (((1, 2), (2, 1)),)).quotients] == [(1, 2, 2, 2)]
    # 1 2 = 1 drops a letter, so no rank-2 table verifies; one letter, no pair
    assert Presentation(2, (((1, 2), (1,)),)).quotients == ()
    assert Presentation(1, (((1, 1), (1,)),)).quotients == ()


def test_a_table_breaking_one_relation_is_refused(monkeypatch):
    real = monoid_core.rank2_monoid

    def swapped(k, l):
        monoid = real(k, l)
        if (k, l) != (3, 4):
            return monoid
        # ab * a and ab * b trade places, so 1 2 1 = 2 1 2 1 has two images
        ab = monoid.elements.index((1, 2))
        ga, gb = monoid.generators
        row = list(monoid.table[ab])
        row[ga], row[gb] = row[gb], row[ga]
        table = monoid.table[:ab] + (tuple(row),) + monoid.table[ab + 1:]
        return FiniteMonoid(monoid.elements, table, monoid.identity, monoid.generators)

    monkeypatch.setattr(monoid_core, "rank2_monoid", swapped)
    m3 = ci_presentation(chain_ci_matrix(3))
    assert [q[:4] for q in m3.quotients] == [
        q for q in CHAIN_RANK3_QUOTIENTS if q[2:] != (3, 4)]
    # the query (3, 4) alone separates is searched again
    verdict = bfs_equal(m3, (1, 2, 1, 2), (2, 1, 2), max_states=1500)
    assert verdict.status == INCONCLUSIVE and verdict.states_explored == 1500


def test_quotient_settled_query_never_searches(monkeypatch):
    m4 = ci_presentation(chain_ci_matrix(4))
    a4 = ai_presentation(chain_ci_matrix(4))
    # each pair has one letter set; rank2_monoid(3, 4) on {1, 2} or {2, 3}
    # separates it, and u holds a pump
    queries = ((m4, (1, 2), (2, 1, 2)), (m4, (1, 2, 1, 2), (2, 1, 2)),
               (m4, (2, 3, 4, 3), (3, 2, 3, 4)), (a4, (1, 2, 1), (1, 2)),
               (cube_presentation(), (2, 3, 2, 1), (3, 2, 1)))
    # a state cap of 1000 leaves the search short: it runs, to the cap or
    # through the words of the class within the length bound
    assert [bfs_equal(*q, max_states=1000).states_explored
            for q in queries] == [36, 1000, 1000, 7, 8]

    def no_search(*args, **kwargs):
        raise AssertionError("a settled query searched")

    monkeypatch.setattr(monoid_core, "_search", no_search)
    for q in queries:
        for cap in (1001, 10**6):
            verdict = bfs_equal(*q, max_states=cap)
            assert verdict == OracleVerdict(INCONCLUSIVE) and verdict.states_explored == 0
    # a length bound that leaves room for fewer words searches: 2^0 + ... + 2^9
    # = 1023 words of length <= 9 over {1, 2}, and 511 of length <= 8
    assert bfs_equal(m4, (1, 2), (2, 1, 2), max_len=9).states_explored == 0
    with pytest.raises(AssertionError, match="a settled query searched"):
        bfs_equal(m4, (1, 2), (2, 1, 2), max_len=8)


def test_presentation_copy_and_pickle_keep_the_quotients():
    m4 = ci_presentation(chain_ci_matrix(4))
    assert bfs_equal(m4, (1, 2), (2, 1, 2)).states_explored == 0
    assert "quotients" in vars(m4)
    for q in (copy.copy(m4), copy.deepcopy(m4), pickle.loads(pickle.dumps(m4))):
        assert q == m4 and q.quotients == m4.quotients
        assert bfs_equal(q, (1, 2), (2, 1, 2)) == OracleVerdict(INCONCLUSIVE)


def test_a_report_refuses_a_negative_check_count():
    assert Report(0).ok and Report(0).checks_run == 0
    with pytest.raises(ValueError, match="checks_run must be nonnegative, got -1"):
        Report(-1)
    with pytest.raises(ValueError, match="checks_run must be nonnegative, got -1"):
        reversal_respects_congruence(chain_ci_matrix(3), -1)


def test_oracle_bounds_are_refused():
    p = ci_presentation(chain_ci_matrix(3))
    with pytest.raises(ValueError, match="max_states must be positive"):
        bfs_equal(p, (1,), (2,), max_states=0)
    with pytest.raises(ValueError, match="max_len smaller than an input word"):
        bfs_equal(p, (1, 2, 1), (2,), max_len=2)
    with pytest.raises(ValueError, match="max_len below the start word length"):
        congruence_closure(p, (1, 2, 1), 2)


def test_matrix_builders_refuse_bad_sizes_and_entries():
    with pytest.raises(ValueError, match="size must be at least 1"):
        make_ci_matrix(0)
    with pytest.raises(ValueError, match=re.escape("entry (1, 5) outside the matrix")):
        make_ci_matrix(3, {(1, 5): 3})
    with pytest.raises(ValueError, match=re.escape("bad generator pair in line: '1 5 3'")):
        load_ci_matrix("rank 3\n1 5 3\n")
    with pytest.raises(ValueError, match="entries violate the CI matrix conditions"):
        load_ci_matrix("rank 2\n1 2 2\n2 1 4\n")


def test_validate_ci_is_false_for_a_missing_entry_a_small_label_or_size_zero():
    assert validate_ci(CIMatrix(2, {(1, 2): 3, (2, 1): 3}))
    assert not validate_ci(CIMatrix(2, {(1, 2): 3}))
    assert not validate_ci(CIMatrix(2, {(1, 2): 1, (2, 1): 1}))
    assert not validate_ci(CIMatrix(0, {}))


def test_tuple_action_refuses_a_bad_tuple():
    act = pair_collapse_action(3, 3)
    with pytest.raises(ValueError, match="need a tuple of length 4, got 2"):
        tuple_action(act, (1,), (0, 1))
    with pytest.raises(ValueError, match="tuple entry 9 outside the carrier"):
        tuple_action(act, (1,), (0, 1, 9, 0))


def test_is_lattice_false_without_a_meet_or_a_join():
    def order(size, pairs):
        leq = tuple(tuple(i == j or (i, j) in pairs for j in range(size))
                    for i in range(size))
        return DivisibilityOrder(tuple(range(size)), leq)
    # a bottom below two incomparable elements: every meet, no join of 1, 2
    assert not is_lattice(order(3, {(0, 1), (0, 2)}))
    # dually, a top: every join, no meet of 1, 2
    assert not is_lattice(order(3, {(1, 0), (2, 0)}))
    # both bounds make it a lattice
    assert is_lattice(order(4, {(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)}))


@pytest.mark.parametrize("steps, max_len, message", [
    (3, 2, "max_len below the start word length"),
    (0, 4, "max_len below the start word length"),
    (-2, None, "steps must be a nonnegative int, got -2"),
    (-1, 9, "steps must be a nonnegative int, got -1"),
    (2.5, None, "steps must be a nonnegative int, got 2.5"),
    (2.0, 9, "steps must be a nonnegative int, got 2.0"),
    (True, None, "steps must be a nonnegative int, got True"),
    ("2", 9, "steps must be a nonnegative int, got '2'"),
])
def test_random_rewrite_refuses_bad_bounds_before_any_draw(steps, max_len, message):
    p = ci_presentation(chain_ci_matrix(3))
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(ValueError, match=re.escape(message)):
        random_rewrite(p, (1, 2, 1, 2, 1), rng, steps, max_len=max_len)
    assert rng.getstate() == state
    # a bound equal to the word's length is no contradiction
    assert len(random_rewrite(p, (1, 2, 1, 2, 1), rng, 3, max_len=5)) <= 5


def test_rank2_harness_reports_both_failures(monkeypatch):
    from aimonoids.monoid_core import rank2_harness
    monkeypatch.setattr(monoid_core, "rank2_monoid", lambda k, l: rank2_monoid(k, k))
    monkeypatch.setattr(monoid_core, "is_lattice", lambda order: False)
    rep = rank2_harness(3, 4)
    assert rep.failures == ["size 6, expected 7", "left division is not a lattice order"]
    assert rep.checks_run == 2 and rep.lattice is False


def test_reversal_check_reports_pairs_the_oracle_separates(monkeypatch):
    monkeypatch.setattr(monoid_core, "bfs_equal",
                        lambda *args, **kwargs: OracleVerdict(DISTINCT_WITHIN_BOUND))
    rep = reversal_respects_congruence(chain_ci_matrix(3), samples=2, seed=0)
    assert rep == Report(2, [((2, 1, 2, 2, 3, 3, 3), (2, 2, 1, 2, 2, 3), DISTINCT_WITHIN_BOUND),
                             ((2, 1), (2, 1, 1, 1), DISTINCT_WITHIN_BOUND)])


def test_action_harness_reports_both_braid_identities(monkeypatch):
    from aimonoids.monoid_core import action_harness
    # idempotent, but neither braid identity holds
    f = {(0, 0): (0, 1), (0, 1): (0, 1), (1, 0): (1, 0), (1, 1): (0, 1)}
    monkeypatch.setattr(monoid_core, "pair_collapse_action",
                        lambda carrier, n: TupleAction(tuple(range(carrier)), f, n))
    rep = action_harness(2, 2)
    assert rep == Report(20, [
        "braid identity f1 f2 f1 != f2 f1 f2 f1 at (0, 0, 0)",
        "braid identity f1 f2 f1 != f1 f2 f1 f2 at (0, 0, 1)",
        "braid identity f1 f2 f1 != f1 f2 f1 f2 at (0, 1, 1)",
        "braid identity f1 f2 f1 != f2 f1 f2 f1 at (1, 1, 1)",
        "braid identity f1 f2 f1 != f1 f2 f1 f2 at (1, 1, 1)"])


@pytest.mark.parametrize("max_len", [5.5, 9.0, "9", True, False])
def test_random_rewrite_refuses_a_max_len_that_is_not_an_int(max_len):
    p = ci_presentation(chain_ci_matrix(3))
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(ValueError, match=re.escape("max_len must be an int, got %r" % (max_len,))):
        random_rewrite(p, (1, 2, 1, 2, 1), rng, 3, max_len=max_len)
    assert rng.getstate() == state
