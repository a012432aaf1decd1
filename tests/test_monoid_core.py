import copy
import pickle
import random

import pytest

from aimonoids.monoid_core import (DISTINCT_WITHIN_BOUND, EQUAL, INCONCLUSIVE,
                                   INFINITY, FiniteMonoid, Presentation,
                                   ai_presentation, bfs_equal, chain_ci_matrix,
                                   ci_presentation, congruence_closure,
                                   hasse_dot, is_lattice, left_division_order,
                                   load_ci_matrix, make_ci_matrix,
                                   one_step_related, pair_collapse_action,
                                   Report,
                                   random_rewrite, rank2_monoid,
                                   reversal_respects_congruence, TupleAction,
                                   tuple_action, tuple_action_failures,
                                   validate_ci)
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
    from aimonoids.cube import cube_presentation, upper_bound_census
    from aimonoids.garside import (check_lambda_identity, left_cancel_harness,
                                   verify_garside)
    from aimonoids.linrep import verify_representation
    from aimonoids.rewrite_a import a_confluence_audit
    from aimonoids.rewrite_m import SinkReport, m_confluence_audit, verify_sink

    reports = [
        a_confluence_audit(3, random_words=5),
        m_confluence_audit(3, random_words=5),
        verify_sink(2, 5),
        SinkReport(n=1, trials=1, failures=[]),
        upper_bound_census(cube_presentation(), max_len=7),
        verify_garside(2, 5),
        check_lambda_identity(2, 5),
        left_cancel_harness(2, 5),
        verify_representation(chain_ci_matrix(2)),
        reversal_respects_congruence(chain_ci_matrix(2), samples=5),
    ]
    assert all(type(rep) is Report and rep.ok for rep in reports)
