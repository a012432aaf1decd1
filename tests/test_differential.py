"""Seeded differential tests at ranks 4-6.

The fast normalizers (commutation sort plus deletion sweeps) must give
exactly what the slow reference gives, iterated leftmost single steps, and
what uniformly random rule choices give.  Words are drawn letter by letter
and as concatenated descending runs, which exercise the long rule shapes.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aimonoids.rewrite_a import a_reduce, a_reduce_random, a_reduce_steps, a_step
from aimonoids.rewrite_m import m_reduce, m_reduce_random, m_reduce_steps, m_step
from aimonoids.words import descending_run

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
