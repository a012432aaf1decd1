"""The confluence audits decide every pair through the system's scanner.

`a_confluence_audit` and `m_confluence_audit` pass the module's
`_scan_run` to `rewrite.confluence_audit`, which joins a triple's two
words with `rewrite.equal` on it, answering whether their normal forms
agree without reducing both in full, and reduces each reduct of a random
word once with `rewrite.reduce_steps` on it.  Neither reaches a_reduce or
m_reduce.
"""

import random
from collections import Counter
from unittest import mock

import pytest

from aimonoids import rewrite, rewrite_a, rewrite_m
from aimonoids.words import random_word

#: system -> (module, its reducer's name, its matcher, audit, size,
#: triples at that size)
AUDITS = {
    "A": (rewrite_a, "a_reduce", rewrite_a.a_match_at, rewrite_a.a_confluence_audit,
          (5, 2), 825),
    "M": (rewrite_m, "m_reduce", rewrite_m.m_match_at, rewrite_m.m_confluence_audit,
          (4, 1), 1057),
}


def refuse(w):
    raise AssertionError("a pair was reduced through the system's reducer")


@pytest.mark.parametrize("system", sorted(AUDITS))
def test_default_audit_joins_each_triple_without_reducing(system, monkeypatch):
    module, reducer, _, audit, size, triples = AUDITS[system]
    scans = []
    equal = rewrite.equal

    def counted(scan, v, w):
        scans.append(scan)
        return equal(scan, v, w)
    monkeypatch.setattr(module, reducer, refuse)
    monkeypatch.setattr(rewrite, "equal", counted)
    rep = audit(*size, random_words=0)
    assert rep.ok and rep.checks_run == triples
    assert len(scans) == triples and set(scans) == {module._scan_run}


def disjoint_reducts(match_at, n, random_words, seed):
    """The reducts of the matches that are in a disjoint pair of one of
    the audit's random words, once per word."""
    rng = random.Random(seed)
    out = Counter()
    for _ in range(random_words):
        w = random_word(rng, n, 12, 2)
        ms = rewrite.matches(match_at, w)
        paired = {i for x in range(len(ms)) for y in range(x + 1, len(ms))
                  if ms[x].end <= ms[y].start for i in (x, y)}
        out.update(rewrite.apply(match_at, w, ms[i]) for i in paired)
    return out


@pytest.mark.parametrize("system, checks, disjoint", [("A", 875, 50), ("M", 1171, 114)])
def test_audit_reduces_each_random_reduct_once_through_the_scanner(
        system, checks, disjoint, monkeypatch):
    module, reducer, match_at, audit, size, triples = AUDITS[system]
    n = size[0]
    reduced = []
    reduce_steps = rewrite.reduce_steps

    def logged(scan, w):
        reduced.append((scan, w))
        return reduce_steps(scan, w)
    monkeypatch.setattr(module, reducer, refuse)
    monkeypatch.setattr(rewrite, "reduce_steps", logged)
    rep = audit(*size, random_words=40, seed=1)
    # the report the audit gave when it reduced through a_reduce / m_reduce
    assert rep.ok and rep.checks_run == checks == triples + disjoint
    assert rep.by_family["disjoint"] == disjoint
    assert {scan for scan, _ in reduced} == {module._scan_run}
    assert Counter(w for _, w in reduced) == disjoint_reducts(match_at, n, 40, 1)


@pytest.mark.parametrize("system, failures", [("A", 680), ("M", 13)])
def test_default_audit_reports_a_broken_join(system, failures, monkeypatch):
    # negative control: rounds that skip their closing commute_sort
    _, _, _, audit, size, triples = AUDITS[system]
    real_round = rewrite._round

    def unsorted_round(scan, w, *args):
        with mock.patch.object(rewrite, "commute_sort", lambda w, *args: 0):
            return real_round(scan, w, *args)
    monkeypatch.setattr(rewrite, "_round", unsorted_round)
    rep = audit(*size, random_words=0)
    assert rep.checks_run == triples and len(rep.failures) == failures
