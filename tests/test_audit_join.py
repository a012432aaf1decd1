"""The default confluence audits join each critical pair in lockstep.

`a_confluence_audit` and `m_confluence_audit` join a triple's two words
with `rewrite.equal` on the system's scanner, which answers whether their
normal forms agree without reducing both in full; a reducer passed in
joins by comparing its two normal forms, as before.  The random disjoint
pairs still reduce each reduct once.
"""

from unittest import mock

import pytest

from aimonoids import rewrite, rewrite_a, rewrite_m

#: system -> (module, its reducer's name, audit, size, triples at that size)
AUDITS = {
    "A": (rewrite_a, "a_reduce", rewrite_a.a_confluence_audit, (5, 2), 825),
    "M": (rewrite_m, "m_reduce", rewrite_m.m_confluence_audit, (4, 1), 1057),
}


def refuse(w):
    raise AssertionError("a critical pair was reduced")


@pytest.mark.parametrize("system", sorted(AUDITS))
def test_default_audit_joins_each_triple_without_reducing(system, monkeypatch):
    module, reducer, audit, size, triples = AUDITS[system]
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


@pytest.mark.parametrize("system, failures", [("A", 680), ("M", 13)])
def test_default_audit_reports_a_broken_join(system, failures, monkeypatch):
    # negative control: rounds that skip their closing commute_sort
    _, _, audit, size, triples = AUDITS[system]
    real_round = rewrite._round

    def unsorted_round(scan, w):
        with mock.patch.object(rewrite, "commute_sort", lambda w: 0):
            return real_round(scan, w)
    monkeypatch.setattr(rewrite, "_round", unsorted_round)
    rep = audit(*size, random_words=0)
    assert rep.checks_run == triples and len(rep.failures) == failures
