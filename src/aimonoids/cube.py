"""A three-generator monoid where a bounded pair has no join.

The monoid is presented by

    a b a = b a b,    b c b = c b c b,    a c = c a

with a, b, c written 1, 2, 3.  Both [b c b] and the class of c a b c b a b
are upper bounds of {[b], [c]} under left division, yet the pair has no
join.  The mechanical route to this is the cube condition: reversing the
complements of the triple (a, b, c) produces the words c b a and c b a b,
which are distinct in the monoid, and the census of the two upper-bound
classes shows why (every word for the first is c^k b c b, and no word for
the second starts with b c b).  Equality queries are bounded, so the
verdicts here are evidence within an explicit search radius, not proofs of
distinctness.
"""

from __future__ import annotations

from dataclasses import dataclass

from .monoid_core import Presentation, Report, bfs_equal, congruence_closure

COMPLETE = "complete"
STEP_BUDGET_EXCEEDED = "step-budget-exceeded"

CUBE_RELATIONS = (
    ((1, 2, 1), (2, 1, 2)),
    ((2, 3, 2), (3, 2, 3, 2)),
    ((1, 3), (3, 1)),
)


def cube_presentation() -> Presentation:
    """The presentation above, on generators 1, 2, 3."""
    return Presentation(3, CUBE_RELATIONS)


@dataclass(frozen=True)
class ComplementTable:
    size: int
    entries: dict  # (s, t) -> word for s \ t, including (s, s) -> ()

    def complement(self, s: int, t: int):
        try:
            return self.entries[(s, t)]
        except KeyError:
            raise ValueError(f"no complement entry for ({s}, {t})") from None


def complement_table(p: Presentation) -> ComplementTable:
    """Read the complements s \\ t off a complemented presentation.

    Complemented means every unordered generator pair occurs in exactly one
    relation and the two sides of that relation start with distinct
    generators.  Writing the relation as s u = t v fixes s \\ t = u and
    t \\ s = v; each s \\ s is empty.
    """
    entries = {}
    for s in range(1, p.generators + 1):
        entries[(s, s)] = ()
    seen = set()
    for lhs, rhs in p.relations:
        lhs, rhs = tuple(lhs), tuple(rhs)
        if not lhs or not rhs:
            raise ValueError("not complemented: relation with an empty side")
        s, t = lhs[0], rhs[0]
        if s == t:
            raise ValueError(
                "not complemented: both sides start with generator %d" % s)
        pair = (min(s, t), max(s, t))
        if pair in seen:
            raise ValueError(
                "not complemented: two relations on the pair %d, %d" % pair)
        seen.add(pair)
        entries[(s, t)] = lhs[1:]
        entries[(t, s)] = rhs[1:]
    for s in range(1, p.generators + 1):
        for t in range(s + 1, p.generators + 1):
            if (s, t) not in seen:
                raise ValueError(
                    "not complemented: no relation on the pair %d, %d" % (s, t))
    return ComplementTable(p.generators, entries)


@dataclass(frozen=True)
class ReversalOutcome:
    status: str
    word: tuple = None  # u \ v when complete
    remainder: tuple = None  # v \ u when complete
    steps: int = 0

    @property
    def complete(self) -> bool:
        return self.status == COMPLETE


def reverse(u, v, table: ComplementTable, budget: int = 10000) -> ReversalOutcome:
    """Compute u \\ v by subword reversing over the complement table.

    The signed word u^-1 v is rewritten by replacing the leftmost factor
    s^-1 t with (s \\ t)(t \\ s)^-1 until every positive letter precedes
    every negative one.  The positive prefix is then u \\ v and the inverted
    negative suffix is v \\ u.  Each replacement costs one step against the
    budget; running out is reported as a status, not an error.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    # signed letter = (generator, sign)
    signed = [(x, -1) for x in reversed(tuple(u))]
    signed += [(y, 1) for y in v]
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
            return ReversalOutcome(COMPLETE, word, remainder, steps)
        if steps >= budget:
            return ReversalOutcome(STEP_BUDGET_EXCEEDED, steps=steps)
        steps += 1
        s, t = signed[spot][0], signed[spot + 1][0]
        head = table.entries[(s, t)]
        tail = table.entries[(t, s)]
        patch = [(x, 1) for x in head]
        patch += [(x, -1) for x in reversed(tail)]
        signed[spot:spot + 2] = patch


REVERSAL_BUDGET_EXCEEDED = "reversal-budget-exceeded"


@dataclass(frozen=True)
class CubeReport:
    triple: tuple
    w1: tuple
    w2: tuple
    verdict: str
    witness: tuple = None


def cube_condition_check(p: Presentation, x: int, y: int, z: int,
                         budget: int = 10000, max_len: int | None = None,
                         max_states: int = 10**6) -> CubeReport:
    """Evaluate the cube condition on the generator triple (x, y, z).

    Computes w1 = (x \\ y) \\ (x \\ z) and w2 = (y \\ x) \\ (y \\ z) and asks
    the search oracle whether they agree in the monoid.  A presentation
    passing the condition would make them equal; for the presentation above
    with (x, y, z) = (1, 2, 3) they are c b a and c b a b, and the verdict
    stays away from "equal" for any bound.
    """
    table = complement_table(p)
    for g in (x, y, z):
        if not 1 <= g <= p.generators:
            raise ValueError("generator %r out of range" % (g,))
    first = reverse(table.complement(x, y), table.complement(x, z), table, budget)
    second = reverse(table.complement(y, x), table.complement(y, z), table, budget)
    if not (first.complete and second.complete):
        return CubeReport((x, y, z), first.word, second.word,
                          REVERSAL_BUDGET_EXCEEDED)
    verdict = bfs_equal(p, first.word, second.word,
                        max_len=max_len, max_states=max_states)
    return CubeReport((x, y, z), first.word, second.word,
                      verdict.status, verdict.witness)


def upper_bound_census(p: Presentation,
                       targets=((2, 3, 2), (3, 1, 2, 3, 2, 1, 2)),
                       max_len: int = 9,
                       max_states: int = 10**6) -> Report:
    """Enumerate two upper-bound classes of {[b], [c]} and check their shapes.

    The defaults are the words b c b and c a b c b a b.  Within the length
    bound the first class must be exactly the words c^k b c b, no word of
    the second class may start with b c b (so the second element does not
    sit above the first), and the classes must be disjoint.  This is the
    bounded content of the no-join argument; the classes are infinite, so
    the closures are deliberately truncated at max_len.  The report's
    details are `max_len`, `first_class` and `second_class`.
    """
    if len(targets) != 2:
        raise ValueError("census expects exactly two target words")
    first, second = (tuple(t) for t in targets)
    first_class, _ = congruence_closure(p, first, max_len, max_states)
    second_class, _ = congruence_closure(p, second, max_len, max_states)
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
    return Report(checks, failures, {"max_len": max_len,
                                     "first_class": first_class,
                                     "second_class": second_class})
