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

from .monoid_core import EQUAL, Presentation, Report, bfs_equal, congruence_closure
from .words import require_ints, validate_word

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
    entries = {(s, s): () for s in range(1, p.generators + 1)}
    for lhs, rhs in p.relations:
        if not lhs or not rhs:
            raise ValueError("not complemented: relation with an empty side")
        s, t = lhs[0], rhs[0]
        if s == t:
            raise ValueError(
                "not complemented: both sides start with generator %d" % s)
        pair = (min(s, t), max(s, t))
        if pair in entries:
            raise ValueError(
                "not complemented: two relations on the pair %d, %d" % pair)
        entries[(s, t)] = lhs[1:]
        entries[(t, s)] = rhs[1:]
    for s in range(1, p.generators + 1):
        for t in range(s + 1, p.generators + 1):
            if (s, t) not in entries:
                raise ValueError(
                    "not complemented: no relation on the pair %d, %d" % (s, t))
    return ComplementTable(entries)


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

    The word is read once, left to right.  What has been read never holds
    a factor s^-1 t, so it is the letters of `positive` followed by the
    inverses of `negative`, both in reading order.  The leftmost s^-1 t is
    thus the last negative letter read against the next letter, when that
    one is positive; its replacement goes back on the unread stack, ahead
    of everything to its right.
    """
    require_ints(budget=budget)
    if budget < 1:
        raise ValueError("budget must be at least 1")
    u, v = tuple(u), tuple(v)
    for x in u + v:
        table.complement(x, x)  # raises for a letter outside the table
    positive = []
    negative = list(reversed(u))
    unread = [(y, 1) for y in reversed(v)]  # (generator, sign), next one last
    steps = 0
    while unread:
        t, sign = unread.pop()
        if sign < 0:
            negative.append(t)
        elif not negative:
            positive.append(t)
        elif steps >= budget:
            return ReversalOutcome(STEP_BUDGET_EXCEEDED, steps=steps)
        else:
            steps += 1
            s = negative.pop()
            unread += [(x, -1) for x in table.complement(t, s)]
            unread += [(x, 1) for x in reversed(table.complement(s, t))]
    return ReversalOutcome(COMPLETE, tuple(positive), tuple(reversed(negative)),
                           steps)


REVERSAL_BUDGET_EXCEEDED = "reversal-budget-exceeded"


def cube_condition_check(p: Presentation, x: int, y: int, z: int,
                         budget: int = 10000) -> Report:
    """Evaluate the cube condition on the generator triple (x, y, z).

    Computes w1 = (x \\ y) \\ (x \\ z) and w2 = (y \\ x) \\ (y \\ z) and asks
    the search oracle whether they agree in the monoid.  A presentation
    passing the condition would make them equal; for the presentation above
    with (x, y, z) = (1, 2, 3) they are c b a and c b a b, and the verdict
    stays away from "equal" for any bound.  One check, failed by any
    verdict but EQUAL; the details are `triple`, `w1`, `w2`, `verdict`
    and `witness` (a word is None when its reversal ran out of budget).
    """
    table = complement_table(p)
    validate_word((x, y, z), p.generators)
    first = reverse(table.complement(x, y), table.complement(x, z), table, budget)
    second = reverse(table.complement(y, x), table.complement(y, z), table, budget)
    verdict, witness = REVERSAL_BUDGET_EXCEEDED, None
    if first.complete and second.complete:
        oracle = bfs_equal(p, first.word, second.word)
        verdict, witness = oracle.status, oracle.witness
    failures = [] if verdict == EQUAL else [(verdict, first.word, second.word)]
    return Report(1, failures, {"triple": (x, y, z), "w1": first.word,
                                "w2": second.word, "verdict": verdict,
                                "witness": witness})


def upper_bound_census(p: Presentation,
                       targets=((2, 3, 2), (3, 1, 2, 3, 2, 1, 2)),
                       max_len: int = 9) -> Report:
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
    require_ints(max_len=max_len)
    for t in (first, second):
        if max_len < len(t):
            raise ValueError("census max_len %d is below the length %d of the target %s"
                             % (max_len, len(t), t))
    first_class, _ = congruence_closure(p, first, max_len)
    second_class, _ = congruence_closure(p, second, max_len)
    expected = {(3,) * k + first for k in range(max_len - len(first) + 1)}
    failures = [("shape", w) for w in sorted(first_class - expected)]
    failures += [("missing", w) for w in sorted(expected - first_class)]
    failures += [("prefix", w) for w in sorted(second_class) if w[:len(first)] == first]
    failures += [("overlap", w) for w in sorted(first_class & second_class)]
    return Report(len(first_class) + len(expected) + len(second_class) + 1, failures,
                  {"max_len": max_len, "first_class": first_class,
                   "second_class": second_class})


def cube_counterexample(budget: int = 10000, max_len: int = 9) -> Report:
    """The counterexample of this module: the cube condition fails on
    (a, b, c) and the census of the two upper-bound classes holds.

    The checks are the census's and one for the cube condition, which
    fails when its words come out equal or a reversal runs out of budget;
    the census's failures come first.  The details are those of
    `cube_condition_check` and `upper_bound_census`.
    """
    p = cube_presentation()
    check = cube_condition_check(p, 1, 2, 3, budget)
    census = upper_bound_census(p, max_len=max_len)
    failures = list(census.failures)
    if check.verdict == EQUAL:
        failures.append(("cube-condition-held", check.w1, check.w2))
    if check.verdict == REVERSAL_BUDGET_EXCEEDED:
        failures.append(("reversal-budget-exceeded",))
    return Report(1 + census.checks_run, failures, {**check.details, **census.details})
