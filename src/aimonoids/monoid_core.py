"""Defining data and ground-truth oracles for idempotent Artin/Coxeter monoids.

A CI matrix assigns to every ordered pair of distinct generators (a, b) a
value m(a, b) in {2, 3, ...} or infinity, subject to: infinities come in
symmetric pairs, and finite opposite entries differ by at most one.  The
Coxeter-flavoured monoid adds idempotent generators; the Artin-flavoured
monoid keeps only the alternating-word relations.

``bfs_equal`` is the independent oracle for the word problem: breadth-first
closure of a word under two-sided relation replacement, bounded in word
length and state count.  Everything faster in this package is expected to
agree with it.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

from .words import Word, alternating, validate_word

INFINITY = math.inf

# bfs_equal verdicts
EQUAL = "equal"
DISTINCT_WITHIN_BOUND = "distinct-within-bound"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class CIMatrix:
    """Square matrix of m-values over generators 1..size, diagonal fixed at 1."""

    size: int
    m: dict  # ordered pair (a, b), a != b  ->  int >= 2 or INFINITY


def make_ci_matrix(size: int, entries: dict | None = None, default: int = 2) -> CIMatrix:
    """Build a CIMatrix, filling unspecified off-diagonal entries with `default`."""
    if size < 1:
        raise ValueError("size must be at least 1")
    m = {}
    entries = entries or {}
    for a in range(1, size + 1):
        for b in range(1, size + 1):
            if a != b:
                m[(a, b)] = entries.get((a, b), default)
    for key in entries:
        if key not in m:
            raise ValueError(f"entry {key} outside the matrix")
    return CIMatrix(size, m)


def chain_ci_matrix(n: int) -> CIMatrix:
    """The asymmetric chain: m(a, a+1) = 3, m(a+1, a) = 4, everything else 2."""
    entries = {}
    for a in range(1, n):
        entries[(a, a + 1)] = 3
        entries[(a + 1, a)] = 4
    return make_ci_matrix(n, entries)


def validate_ci(matrix: CIMatrix) -> bool:
    """Check the three CI matrix conditions; never raises."""
    n = matrix.size
    if n < 1:
        return False
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            if a == b:
                continue
            v = matrix.m.get((a, b))
            w = matrix.m.get((b, a))
            if v is None or w is None:
                return False
            for x in (v, w):
                if x != INFINITY and (not isinstance(x, int) or x < 2):
                    return False
            # infinity only opposite infinity
            if (v == INFINITY) != (w == INFINITY):
                return False
            if v != INFINITY and abs(v - w) > 1:
                return False
    return True


def load_ci_matrix(text: str) -> CIMatrix:
    """Parse the matrix file format: a "rank N" line, then "a b m" lines.

    m is an integer or the token "inf"; pairs not listed default to 2.
    """
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("rank"):
        raise ValueError('matrix file must start with a "rank N" line')
    try:
        size = int(lines[0].split()[1])
    except (IndexError, ValueError):
        raise ValueError(f"bad rank line: {lines[0]!r}") from None
    entries = {}
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 3:
            raise ValueError(f"bad matrix line: {ln!r}")
        a, b = int(parts[0]), int(parts[1])
        val = INFINITY if parts[2] == "inf" else int(parts[2])
        if not (1 <= a <= size and 1 <= b <= size and a != b):
            raise ValueError(f"bad generator pair in line: {ln!r}")
        if (a, b) in entries:
            raise ValueError(f"duplicate entry for ({a}, {b})")
        entries[(a, b)] = val
    matrix = make_ci_matrix(size, entries)
    if not validate_ci(matrix):
        raise ValueError("entries violate the CI matrix conditions")
    return matrix


@dataclass(frozen=True)
class Presentation:
    generators: int
    relations: tuple  # of (Word, Word) pairs


def _pair_relations(matrix: CIMatrix, with_extension: bool):
    """Alternating-word relations, one or two per unordered generator pair.

    For each pair the balance relation [a,b; m(a,b)] = [b,a; m(b,a)] is
    emitted once, oriented so that m(a,b) <= m(b,a); with_extension adds
    [a,b; m(a,b)] = [a,b; m(a,b)+1] in the same orientation.  The mirrored
    extension is a consequence and is left out.
    """
    rels = []
    n = matrix.size
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            k, l = matrix.m[(a, b)], matrix.m[(b, a)]
            if k == INFINITY:
                continue
            if k > l:
                a, b, k, l = b, a, l, k
            rels.append((alternating(a, b, k), alternating(b, a, l)))
            if with_extension:
                rels.append((alternating(a, b, k), alternating(a, b, k + 1)))
    return rels


def ci_presentation(matrix: CIMatrix) -> Presentation:
    """Idempotent generators plus balance and extension relations."""
    if not validate_ci(matrix):
        raise ValueError("not a valid CI matrix")
    rels = [((a, a), (a,)) for a in range(1, matrix.size + 1)]
    rels += _pair_relations(matrix, with_extension=True)
    return Presentation(matrix.size, tuple(rels))


def ai_presentation(matrix: CIMatrix) -> Presentation:
    """Balance relations only; generators are not idempotent."""
    if not validate_ci(matrix):
        raise ValueError("not a valid CI matrix")
    return Presentation(matrix.size, tuple(_pair_relations(matrix, with_extension=False)))


@dataclass(frozen=True)
class OracleVerdict:
    status: str  # EQUAL, DISTINCT_WITHIN_BOUND or INCONCLUSIVE
    witness: tuple | None = None  # chain of words for EQUAL


def _byte_relations(p: Presentation):
    subs = []
    for lhs, rhs in p.relations:
        bl, br = bytes(lhs), bytes(rhs)
        if not bl or not br:
            raise ValueError("relations with an empty side are not supported")
        if bl != br:
            subs.append((bl, br))
            subs.append((br, bl))
    return subs


def _sites(w: bytes, subs) -> list:
    """Every (position, lhs, rhs) with lhs occurring in w at position.

    Ordered by relation, then by position; the search order, witness
    chains and random choices all follow this order.
    """
    sites = []
    for lhs, rhs in subs:
        i = w.find(lhs)
        while i != -1:
            sites.append((i, lhs, rhs))
            i = w.find(lhs, i + 1)
    return sites


def _search(p: Presentation, start: bytes, max_len: int, max_states: int,
            target: bytes | None = None):
    """Breadth-first closure of `start` under relation replacement.

    Returns (parent, complete, hit).  parent maps every word reached to the
    word it was first reached from (start to None).  complete is False when
    a neighbour was discarded for exceeding max_len or the state cap was
    hit.  hit says whether the search stopped on reaching `target`.
    """
    subs = _byte_relations(p)
    parent = {start: None}
    queue = deque([start])
    complete = True
    while queue:
        w = queue.popleft()
        for i, lhs, rhs in _sites(w, subs):
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


def congruence_closure(p: Presentation, start, max_len: int, max_states: int = 10**6):
    """All words reachable from `start` by relation replacement within bounds.

    Returns (frozenset of words, complete) where complete is False when some
    neighbour was discarded for exceeding max_len or the state cap was hit.
    Bounded reachability is symmetric and transitive, so the returned set
    depends only on the class of `start` within the bound.
    """
    w0 = bytes(validate_word(start, p.generators))
    if max_len < len(w0):
        raise ValueError("max_len below the start word length")
    parent, complete, _ = _search(p, w0, max_len, max_states)
    return frozenset(tuple(x) for x in parent), complete


def bfs_equal(p: Presentation, u, v, max_len: int | None = None,
              max_states: int = 10**6) -> OracleVerdict:
    """Decide u = v in the presented monoid by bounded breadth-first search.

    EQUAL comes with a witness chain of words, consecutive ones differing by
    a single relation replacement.  DISTINCT_WITHIN_BOUND is only returned
    when the closure of u was exhausted with nothing discarded, so it really
    is a proof relative to the bound.  Anything else is INCONCLUSIVE.
    """
    u = validate_word(u, p.generators)
    v = validate_word(v, p.generators)
    if p.generators > 255:
        raise ValueError("oracle supports at most 255 generators")
    if max_len is None:
        max_len = len(u) + len(v) + 4
    if max_len < max(len(u), len(v)):
        raise ValueError("max_len smaller than an input word")
    if max_states < 1:
        raise ValueError("max_states must be positive")
    bu, bv = bytes(u), bytes(v)
    if bu == bv:
        return OracleVerdict(EQUAL, (u,))
    parent, complete, hit = _search(p, bu, max_len, max_states, target=bv)
    if hit:
        chain = []
        cur = bv
        while cur is not None:
            chain.append(tuple(cur))
            cur = parent[cur]
        return OracleVerdict(EQUAL, tuple(reversed(chain)))
    return OracleVerdict(DISTINCT_WITHIN_BOUND if complete else INCONCLUSIVE)


def one_step_related(p: Presentation, u, v) -> bool:
    """Whether v arises from u by one relation replacement (either direction)."""
    bu, bv = bytes(validate_word(u)), bytes(validate_word(v))
    return any(bu[:i] + rhs + bu[i + len(lhs):] == bv
               for i, lhs, rhs in _sites(bu, _byte_relations(p)))


def random_rewrite(p: Presentation, word, rng, steps: int,
                   max_len: int | None = None) -> Word:
    """Apply up to `steps` random relation replacements, either direction."""
    w = bytes(validate_word(word, p.generators))
    if max_len is None:
        max_len = len(w) + 2 * steps + 4
    subs = _byte_relations(p)
    for _ in range(steps):
        sites = [(i, lhs, rhs) for i, lhs, rhs in _sites(w, subs)
                 if len(w) - len(lhs) + len(rhs) <= max_len]
        if not sites:
            break
        i, lhs, rhs = rng.choice(sites)
        w = w[:i] + rhs + w[i + len(lhs):]
    return tuple(w)


@dataclass
class Report:
    """Outcome of a verification harness: what ran and what failed.

    Harness-specific results go in `details`; each entry can also be read
    as an attribute (`rep.by_family` for `rep.details["by_family"]`).
    """

    checks_run: int
    failures: list = field(default_factory=list)
    details: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    def __getattr__(self, name):
        # through __dict__: copy and pickle probe attributes before
        # `details` is restored
        try:
            return self.__dict__["details"][name]
        except KeyError:
            raise AttributeError(name) from None


# ---------------------------------------------------------------------------
# the finite rank-2 monoid on two idempotents


@dataclass(frozen=True)
class FiniteMonoid:
    elements: tuple  # canonical words, identity first
    table: tuple  # table[i][j] = index of elements[i] * elements[j]
    identity: int
    generators: tuple  # element indices of the generators


def rank2_monoid(k: int, l: int) -> FiniteMonoid:
    """The monoid on two idempotents a, b with [a,b;k] = [a,b;k+1] = [b,a;l] = [b,a;l+1].

    Elements: the identity, proper alternating words from either side, and
    the sink Delta = [a,b;k] = [b,a;l].  Size k + l.  Only |k - l| <= 1 is
    meaningful; other inputs are refused.
    """
    if k < 2 or l < 2:
        raise ValueError("need k, l >= 2")
    if abs(k - l) > 1:
        raise ValueError("no such monoid on two idempotents: |k - l| must be <= 1")
    delta = alternating(1, 2, k)
    elements = [()]
    elements += [alternating(1, 2, p) for p in range(1, k)]
    elements += [alternating(2, 1, q) for q in range(1, l)]
    elements.append(delta)
    index = {w: i for i, w in enumerate(elements)}

    def normal(concat):
        out = []
        for x in concat:
            if out and out[-1] == x:
                continue  # idempotent letters
            out.append(x)
        if out:
            length = len(out)
            if (out[0] == 1 and length >= k) or (out[0] == 2 and length >= l):
                return delta
        return tuple(out)

    size = len(elements)
    table = tuple(
        tuple(index[normal(elements[i] + elements[j])] for j in range(size))
        for i in range(size)
    )
    for i in range(size):
        if table[0][i] != i or table[i][0] != i:
            raise AssertionError("identity does not act trivially")
    for i in range(size):
        for j in range(size):
            for t in range(size):
                if table[table[i][j]][t] != table[i][table[j][t]]:
                    raise AssertionError("multiplication table is not associative")
    return FiniteMonoid(tuple(elements), table, 0, (index[(1,)], index[(2,)]))


@dataclass(frozen=True)
class DivisibilityOrder:
    elements: tuple
    leq: tuple  # leq[i][j] = True iff elements[j] in elements[i] * M


def left_division_order(monoid: FiniteMonoid) -> DivisibilityOrder:
    size = len(monoid.elements)
    leq = tuple(
        tuple(any(monoid.table[i][z] == j for z in range(size)) for j in range(size))
        for i in range(size)
    )
    return DivisibilityOrder(monoid.elements, leq)


def is_lattice(order: DivisibilityOrder) -> bool:
    """Antisymmetry plus existence of binary meets and joins."""
    leq = order.leq
    size = len(order.elements)
    for i in range(size):
        for j in range(size):
            if i != j and leq[i][j] and leq[j][i]:
                return False

    def has_extremum(bounds, pick_greatest):
        for g in bounds:
            if pick_greatest and all(leq[x][g] for x in bounds):
                return True
            if not pick_greatest and all(leq[g][x] for x in bounds):
                return True
        return False

    for i in range(size):
        for j in range(size):
            lows = [x for x in range(size) if leq[x][i] and leq[x][j]]
            ups = [x for x in range(size) if leq[i][x] and leq[j][x]]
            if not has_extremum(lows, True) or not has_extremum(ups, False):
                return False
    return True


def _node_name(word) -> str:
    return ".".join(str(x) for x in word) if word else "e"


def hasse_dot(order: DivisibilityOrder, monoid: FiniteMonoid) -> str:
    """DOT digraph with an edge x -> x*s for each generator s that moves x."""
    leq = order.leq
    size = len(monoid.elements)
    for i in range(size):
        for j in range(size):
            if i != j and leq[i][j] and leq[j][i]:
                raise ValueError("left division is not antisymmetric; no diagram")
    lines = ["digraph hasse {", "  rankdir=BT;"]
    for w in monoid.elements:
        lines.append(f'  "{_node_name(w)}";')
    for i in range(size):
        for g in monoid.generators:
            j = monoid.table[i][g]
            if j != i:
                label = _node_name(monoid.elements[g])
                src = _node_name(monoid.elements[i])
                dst = _node_name(monoid.elements[j])
                lines.append(f'  "{src}" -> "{dst}" [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# reversal anti-automorphism


def reversal_respects_congruence(matrix: CIMatrix, samples: int = 100,
                                 seed: int = 0) -> Report:
    """Check that reading words backwards descends to the monoid.

    Only meaningful when no pair has m(a,b) + m(b,a) congruent to 1 mod 4;
    matrices violating that are refused outright.
    """
    import random as _random

    if not validate_ci(matrix):
        raise ValueError("not a valid CI matrix")
    for a in range(1, matrix.size + 1):
        for b in range(a + 1, matrix.size + 1):
            k, l = matrix.m[(a, b)], matrix.m[(b, a)]
            if k != INFINITY and (k + l) % 4 == 1:
                raise ValueError(
                    f"pair ({a}, {b}) has m(a,b) + m(b,a) = {k + l} in 1 + 4Z; "
                    "reversal does not descend to this monoid"
                )
    p = ci_presentation(matrix)
    rng = _random.Random(seed)
    failures = []
    for _ in range(samples):
        base = tuple(rng.randint(1, matrix.size) for _ in range(rng.randint(1, 6)))
        u = random_rewrite(p, base, rng, rng.randint(0, 3))
        v = random_rewrite(p, base, rng, rng.randint(0, 3))
        verdict = bfs_equal(p, u[::-1], v[::-1],
                            max_len=len(u) + len(v) + 8, max_states=200_000)
        if verdict.status != EQUAL:
            failures.append((u, v, verdict.status))
    return Report(samples, failures)


# ---------------------------------------------------------------------------
# actions on tuples


@dataclass(frozen=True)
class TupleAction:
    """Letters act on an (n+1)-tuple; letter a applies f at coordinates (a, a+1)."""

    carrier: tuple
    f: dict  # (x, y) -> (x, y)
    n: int


def pair_collapse_action(x_size: int, n: int) -> TupleAction:
    """The standard example f(x, y) = (x, x) on a carrier of the given size."""
    carrier = tuple(range(x_size))
    f = {(x, y): (x, x) for x in carrier for y in carrier}
    return TupleAction(carrier, f, n)


def tuple_action_failures(act: TupleAction) -> list:
    """Violations of idempotence or the two composite identities, if any."""
    carrier = act.carrier
    f = act.f
    failures = []
    for x in carrier:
        for y in carrier:
            if (x, y) not in f:
                failures.append(f"f undefined at {(x, y)}")
                continue
            img = f[(x, y)]
            if img[0] not in carrier or img[1] not in carrier:
                failures.append(f"f leaves the carrier at {(x, y)}")
            elif f[img] != img:
                failures.append(f"idempotence fails: f(f{(x, y)}) != f{(x, y)}")
    if failures:
        return failures

    def apply_at(t, pos):
        x, y = f[(t[pos], t[pos + 1])]
        return t[:pos] + (x, y) + t[pos + 2:]

    def chain(t, positions):
        for pos in positions:
            t = apply_at(t, pos)
        return t

    for x in carrier:
        for y in carrier:
            for z in carrier:
                t = (x, y, z)
                lhs = chain(t, (0, 1, 0))
                if lhs != chain(t, (1, 0, 1, 0)):
                    failures.append(
                        f"braid identity f1 f2 f1 != f2 f1 f2 f1 at {t}")
                if lhs != chain(t, (0, 1, 0, 1)):
                    failures.append(
                        f"braid identity f1 f2 f1 != f1 f2 f1 f2 at {t}")
    return failures


def tuple_action(act: TupleAction, word, t) -> tuple:
    """Act with a word, letters applied left to right."""
    bad = tuple_action_failures(act)
    if bad:
        raise ValueError(bad[0])
    t = tuple(t)
    if len(t) != act.n + 1:
        raise ValueError(f"need a tuple of length {act.n + 1}, got {len(t)}")
    for x in t:
        if x not in act.carrier:
            raise ValueError(f"tuple entry {x!r} outside the carrier")
    w = validate_word(word, act.n)
    for a in w:
        x, y = act.f[(t[a - 1], t[a])]
        t = t[:a - 1] + (x, y) + t[a + 1:]
    return t
