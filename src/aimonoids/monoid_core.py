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
import random
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, product
from types import MappingProxyType

from .words import Word, alternating, is_numeral, random_word, validate_word

INFINITY = math.inf

# bfs_equal verdicts
EQUAL = "equal"
DISTINCT_WITHIN_BOUND = "distinct-within-bound"
INCONCLUSIVE = "inconclusive"

# a bfs_equal search that can reach at most this many words runs even when
# a rank-2 quotient separates its words, and reports its count of states
_SHORT_SEARCH = 1000


@dataclass(frozen=True)
class CIMatrix:
    """Square matrix of m-values over generators 1..size, diagonal fixed at 1;
    read-only once built, and `valid` records the CI conditions checked then."""

    size: int
    m: MappingProxyType  # ordered pair (a, b), a != b  ->  int >= 2 or INFINITY
    valid: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "m", MappingProxyType(dict(self.m)))
        object.__setattr__(self, "valid", _ci_conditions(self.size, self.m))

    def __reduce__(self):
        return CIMatrix, (self.size, dict(self.m))


def _ci_conditions(n: int, m) -> bool:
    """The three CI conditions; each is symmetric, so one visit per pair a < b."""
    if n < 1:
        return False
    for a, b in combinations(range(1, n + 1), 2):
        v = m.get((a, b))
        w = m.get((b, a))
        if v is None or w is None:
            return False
        for x in (v, w):
            if x != INFINITY and (not isinstance(x, int) or x < 2):
                return False
        # |v - w| <= 1, and so an infinity only opposite an infinity
        if v != w and abs(v - w) > 1:
            return False
    return True


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
    """Whether the matrix meets the three CI conditions; never raises."""
    return matrix.valid


def _require_ci(matrix: CIMatrix) -> None:
    if not matrix.valid:
        raise ValueError("not a valid CI matrix")


def load_ci_matrix(text: str) -> CIMatrix:
    """Parse the matrix file format: a "rank N" line, then "a b m" lines.

    N, a, b and m are ASCII numerals, m may also be the token "inf"; pairs
    not listed default to 2.
    """
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].split()[0] != "rank":
        raise ValueError('matrix file must start with a "rank N" line')
    head = lines[0].split()
    if len(head) != 2 or not is_numeral(head[1]):
        raise ValueError(f"bad rank line: {lines[0]!r}")
    size = int(head[1])
    entries = {}
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 3 or not (is_numeral(parts[0]) and is_numeral(parts[1])
                                   and (parts[2] == "inf" or is_numeral(parts[2]))):
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
    """Relations lhs = rhs over generators 1..generators, their letters
    checked when built; `rewrites` records the oracle's byte rewrites then."""

    generators: int
    relations: tuple  # of (Word, Word) pairs
    rewrites: tuple | None = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        n = self.generators
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise ValueError(f"generators must be a non-negative integer, got {n!r}")
        try:
            rels = [(tuple(u), tuple(v)) for u, v in self.relations]
        except (TypeError, ValueError):
            raise ValueError("relations must be a sequence of word pairs") from None
        rels = tuple((validate_word(u, n), validate_word(v, n)) for u, v in rels)
        object.__setattr__(self, "relations", rels)
        object.__setattr__(self, "rewrites", _byte_rewrites(n, rels))

    @cached_property
    def pumps(self) -> tuple | None:
        """The distinct left-hand sides of the pumping rewrites, those whose
        longer right-hand side contains the left-hand side (x -> xx); None
        unless the oracle takes the relations and each has one letter set on
        both sides.  Found on first use, since only `bfs_equal` reads it."""
        if self.rewrites is None or any(set(lhs) != set(rhs)
                                        for lhs, rhs in self.relations):
            return None
        return tuple(dict.fromkeys(lhs for lhs, rhs in self.rewrites
                                   if len(rhs) > len(lhs) and lhs in rhs))

    @cached_property
    def quotients(self) -> tuple:
        """The verified rank-2 quotients: (a, b, k, l, ra, rb) for each pair
        of generators a < b and each `rank2_monoid(k, l)`, 2 <= k <= longest
        relation + 1, under which both sides of every relation have one
        image, when a maps to the first generator, b to the second and every
        other letter to the identity.  ra[e] and rb[e] are the element
        indices of e * a and e * b, the identity being element 0.  Found on
        first use, as `pumps` is."""
        longest = max((len(w) for rel in self.relations for w in rel), default=0)
        actions = []
        for k in range(2, longest + 2):
            for l in (k - 1, k, k + 1):
                if l >= 2:
                    monoid = rank2_monoid(k, l)
                    actions.append((k, l) + tuple(tuple(row[g] for row in monoid.table)
                                                  for g in monoid.generators))
        return tuple(q for a, b in combinations(range(1, self.generators + 1), 2)
                     for q in ((a, b) + act for act in actions)
                     if all(_image(q, lhs) == _image(q, rhs) for lhs, rhs in self.relations))

    @cached_property
    def search_rewrites(self) -> tuple | None:
        """(lhs, rhs, len(lhs), len(rhs) - len(lhs), x) for each of the
        `rewrites`, in their order: x is the letter when both sides are
        powers of one letter, else -1.  None when `rewrites` is.  Found on
        first use by the search or the sampler, as `pumps` is."""
        if self.rewrites is None:
            return None
        return tuple((lhs, rhs, len(lhs), len(rhs) - len(lhs),
                      lhs[0] if len(set(lhs + rhs)) == 1 else -1)
                     for lhs, rhs in self.rewrites)


def _byte_rewrites(generators: int, relations: tuple):
    """lhs -> rhs, then rhs -> lhs, for each relation with distinct sides, in
    relation order; None when the oracle cannot take the presentation (more
    than 255 generators, or a relation with an empty side)."""
    if generators > 255 or not all(lhs and rhs for lhs, rhs in relations):
        return None
    pairs = [(bytes(lhs), bytes(rhs)) for lhs, rhs in relations if lhs != rhs]
    return tuple(sub for pair in pairs for sub in (pair, pair[::-1]))


def _pair_relations(matrix: CIMatrix, with_extension: bool):
    """Alternating-word relations, one or two per unordered generator pair.

    For each pair the balance relation [a,b; m(a,b)] = [b,a; m(b,a)] is
    emitted once, oriented so that m(a,b) <= m(b,a); with_extension adds
    [a,b; m(a,b)] = [a,b; m(a,b)+1] in the same orientation.  The mirrored
    extension is a consequence and is left out.
    """
    rels = []
    for a, b in combinations(range(1, matrix.size + 1), 2):
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
    _require_ci(matrix)
    rels = [((a, a), (a,)) for a in range(1, matrix.size + 1)]
    rels += _pair_relations(matrix, with_extension=True)
    return Presentation(matrix.size, tuple(rels))


def ai_presentation(matrix: CIMatrix) -> Presentation:
    """Balance relations only; generators are not idempotent."""
    _require_ci(matrix)
    return Presentation(matrix.size, tuple(_pair_relations(matrix, with_extension=False)))


@dataclass(frozen=True)
class OracleVerdict:
    status: str  # EQUAL, DISTINCT_WITHIN_BOUND or INCONCLUSIVE
    witness: tuple | None = None  # chain of words for EQUAL
    states_explored: int = field(default=0, compare=False)  # 0: no search ran


def _oracle_words(p: Presentation, *words) -> list:
    """The words, checked against p's generators, as the oracle's bytes."""
    checked = [validate_word(w, p.generators) for w in words]
    if p.rewrites is None:
        raise ValueError("oracle supports at most 255 generators" if p.generators > 255
                         else "relations with an empty side are not supported")
    return [bytes(w) for w in checked]


def _sites(w: bytes, steps, room: int):
    """Every rewrite site (i, lhs, rhs) in w of the rewrites `steps`
    (`Presentation.search_rewrites`) that lengthen a word by at most `room`,
    by rewrite, then by position; the search order, witness chains and
    random choices follow it."""
    for lhs, rhs, _, growth, _ in steps:
        if growth <= room:
            i = w.find(lhs)
            while i != -1:
                yield i, lhs, rhs
                i = w.find(lhs, i + 1)


def _image(q: tuple, w) -> int:
    """The element index of the image of w (a word, or its bytes) in the
    verified quotient q of `Presentation.quotients`."""
    a, b, _, _, ra, rb = q
    e = 0
    for x in w:
        if x == a:
            e = ra[e]
        elif x == b:
            e = rb[e]
    return e


def _may_search_long(letters: int, max_len: int, max_states: int) -> bool:
    """Whether a search from a word over `letters` letters may reach more
    than _SHORT_SEARCH words: its state cap does not stop it sooner, and more
    than that many words of length <= max_len use only those letters."""
    if max_states <= _SHORT_SEARCH:
        return False
    words = 0
    for n in range(max_len + 1):
        words += letters ** n
        if words > _SHORT_SEARCH:
            return True
    return False


def _search(steps, start: bytes, max_len: int, max_states: int,
            target: bytes | None = None):
    """Breadth-first closure of `start` under the rewrites `steps`
    (`Presentation.search_rewrites`).

    Returns (parent, complete, hit).  parent maps every word reached to the
    word it was first reached from (start to None).  complete is False when
    a neighbour was discarded for exceeding max_len or the state cap was
    hit.  hit says whether the search stopped on reaching `target`.

    The neighbours of w are taken in the order of `_sites`: by rewrite,
    then by position.  Each is handled as it comes: one longer than max_len
    sets complete False; one reached before is passed over; any other is
    refused at the state cap, else recorded and queued, and the search ends
    if it is the target.  Two kinds of neighbour are passed over without
    being built, and neither changes what that order gives:
    - A rewrite lhs -> rhs whose growth len(rhs) - len(lhs) exceeds
      max_len - len(w): every one of its neighbours has length
      len(w) + growth > max_len.  If lhs occurs in w, complete turns False
      at its first site, as the first discarded neighbour would make it,
      and nothing else would happen at the other sites.
    - For x^m -> x^k, every site inside one maximal run of x in w: each
      gives the run resized by k - m, so the same word as the run's first
      site, which comes first in the order.  That first word is recorded,
      reached before, or ends the search at the cap or on the target, so
      at each later site of the run it would already be reached.  The
      search resumes after the run; the next site starts the next run.
    """
    parent = {start: None}
    queue = [start]
    complete = True
    # breadth-first: the loop reads the list by index while it grows
    for w in queue:
        n = len(w)
        room = max_len - n
        for lhs, rhs, m, growth, x in steps:
            i = w.find(lhs)
            if i == -1:
                continue
            if growth > room:
                complete = False
                continue
            nw = w.replace(lhs, rhs, 1)
            while True:
                if nw not in parent:
                    if len(parent) >= max_states:
                        return parent, False, False
                    parent[nw] = w
                    if nw == target:
                        return parent, complete, True
                    queue.append(nw)
                if x < 0:
                    i = w.find(lhs, i + 1)
                else:
                    i += m
                    while i < n and w[i] == x:
                        i += 1
                    i = w.find(lhs, i)
                if i == -1:
                    break
                nw = w[:i] + rhs + w[i + m:]
    return parent, complete, False


def congruence_closure(p: Presentation, start, max_len: int, max_states: int = 10**6):
    """All words reachable from `start` by relation replacement within bounds.

    Returns (frozenset of words, complete) where complete is False when some
    neighbour was discarded for exceeding max_len or the state cap was hit.
    Below the state cap, bounded reachability is symmetric and transitive,
    so the returned set depends only on the class of `start` within the
    length bound.  When the cap cuts the search, the set is the first
    max_states words of a breadth-first order, and that depends on `start`:
    in `ci_presentation(chain_ci_matrix(3))` with max_len 8 and cap 50,
    (1, 2, 1) and (2, 1, 2, 1) reach each other but give different sets.
    """
    w0, = _oracle_words(p, start)
    if max_len < len(w0):
        raise ValueError("max_len below the start word length")
    if max_states < 1:
        raise ValueError("max_states must be positive")
    parent, complete, _ = _search(p.search_rewrites, w0, max_len, max_states)
    return frozenset(tuple(x) for x in parent), complete


def bfs_equal(p: Presentation, u, v, max_len: int | None = None,
              max_states: int = 10**6) -> OracleVerdict:
    """Decide u = v in the presented monoid by bounded breadth-first search.

    EQUAL comes with a witness chain of words, consecutive ones differing by
    a single relation replacement.  DISTINCT_WITHIN_BOUND is only returned
    when the closure of u was exhausted with nothing discarded, so it really
    is a proof relative to the bound.  Anything else is INCONCLUSIVE;
    `states_explored` counts the words the search reached.

    INCONCLUSIVE comes without a search (`states_explored` 0) when u holds
    a pump P -> R (R longer than P and containing it; `p.pumps`, found only
    when every relation keeps its letter set) and a homomorphism phi to a
    finite monoid separates u and v.  Two kinds of phi are tried, the
    cheaper first:
    - the letter set, the image in the free semilattice on the generators:
      a homomorphism because every relation keeps its letter set;
    - the verified rank-2 quotients `p.quotients`, but only when the search
      could reach more than _SHORT_SEARCH words (both max_states and the
      number of words of length <= max_len over u's letters exceed it); a
      shorter search runs and reports its count.
    The search would say the same:
    - v is unreachable: phi(P') = phi(R') for every relation P' = R', so
      phi(x P' y) = phi(x R' y), and every word reached has u's image.
    - The closure cannot be complete: pumping u reaches words of every
      length len(u) + k*g, g = len(R) - len(P), each still holding P, so
      one of length in (max_len - g, max_len] is reachable within the
      bound.  Expanding it discards its pumped neighbour, unless the state
      cap ends the search first; either way complete is False.
    Deleting every letter outside {a, b} and sending a and b to the
    generators of `rank2_monoid(k, l)` respects concatenation of words, but
    it is a homomorphism of the presented monoid only when both sides of
    each relation have one image: the rank-2 monoid's own relations are not
    p's.  `quotients` keeps a candidate only after that check, so a table
    that breaks one relation is dropped, never used.
    """
    bu, bv = _oracle_words(p, u, v)
    if max_len is None:
        max_len = len(bu) + len(bv) + 4
    if max_len < max(len(bu), len(bv)):
        raise ValueError("max_len smaller than an input word")
    if max_states < 1:
        raise ValueError("max_states must be positive")
    if bu == bv:
        return OracleVerdict(EQUAL, (tuple(bu),))
    letters = set(bu)
    if p.pumps and any(x in bu for x in p.pumps) and (
            letters != set(bv)
            or _may_search_long(len(letters), max_len, max_states)
            and any(_image(q, bu) != _image(q, bv) for q in p.quotients)):
        return OracleVerdict(INCONCLUSIVE)
    parent, complete, hit = _search(p.search_rewrites, bu, max_len, max_states, target=bv)
    if hit:
        chain = []
        cur = bv
        while cur is not None:
            chain.append(tuple(cur))
            cur = parent[cur]
        return OracleVerdict(EQUAL, tuple(reversed(chain)), states_explored=len(parent))
    return OracleVerdict(DISTINCT_WITHIN_BOUND if complete else INCONCLUSIVE,
                         states_explored=len(parent))


def one_step_related(p: Presentation, u, v) -> bool:
    """Whether v arises from u by one relation replacement (either direction)."""
    bu, bv = _oracle_words(p, u, v)
    return any(bu[:i] + rhs + bu[i + len(lhs):] == bv
               for i, lhs, rhs in _sites(bu, p.search_rewrites, len(bv) - len(bu)))


def random_rewrite(p: Presentation, word, rng, steps: int,
                   max_len: int | None = None) -> Word:
    """Apply up to `steps` random relation replacements, either direction,
    within max_len letters; bad bounds are refused before any draw."""
    w, = _oracle_words(p, word)
    if not isinstance(steps, int) or isinstance(steps, bool) or steps < 0:
        raise ValueError(f"steps must be a nonnegative int, got {steps!r}")
    if max_len is None:
        max_len = len(w) + 2 * steps + 4
    elif not isinstance(max_len, int) or isinstance(max_len, bool):
        raise ValueError(f"max_len must be an int, got {max_len!r}")
    if max_len < len(w):
        raise ValueError("max_len below the start word length")
    for _ in range(steps):
        sites = list(_sites(w, p.search_rewrites, max_len - len(w)))
        if not sites:
            break
        i, lhs, rhs = rng.choice(sites)
        del sites  # so the next step's list does not coexist with this one
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

    def __post_init__(self):
        if self.checks_run < 0:
            raise ValueError(f"checks_run must be nonnegative, got {self.checks_run}")

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
    leq = tuple(tuple(j in monoid.table[i] for j in range(size)) for i in range(size))
    return DivisibilityOrder(monoid.elements, leq)


def _antisymmetric(order: DivisibilityOrder) -> bool:
    leq = order.leq
    size = len(order.elements)
    return not any(i != j and leq[i][j] and leq[j][i]
                   for i in range(size) for j in range(size))


def is_lattice(order: DivisibilityOrder) -> bool:
    """Antisymmetry plus existence of binary meets and joins."""
    leq = order.leq
    size = len(order.elements)
    if not _antisymmetric(order):
        return False
    for i in range(size):
        for j in range(size):
            lows = [x for x in range(size) if leq[x][i] and leq[x][j]]
            ups = [x for x in range(size) if leq[i][x] and leq[j][x]]
            # a meet: a lower bound above every lower bound; a join dually
            if not any(all(leq[x][g] for x in lows) for g in lows):
                return False
            if not any(all(leq[g][x] for x in ups) for g in ups):
                return False
    return True


def _node_name(word) -> str:
    return ".".join(str(x) for x in word) if word else "e"


def hasse_dot(order: DivisibilityOrder, monoid: FiniteMonoid) -> str:
    """DOT digraph with an edge x -> x*s for each generator s that moves x."""
    if not _antisymmetric(order):
        raise ValueError("left division is not antisymmetric; no diagram")
    size = len(monoid.elements)
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


def rank2_harness(k: int, l: int) -> Report:
    """Two checks on `rank2_monoid(k, l)`: it has k + l elements, and left
    division is a lattice order.  The details are `monoid`, `order` and
    `lattice`."""
    monoid = rank2_monoid(k, l)
    order = left_division_order(monoid)
    lattice = is_lattice(order)
    failures = []
    if len(monoid.elements) != k + l:
        failures.append("size %d, expected %d" % (len(monoid.elements), k + l))
    if not lattice:
        failures.append("left division is not a lattice order")
    return Report(2, failures, {"monoid": monoid, "order": order, "lattice": lattice})


# ---------------------------------------------------------------------------
# reversal anti-automorphism


def reversal_respects_congruence(matrix: CIMatrix, samples: int = 100,
                                 seed: int = 0) -> Report:
    """Check that reading words backwards descends to the monoid.

    Only meaningful when no pair has m(a,b) + m(b,a) congruent to 1 mod 4;
    matrices violating that are refused outright.
    """
    _require_ci(matrix)
    for a, b in combinations(range(1, matrix.size + 1), 2):
        k, l = matrix.m[(a, b)], matrix.m[(b, a)]
        if k != INFINITY and (k + l) % 4 == 1:
            raise ValueError(
                f"pair ({a}, {b}) has m(a,b) + m(b,a) = {k + l} in 1 + 4Z; "
                "reversal does not descend to this monoid"
            )
    p = ci_presentation(matrix)
    rng = random.Random(seed)
    failures = []
    for _ in range(samples):
        base = random_word(rng, matrix.size, 6, 1)
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
    """Letters act on an (n+1)-tuple; letter a applies f at coordinates (a, a+1);
    read-only once built, and `failures` records the action check run then."""

    carrier: tuple
    f: MappingProxyType  # (x, y) -> (x, y)
    n: int
    failures: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "carrier", tuple(self.carrier))
        object.__setattr__(self, "f", MappingProxyType(dict(self.f)))
        object.__setattr__(self, "failures",
                           tuple(_action_failures(self.carrier, self.f)))

    def __reduce__(self):
        return TupleAction, (self.carrier, dict(self.f), self.n)


def pair_collapse_action(x_size: int, n: int) -> TupleAction:
    """The standard example f(x, y) = (x, x) on a carrier of the given size."""
    carrier = tuple(range(x_size))
    f = {(x, y): (x, x) for x in carrier for y in carrier}
    return TupleAction(carrier, f, n)


def _apply_letters(f, t: tuple, letters) -> tuple:
    """Apply f at coordinates (a, a+1) for each letter a, left to right."""
    for a in letters:
        x, y = f[(t[a - 1], t[a])]
        t = t[:a - 1] + (x, y) + t[a + 1:]
    return t


def _action_failures(carrier: tuple, f) -> list:
    """Violations of idempotence or the two composite identities, if any."""
    failures = []
    for pair in product(carrier, repeat=2):
        if pair not in f:
            failures.append(f"f undefined at {pair}")
            continue
        img = f[pair]
        if not (isinstance(img, tuple) and len(img) == 2
                and img[0] in carrier and img[1] in carrier):
            failures.append(f"f leaves the carrier at {pair}")
        elif f.get(img) != img:
            failures.append(f"idempotence fails: f(f{pair}) != f{pair}")
    if failures:
        return failures
    for t in product(carrier, repeat=3):
        lhs = _apply_letters(f, t, (1, 2, 1))
        if lhs != _apply_letters(f, t, (2, 1, 2, 1)):
            failures.append(f"braid identity f1 f2 f1 != f2 f1 f2 f1 at {t}")
        if lhs != _apply_letters(f, t, (1, 2, 1, 2)):
            failures.append(f"braid identity f1 f2 f1 != f1 f2 f1 f2 at {t}")
    return failures


def tuple_action_failures(act: TupleAction) -> list:
    """Violations of idempotence or the two composite identities, if any."""
    return list(act.failures)


def action_harness(n: int, carrier: int) -> Report:
    """The action checks of `pair_collapse_action(carrier, n)`: one
    idempotence check per pair, two braid comparisons per triple."""
    act = pair_collapse_action(carrier, n)
    return Report(carrier ** 2 + 2 * carrier ** 3, tuple_action_failures(act))


def tuple_action(act: TupleAction, word, t) -> tuple:
    """Act with a word, letters applied left to right."""
    if act.failures:
        raise ValueError(act.failures[0])
    t = tuple(t)
    if len(t) != act.n + 1:
        raise ValueError(f"need a tuple of length {act.n + 1}, got {len(t)}")
    for x in t:
        if x not in act.carrier:
            raise ValueError(f"tuple entry {x!r} outside the carrier")
    return _apply_letters(act.f, t, validate_word(word, act.n))
