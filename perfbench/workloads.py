"""The three workloads: input generation, the timed operation, output checks.

Every workload is a closed loop with one client in one process and one
thread.  Inputs come only from the seed and are generated before timing,
in blocks that each hold the whole mix (every op kind, family and length
stratum), so any prefix of the pool a time-bounded run gets through has
nearly the same mix whatever the seed.

A check returns (correct, decided).  Checks use references computed
before timing (iterated single steps on short words, construction facts)
and tests that do not go through the normalizer under test (irreducibility
under the matchers, letter invariants, witness chains replayed through
``one_step_related``).  Only the oracle checks use the rewriter, to see
that conclusive verdicts agree with it; they use the reducers captured
when this module was imported, so a reducer swapped in later, as the
self-test does, is judged against the original.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random

from aimonoids import cli, cube, monoid_core, rewrite_a, rewrite_m

#: state cap of every oracle query in the ``oracle`` workload
STATE_BUDGET = 5_000
#: words up to this length get a reference normal form by iterated single steps
SHORT_WORD = 40
GOLDEN = (5 ** 0.5 - 1) / 2

_REDUCE = {"A": rewrite_a.a_reduce, "M": rewrite_m.m_reduce}
_MATCHES = {"A": rewrite_a.a_matches, "M": rewrite_m.m_matches}
_STEP = {"A": rewrite_a.a_step, "M": rewrite_m.m_step}
_ONE_STEP = monoid_core.one_step_related


class Op:
    """One benchmark operation: a kind, its arguments, and what checks need."""

    __slots__ = ("kind", "args", "info", "verified")

    def __init__(self, kind, args, **info):
        self.kind = kind
        self.args = args
        self.info = info
        self.verified = None  # a result already checked, cached for later passes

    def describe(self) -> str:
        return repr((self.kind, self.args))


def _presentation(system: str, rank: int):
    matrix = monoid_core.chain_ci_matrix(rank)
    if system == "A":
        return monoid_core.ai_presentation(matrix)
    return monoid_core.ci_presentation(matrix)


def _iterate_steps(system: str, word):
    step = _STEP[system]
    w = tuple(word)
    while True:
        nxt = step(w)
        if nxt is None:
            return w
        w = nxt


def normal_form_ok(system: str, word, nf) -> bool:
    """Checks on a claimed normal form that do not use the normalizer.

    No rule matches; the letter set is kept (every relation of both
    systems uses the same letters on each side); in system A the number
    of x1 letters is kept (x1 only occurs in the 1-2 relation, twice on
    each side).
    """
    if not isinstance(nf, tuple) or _MATCHES[system](nf):
        return False
    if set(nf) != set(word):
        return False
    return system == "M" or nf.count(1) == tuple(word).count(1)


def spread_cycle(items, start: int = 0):
    """Cycle through `items` from `start` with a golden-ratio stride.

    For items sorted by cost, any run of consecutive picks samples the
    whole range evenly, so a run that stops part-way through a cycle still
    gets nearly the same mix.
    """
    n = len(items)
    stride = round(n * GOLDEN)
    while math.gcd(stride, n) != 1:
        stride += 1
    k = start % n
    while True:
        yield items[k]
        k = (k + stride) % n


# ---------------------------------------------------------------------------
# wordproblem


def descending_word(length: int, period: int = 50):
    """The adversarial word ((L - i) mod period) + 1 for i = 0 .. L-1."""
    return tuple(((length - i) % period) + 1 for i in range(length))


class WordProblem:
    """Seeded a/m reduce and equal calls through the library API.

    90% random words at ranks 6 and 20, lengths log-uniform over 16-3200;
    10% descending-run words with L in 200-1600.  Half of the equal pairs
    are related by random relation replacements, so they are equal.  The
    other half are drawn independently over the letters below the top
    letter of the first word, so they are not: both systems keep the set
    of letters of a word (see normal_form_ok).
    """

    name = "wordproblem"
    KINDS = ("a_reduce", "m_reduce", "a_equal", "m_equal")
    RANDOM_STRATA = 9  # log-length strata per rank, per kind, per block
    MIN_LEN, MAX_LEN = 16, 3200
    DESC_STRATA = ((200, 900), (900, 1600))
    BLOCKS = 16

    def setup(self):
        self.pres = {(s, r): _presentation(s, r) for s in "AM" for r in (6, 20, 50)}

    def generate(self, seed: int) -> list:
        rng = random.Random(seed)
        # positions within the length strata follow a golden-ratio sequence
        # from a seeded start, so every run spreads its lengths evenly
        start = rng.random()
        jitter = ((start + k * GOLDEN) % 1 for k in itertools.count())
        ops = []
        for block in range(self.BLOCKS):
            batch = []
            for kind in self.KINDS:
                slot = 0
                for rank in (6, 20):
                    for stratum in range(self.RANDOM_STRATA):
                        frac = (stratum + next(jitter)) / self.RANDOM_STRATA
                        length = round(self.MIN_LEN * (self.MAX_LEN / self.MIN_LEN) ** frac)
                        word = tuple(rng.randint(1, rank) for _ in range(length))
                        # below the top letter of word: a plain word of lower rank
                        top = max(word)
                        other = tuple(rng.randint(1, top - 1) for _ in range(length))
                        batch.append(self._op(rng, kind, "rank%d" % rank, rank,
                                              word, other, (slot + block) % 2 == 0))
                        slot += 1
                for lo, hi in self.DESC_STRATA:
                    word = descending_word(lo + round((hi - lo) * next(jitter)))
                    # period 49: no letter 50, which every word of the family has
                    other = descending_word(lo + round((hi - lo) * next(jitter)), period=49)
                    batch.append(self._op(rng, kind, "descending", 50, word, other,
                                          (slot + block) % 2 == 0))
                    slot += 1
            rng.shuffle(batch)
            ops += batch
        return ops

    def _op(self, rng, kind, family, rank, word, other, related):
        system = kind[0].upper()
        info = {"system": system, "family": family, "length": len(word), "ref": None}
        if kind.endswith("reduce"):
            if len(word) <= SHORT_WORD:
                info["ref"] = _iterate_steps(system, word)
            return Op(kind, (word,), **info)
        if related:
            other = monoid_core.random_rewrite(self.pres[(system, rank)], word, rng,
                                               rng.randint(1, 8))
        info["related"] = related
        return Op(kind, (word, other), **info)

    def execute(self, op):
        module = rewrite_a if op.kind[0] == "a" else rewrite_m
        return getattr(module, op.kind)(*op.args)

    def check(self, op, result):
        if op.verified is not None:
            return result == op.verified, True
        if op.kind.endswith("reduce"):
            ref = op.info["ref"]
            ok = (result == ref if ref is not None
                  else normal_form_ok(op.info["system"], op.args[0], result))
        else:
            ok = isinstance(result, bool) and result == op.info["related"]
        if ok:
            op.verified = result
        return ok, True


# ---------------------------------------------------------------------------
# verify


class Verify:
    """Round-robin over the nine verify harnesses through ``cli.main --json``.

    Small sizes, so that one pass takes well under a second; the seed of
    the randomized harnesses changes every pass.
    """

    name = "verify"
    PASSES = 80

    def setup(self):
        # the harnesses build their tables inside each op; set-up is the CLI's
        cli.build_parser()

    def generate(self, seed: int) -> list:
        ops = []
        for k in range(self.PASSES):
            s = str(seed * 1000 + k)
            for argv in (
                ["confluence-m", "--rank", "4", "--seed", s],
                ["confluence-a", "--rank", "5", "--seed", s],
                ["sink", "--rank", "4", "--seed", s],
                ["garside", "--rank", "4", "--seed", s],
                ["cancel", "--seed", s],
                ["linrep"],
                ["cube"],
                ["rank2"],
                ["action"],
            ):
                ops.append(Op("verify", tuple(["verify"] + argv + ["--json"]),
                              harness=argv[0]))
        return ops

    def execute(self, op):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(op.args))
        return code, out.getvalue()

    def check(self, op, result):
        code, text = result
        try:
            report = json.loads(text)
        except ValueError:
            return False, False
        decided = code in (0, 1)
        ok = (code == 0 and report.get("command") == "verify " + op.info["harness"]
              and report.get("failures") == []
              and isinstance(report.get("checks_run"), int) and report["checks_run"] > 0)
        return ok, decided


# ---------------------------------------------------------------------------
# oracle


class Oracle:
    """Bounded search queries: bfs_equal, class closures and cube products.

    Every query runs at STATE_BUDGET states.  bfs_equal pairs are over the
    chain presentations at ranks 3 and 4, words of length 3-8, half of them
    related by random relation replacements.  Closures enumerate classes of
    normal forms of words up to length 5 at rank 3, length cap 12, as in
    acceptance criterion 02.  Cube queries compare u (u\\v) with v (v\\u)
    for |u|, |v| <= 3 in the cube presentation.
    """

    name = "oracle"
    BLOCKS = 120
    CLOSURE_CAP = 12

    def setup(self):
        self.pres = {(s, r): _presentation(s, r) for s in "AM" for r in (3, 4)}
        self.cube = cube.cube_presentation()
        self.table = cube.complement_table(self.cube)

    def generate(self, seed: int) -> list:
        rng = random.Random(seed)
        short = [w for k in range(6) for w in itertools.product((1, 2, 3), repeat=k)]
        # the same class sequence for every seed: a few M classes cost far
        # more than the rest, and a seeded order would move ops/s by seed
        closures = {s: spread_cycle(sorted(set(_REDUCE[s](w) for w in short),
                                           key=lambda w: (len(w), w)))
                    for s in "AM"}
        cube_words = [w for k in range(4) for w in itertools.product((1, 2, 3), repeat=k)]
        # ordered by product length: the long products are the costly ones
        pairs = sorted(((u, v) for u in cube_words for v in cube_words),
                       key=self._cube_product_length)
        cubes = spread_cycle(pairs, rng.randrange(len(pairs)))
        ops = []
        for block in range(self.BLOCKS):
            batch = []
            for system, rank, related in itertools.product("AM", (3, 4), (True, False)):
                for slot in (2 * block, 2 * block + 1):
                    # every (|u|, |v|) in 3..8 x 3..8 once per 18 blocks
                    u = tuple(rng.randint(1, rank) for _ in range(3 + slot % 6))
                    if related:
                        v = monoid_core.random_rewrite(self.pres[(system, rank)], u, rng,
                                                       rng.randint(1, 4))
                    else:
                        v = tuple(rng.randint(1, rank)
                                  for _ in range(3 + (slot // 6 + slot) % 6))
                    batch.append(Op("bfs_equal", (system, rank, u, v), related=related))
            for system in "AMAM":
                batch.append(Op("closure", (system, next(closures[system]))))
            for _ in range(12):
                batch.append(Op("cube", next(cubes)))
            rng.shuffle(batch)
            ops += batch
        return ops

    def _cube_product_length(self, pair):
        u, v = pair
        return (len(u) + len(cube.reverse(u, v, self.table).word), pair)

    def execute(self, op):
        if op.kind == "bfs_equal":
            system, rank, u, v = op.args
            return monoid_core.bfs_equal(self.pres[(system, rank)], u, v,
                                         max_states=STATE_BUDGET)
        if op.kind == "closure":
            system, start = op.args
            return monoid_core.congruence_closure(self.pres[(system, 3)], start,
                                                  self.CLOSURE_CAP, STATE_BUDGET)
        u, v = op.args
        reversals = cube.reverse(u, v, self.table), cube.reverse(v, u, self.table)
        if not all(r.complete for r in reversals):
            return reversals, None
        a, b = u + reversals[0].word, v + reversals[1].word
        verdict = monoid_core.bfs_equal(self.cube, a, b, max_len=max(len(a), len(b)) + 4,
                                        max_states=STATE_BUDGET)
        return reversals, verdict

    def check(self, op, result):
        if op.kind == "bfs_equal":
            system, rank, u, v = op.args
            return self._check_verdict(self.pres[(system, rank)], u, v, result,
                                       _REDUCE[system], op.info["related"])
        if op.kind == "closure":
            system, start = op.args
            states, complete = result
            nf = _REDUCE[system](start)
            ok = (start in states and len(states) <= STATE_BUDGET
                  and all(len(w) <= self.CLOSURE_CAP for w in states)
                  and all(_REDUCE[system](w) == nf for w in itertools.islice(states, 16)))
            return ok, complete
        # both reversals must finish; the products are equal in the
        # monoid, so never distinct
        reversals, verdict = result
        if verdict is None:
            return False, False
        u, v = op.args
        a, b = u + reversals[0].word, v + reversals[1].word
        return self._check_verdict(self.cube, a, b, verdict, None, True)

    @staticmethod
    def _check_verdict(p, u, v, verdict, reduce_fn, related):
        """A conclusive verdict must agree with the rewriter (when there is one);
        an EQUAL witness must be a chain of single relation replacements; a
        pair known to be equal must never come out distinct."""
        status = verdict.status
        decided = status in (monoid_core.EQUAL, monoid_core.DISTINCT_WITHIN_BOUND)
        if status == monoid_core.EQUAL:
            chain = verdict.witness
            ok = (chain[0] == tuple(u) and chain[-1] == tuple(v)
                  and all(_ONE_STEP(p, x, y) for x, y in zip(chain, chain[1:])))
            if reduce_fn is not None:
                ok = ok and reduce_fn(u) == reduce_fn(v)
        elif status == monoid_core.DISTINCT_WITHIN_BOUND:
            ok = not related and (reduce_fn is None or reduce_fn(u) != reduce_fn(v))
        else:
            ok = status == monoid_core.INCONCLUSIVE
        return ok, decided


WORKLOADS = {w.name: w for w in (WordProblem, Verify, Oracle)}
