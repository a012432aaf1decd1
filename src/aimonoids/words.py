"""Words over integer letters and the partial-commutation congruence.

A word is a tuple of positive integers; letter ``a`` stands for the a-th
generator.  Distant letters commute: ``a b = b a`` whenever ``a - b >= 2``.
Every commutation class contains exactly one word with no adjacent
descending pair of gap two or more; ``b_reduced_form`` computes it.

>>> b_reduced_form((4, 2, 3, 1))
(2, 1, 4, 3)
"""

from __future__ import annotations

Word = tuple[int, ...]


def validate_word(word, rank: int | None = None) -> Word:
    """Coerce to a tuple and check that every letter is a valid generator.

    A plain positive int passes on one comparison; any other letter (a
    bool, an int subclass, a float, ...) gets the full isinstance test.
    """
    w = tuple(word)
    for x in w:
        if not (x.__class__ is int and x >= 1) and (
                not isinstance(x, int) or isinstance(x, bool) or x < 1):
            raise ValueError(f"letters must be positive integers, got {x!r}")
        if rank is not None and x > rank:
            raise ValueError(f"letter {x} out of range for rank {rank}")
    return w


def require_ints(**bounds) -> None:
    """Refuse a bound that is not an int (a bool is not one); a plain int
    passes on one comparison, any other gets the full isinstance test."""
    for name, x in bounds.items():
        if x.__class__ is not int and (not isinstance(x, int) or isinstance(x, bool)):
            raise ValueError(f"{name} must be an int, got {x!r}")


def is_numeral(token: str) -> bool:
    """Whether the token is an ASCII numeral: digits 0-9 only, no sign or "_"."""
    return token.isascii() and token.isdigit()


def parse_word(text: str, rank: int | None = None) -> Word:
    """Parse a whitespace-separated word of ASCII numerals; "" is the identity."""
    letters = []
    for p in text.split():
        if not is_numeral(p):
            raise ValueError(f"not a letter: {p!r}")
        letters.append(int(p))
    return validate_word(letters, rank)


def format_word(word) -> str:
    return " ".join(str(x) for x in word)


def descending_run(a: int, b: int) -> Word:
    """The run x_{a-1} x_{a-2} ... x_b, empty when a == b.

    Runs compose: descending_run(a, b) + descending_run(b, c) is
    descending_run(a, c) whenever a >= b >= c.
    """
    if not (a >= b >= 1):
        raise ValueError(f"need a >= b >= 1, got ({a}, {b})")
    return tuple(range(a - 1, b - 1, -1))


def nabla(n: int) -> Word:
    """The Garside word x1 (x2,x1] (x3,x1] ... (x_{n+1},x1], of length n(n+1)/2."""
    require_ints(n=n)
    if n < 1:
        raise ValueError("rank must be positive")
    out = []
    for a in range(2, n + 2):
        out.extend(descending_run(a, 1))
    return tuple(out)


def alternating(a: int, b: int, k: int) -> Word:
    """The alternating word a b a b ... of length k, starting with a."""
    if k < 0:
        raise ValueError("length must be nonnegative")
    return tuple(a if i % 2 == 0 else b for i in range(k))


def descent_inversions(word) -> int:
    """Number of pairs i < j with word[i] - word[j] >= 2.

    Together with the length this is the termination measure for both
    rewriting systems: a commutation step lowers it by exactly one and
    never touches the length, every other rule shortens the word.
    """
    w = tuple(word)
    return sum(
        1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] - w[j] >= 2
    )


def run_lengths(w) -> list:
    """The run table of w: entry k is the length of the descending run
    w[k], w[k] - 1, ... from k."""
    runs = []
    r = below = 0
    for x in reversed(w):
        r = r + 1 if x == below + 1 else 1
        runs.append(r)
        below = x
    runs.reverse()
    return runs


def _rerun(w, runs, k, lo) -> None:
    """Re-derive the run table entries k, k - 1, ... of w in place, down
    to lo and on below lo up to the first entry that keeps its value.

    runs must hold the entries after k of w's table, and below lo those
    of a word whose letters up to lo - 1 are w's (only letters from lo
    on changed).  Entry k is runs[k + 1] + 1 when w[k] == w[k + 1] + 1
    and 1 otherwise (1 for the last letter), so an entry below lo that
    keeps its value leaves every entry before it right.
    """
    if k + 1 < len(w):
        r, below = runs[k + 1], w[k + 1]
    else:
        r = below = 0  # the last entry is 1 whatever below is
    while k >= 0:
        x = w[k]
        r = r + 1 if x == below + 1 else 1
        if k < lo and runs[k] == r:
            return
        runs[k] = r
        below = x
        k -= 1


def commute_sort(w: list[int], cuts=None, runs=None) -> int:
    """Commutation-normalize a letter list in place; returns the move count.

    Insertion sort restricted to legal swaps: a letter may slide left past a
    neighbour exceeding it by two or more.  Each shift is one commutation
    move, so the count feeds the step-budget checks.

    The letter x after a sorted prefix p stops just after the last letter
    of p that is <= x + 1, at ``stop`` (0 if there is none), and makes
    ``len(p) - stop`` moves.  Sliding there one move per step is cheapest
    on nearly sorted words.  Once the moves outnumber the letters seen
    eightfold, long slides are the rule and the rest of the word finds each
    stop through the strict suffix minima of p instead: the letters of p
    smaller than everything after them, kept as a stack of (value,
    position) with increasing values.  Same stop: the last letter p[k]
    <= x + 1 is a strict suffix minimum, since everything after it is
    >= x + 2; and no later suffix minimum is <= x + 1, since none lies
    after k.  As values increase along the stack, p[k] is the last entry
    <= x + 1, found by walking down from the top past the entries > x + 1.
    Inserting x at stop shifts those entries one place right, drops the
    entries below with value x or x + 1 (x now follows them), and makes x
    an entry, as everything after it is >= x + 2.  The walk is at most
    one step per distinct letter, and ``list.insert`` shifts in C.

    Given cuts, the increasing positions c >= 1 whose pair w[c - 1], w[c]
    may be a descent (where a round's deletions joined two letters), w
    must be sorted at every other pair and runs must be its run table
    (`run_lengths`).  The pass then visits only the cuts and the position
    after each slide, and gives the list and the move count of the full
    pass, as it meets every pair that can be a descent: a slide at i moves
    letters within [j, i] only, so at a position i that is no cut and
    follows no slide, w[i - 1] and w[i] are still the letters the list
    came with, a sorted pair, at which the full pass moves nothing either.
    The moves so far agree at every i, so the switch to the stack falls at
    the same i.  runs is then left the run table of the sorted list.  An
    entry reads only its letter and those after it, and the slides from
    one cut up to the first visit that moves nothing move letters within
    [lo, i], lo their least j and i the last slide's, so no entry after
    that i changes.  From the last such span to the first, the entries
    from its i down to its lo are re-derived, and the ones before lo up to
    the first that keeps its value (`_rerun`): the entries after i are
    exact by then, the letters before lo are the list's own up to the next
    earlier span, and every entry of that span is re-derived in its turn.
    When the stack ran, the table is emptied, for the next round to build.
    """
    if cuts is not None:
        return _cut_sort(w, cuts, runs)
    moves = 0
    for i in range(1, len(w)):
        x = w[i]
        if w[i - 1] - x < 2:
            continue
        j = i - 1
        while j and w[j - 1] - x >= 2:
            w[j + 1] = w[j]
            j -= 1
        w[j + 1] = w[j]
        w[j] = x
        moves += i - j
        if moves > 8 * i:
            return _stack_sort(w, i, moves)
    return moves


def _cut_sort(w, cuts, runs) -> int:
    """commute_sort(w) for w sorted but at its cuts, keeping runs its
    run table, or emptying it when the stack runs (see commute_sort)."""
    n = len(w)
    moves = i = 0
    spans = []
    for c in cuts:
        if c <= i:  # visited after a slide
            continue
        i = lo = c
        while i < n:
            x = w[i]
            if w[i - 1] - x < 2:
                break
            j = i - 1
            while j and w[j - 1] - x >= 2:
                w[j + 1] = w[j]
                j -= 1
            w[j + 1] = w[j]
            w[j] = x
            moves += i - j
            if moves > 8 * i:
                del runs[:]  # for the next round to build
                return _stack_sort(w, i, moves)
            if j < lo:
                lo = j
            i += 1
        if lo < c:  # the slides from c on moved letters within [lo, i - 1]
            spans.append((lo, i - 1))
    for lo, hi in reversed(spans):
        _rerun(w, runs, hi, lo)
    return moves


def _stack_sort(w, i, moves) -> int:
    """The moves of commute_sort once the letters up to i are sorted and
    the rest are placed through the stack of suffix minima."""
    rest = w[i + 1:]
    del w[i + 1:]
    vals, poss = [w[i]], [i]
    for k in range(i - 1, -1, -1):
        if w[k] < vals[-1]:
            vals.append(w[k])
            poss.append(k)
    vals.reverse()
    poss.reverse()
    for x in rest:
        y = x + 1
        top = len(vals)
        while top and vals[top - 1] > y:
            top -= 1
            poss[top] += 1
        stop = poss[top - 1] + 1 if top else 0
        moves += len(w) - stop
        w.insert(stop, x)
        lo = top
        while lo and vals[lo - 1] >= x:
            lo -= 1
        vals[lo:top] = (x,)
        poss[lo:top] = (stop,)
    return moves


def b_reduced_form(word) -> Word:
    w = list(validate_word(word))
    commute_sort(w)
    return tuple(w)


def b_equivalent(u, v) -> bool:
    """Whether u and v differ only by commutations of distant letters."""
    return b_reduced_form(u) == b_reduced_form(v)


def random_word(rng, rank: int, max_len: int, min_len: int = 0) -> Word:
    """Uniform letters, uniform length between the bounds.

    Draws what ``rng.randint(min_len, max_len)`` draws for the length and
    ``rng.randint(1, rank)`` for each letter, and leaves a ``random.Random``
    in the same state: each value comes from the rejection sampling that
    ``randint`` does, ``getrandbits`` of the bit length of the range size,
    redrawn while not below that size.  Bad bounds are refused before any
    draw; plain int bounds pass on one comparison, any other bound gets the
    full isinstance test.
    """
    if not (rank.__class__ is max_len.__class__ is min_len.__class__ is int):
        require_ints(rank=rank, max_len=max_len, min_len=min_len)
    if rank < 1:
        raise ValueError(f"rank must be positive, got {rank}")
    if min_len < 0:
        raise ValueError(f"min_len must be nonnegative, got {min_len}")
    if max_len < min_len:
        raise ValueError(f"max_len {max_len} is below min_len {min_len}")
    getrandbits = rng.getrandbits
    size = max_len - min_len + 1
    k = size.bit_length()
    n = getrandbits(k)
    while n >= size:
        n = getrandbits(k)
    k = rank.bit_length()
    letters = []
    for _ in range(min_len + n):
        x = getrandbits(k)
        while x >= rank:
            x = getrandbits(k)
        letters.append(x + 1)
    return tuple(letters)
