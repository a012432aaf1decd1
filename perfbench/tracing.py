"""Span tracing around the public functions of the aimonoids modules.

The tracer rebinds each traced function in every aimonoids module that
imported it, so calls between modules (``a_reduce`` calling
``a_reduce_steps`` calling ``commute_sort``) are seen as well as the
benchmark's own calls.  Private helpers (``_family_sweep``, ``_m_sweep``,
``_family_match_at``, ``_staircase_at``) are not wrapped: their time is
the self time of the public caller.

A span is (name, start, end, parent span, op id).  Spans are kept in
memory in flat arrays up to SPAN_CAP and written out at the end; self times,
call counts and the per-layer counters are accumulated as spans close, so
they cover every span, kept or not.
"""

from __future__ import annotations

import sys
import time
from array import array
from contextlib import contextmanager

from aimonoids import cli, cube, garside, linrep, monoid_core, rewrite_a, rewrite_m, words

#: spans kept in memory and written out; later spans are only counted
SPAN_CAP = 200_000
# frame slots
_ID, _NAME, _START, _CHILD, _COUNT = range(5)


def rebind(original, replacement) -> list:
    """Point every aimonoids module attribute bound to `original` at `replacement`.

    Returns the (module, attribute, original) triples changed.
    """
    changed = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "aimonoids" or mod_name.startswith("aimonoids.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                changed.append((mod, attr, original))
    return changed


@contextmanager
def substituted(pairs):
    """Temporarily rebind each (original, replacement) pair everywhere."""
    changed = []
    try:
        for original, replacement in pairs:
            changed += rebind(original, replacement)
        yield
    finally:
        for mod, attr, original in reversed(changed):
            setattr(mod, attr, original)


class Tracer:
    """In-memory span recorder with on-the-fly self-time accounting."""

    def __init__(self):
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self._keys: list[tuple] = []  # counter keys of each name
        self.span_id = array("q")
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.spans_total = 0
        # "<span>.calls" and "<span>.self_s" for every span name, plus what
        # the result hooks count
        self.counters: dict[str, float] = {}
        self.stack: list = []
        self._round_idx = self.name_index("words.commute_sort")
        self.op_id = -1
        self.active = False

    def name_index(self, name: str) -> int:
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
            self._keys.append((name + ".self_s", name + ".calls"))
        return self._name_index[name]

    def add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def note_max(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters.get(key, value), value)

    def enter(self, name_idx: int) -> list:
        frame = [self.spans_total, name_idx, time.perf_counter(), 0.0, 0]
        self.spans_total += 1
        self.stack.append(frame)
        return frame

    def leave(self, frame: list) -> None:
        end = time.perf_counter()
        self.stack.pop()
        duration = end - frame[_START]
        self_key, calls_key = self._keys[frame[_NAME]]
        self.add(self_key, duration - frame[_CHILD])
        self.add(calls_key, 1)
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[_CHILD] += duration
            if frame[_NAME] == self._round_idx:
                parent[_COUNT] += 1
        if frame[_ID] < SPAN_CAP:  # a kept span's parent is kept too
            self.span_id.append(frame[_ID])
            self.span_name.append(frame[_NAME])
            self.span_start.append(frame[_START])
            self.span_end.append(end)
            self.span_parent.append(parent[_ID] if parent is not None else -1)
            self.span_op.append(self.op_id)

    @contextmanager
    def op(self, op_id: int):
        """The root span of one benchmark operation."""
        self.op_id = op_id
        self.active = True
        frame = self.enter(self.name_index("op"))
        try:
            yield
        finally:
            self.leave(frame)
            self.active = False

    def wrap(self, name: str, fn, on_result=None):
        idx = self.name_index(name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer.enter(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.leave(frame)
            if on_result is not None:
                on_result(tracer, args, result, frame)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap the traced functions in every aimonoids module for the block."""
        with substituted([(fn, self.wrap(name, fn, hook))
                          for name, fn, hook in traced_functions()]):
            # garside's own binding only: a_equal called from its harnesses
            garside.a_equal = self.wrap("garside.a_equal", rewrite_a.a_equal)
            try:
                yield
            finally:
                garside.a_equal = rewrite_a.a_equal

    def write(self, path) -> None:
        """Spans as tab-separated lines: id, name, start, end, parent, op."""
        with open(path, "w") as out:
            out.write("id\tname\tstart\tend\tparent\top\n")
            for i in range(len(self.span_name)):
                out.write("%d\t%s\t%.9f\t%.9f\t%d\t%d\n" % (
                    self.span_id[i], self.names[self.span_name[i]], self.span_start[i],
                    self.span_end[i], self.span_parent[i], self.span_op[i]))


# ---------------------------------------------------------------------------
# what is traced, and the counters each span feeds


def _commute_sort(tracer, args, moves, frame):
    tracer.add("words.commute_sort.moves", moves)


def _reduce_hook(system):
    def hook(tracer, args, result, frame):
        rounds = frame[_COUNT]
        tracer.add(system + ".rounds", rounds)
        tracer.add(system + ".letters", len(args[0]))
        tracer.add(system + ".steps", result[1])
        tracer.note_max(system + ".rounds_per_reduce.max", rounds)
    return hook


def _critical_pairs_hook(system):
    def hook(tracer, args, result, frame):
        tracer.add(system + ".critical_pairs.count", len(result))
    return hook


def _bfs_equal(tracer, args, verdict, frame):
    tracer.add("monoid_core.bfs_equal." + _VERDICT_KEYS[verdict.status], 1)
    if verdict.status == monoid_core.EQUAL:
        tracer.add("monoid_core.bfs_equal.witness_steps", len(verdict.witness) - 1)


_VERDICT_KEYS = {monoid_core.EQUAL: "equal",
                 monoid_core.DISTINCT_WITHIN_BOUND: "distinct",
                 monoid_core.INCONCLUSIVE: "inconclusive"}


def _closure(tracer, args, result, frame):
    states, complete = result
    tracer.add("monoid_core.congruence_closure.states", len(states))
    tracer.add("monoid_core.congruence_closure.complete", 1 if complete else 0)


def _reverse(tracer, args, outcome, frame):
    tracer.add("cube.reverse.steps", outcome.steps)


def traced_functions():
    """(span name, function, result hook) for every traced public function."""
    return [
        ("words.commute_sort", words.commute_sort, _commute_sort),
        ("words.validate_word", words.validate_word, None),
        ("rewrite_a.reduce", rewrite_a.a_reduce_steps, _reduce_hook("rewrite_a")),
        ("rewrite_m.reduce", rewrite_m.m_reduce_steps, _reduce_hook("rewrite_m")),
        ("rewrite_a.apply", rewrite_a.a_apply, None),
        ("rewrite_m.apply", rewrite_m.m_apply, None),
        ("rewrite_a.critical_pairs", rewrite_a.a_critical_pairs,
         _critical_pairs_hook("rewrite_a")),
        ("rewrite_m.critical_pairs", rewrite_m.m_critical_pairs,
         _critical_pairs_hook("rewrite_m")),
        ("rewrite_a.audit", rewrite_a.a_confluence_audit, None),
        ("rewrite_m.audit", rewrite_m.m_confluence_audit, None),
        ("rewrite_m.sink", rewrite_m.verify_sink, None),
        ("monoid_core.bfs_equal", monoid_core.bfs_equal, _bfs_equal),
        ("monoid_core.congruence_closure", monoid_core.congruence_closure, _closure),
        ("monoid_core.random_rewrite", monoid_core.random_rewrite, None),
        ("monoid_core.harness", monoid_core.rank2_monoid, None),
        ("monoid_core.harness", monoid_core.left_division_order, None),
        ("monoid_core.harness", monoid_core.is_lattice, None),
        ("monoid_core.harness", monoid_core.pair_collapse_action, None),
        ("monoid_core.harness", monoid_core.tuple_action_failures, None),
        ("garside.harness", garside.verify_garside, None),
        ("garside.harness", garside.check_lambda_identity, None),
        ("garside.harness", garside.left_cancel_harness, None),
        ("linrep.verify_representation", linrep.verify_representation, None),
        ("linrep.ring_mul", linrep.ring_mul, None),
        ("cube.reverse", cube.reverse, _reverse),
        ("cube.condition", cube.cube_condition_check, None),
        ("cube.census", cube.upper_bound_census, None),
        ("cli.main", cli.main, None),
    ]
