"""Span and count recording around the public functions of matroid_greedy.

The tracer patches the package from outside: every module-level function in
``SPANS`` is replaced, in every package module that holds a reference to it,
by a wrapper that records one span; the ``Matroid`` and ``SetFunction``
methods listed below are patched on their classes. ``uninstall`` restores the
originals, so untraced runs execute the package unmodified.

What this boundary sees: calls that go through a module global or a public
method. What it cannot see:

* ``Matroid.enumerate_bases`` and ``Matroid.rank`` call the private ``_test``
  closure directly, so their independence tests are not in
  ``matroids.indep_tests``. Masks tested by base enumeration are therefore
  derived, not observed: the method tests exactly the C(n, rank) masks of
  full-rank size, and ``matroids.base_yield`` divides by that number.
* A dual matroid's oracle calls the inner matroid's public ``rank``, so those
  calls are counted in ``matroids.rank_calls``.
* The scans in ``setfunc`` and ``guarantees`` read ``SetFunction.values``
  directly; only ``SetFunction.__call__`` bumps ``eval_count``, so
  ``setfunc.evals`` counts oracle calls made by greedy, brute force and the
  witness, not table reads.
* Work inside a span that calls no other wrapped function (loops, argparse,
  JSON encoding in ``cli``) shows only as that span's self time.
"""

from __future__ import annotations

import functools
import math
import os
import time
from collections import Counter, defaultdict

import matroid_greedy
from matroid_greedy import cli, greedy, guarantees, instances, matroids, setfunc

MODULES = (matroid_greedy, setfunc, matroids, greedy, guarantees, instances, cli)

#: (module, function name, span name); several functions may share a span name.
SPANS = (
    (setfunc, "ratio_scan", "setfunc.ratio_scan"),
    (setfunc, "cumulative_ratio_detail", "setfunc.cumulative"),
    (setfunc, "check_monotone", "setfunc.check_monotone"),
    (setfunc, "complement_values", "setfunc.complement"),
    (setfunc, "complement_function", "setfunc.complement"),
    (matroids, "build_matroid", "matroids.build"),
    (matroids, "check_axioms", "matroids.check_axioms"),
    (greedy, "forward_greedy", "greedy.forward"),
    (greedy, "reverse_greedy", "greedy.reverse"),
    (greedy, "reverse_greedy_as_forward", "greedy.reverse_as_forward"),
    (greedy, "ordering_witness", "greedy.ordering_witness"),
    (greedy, "brute_force_optimum", "greedy.brute_force"),
    (guarantees, "verify_forward", "guarantees.verify"),
    (guarantees, "verify_reverse", "guarantees.verify"),
    (guarantees, "strong_curvature_detail", "guarantees.strong_curvature"),
    (guarantees, "forward_greedy_ratios_detail", "guarantees.forward_greedy_ratios"),
    (guarantees, "reverse_greedy_ratios_detail", "guarantees.reverse_greedy_ratios"),
    (guarantees, "analyze_ratios", "guarantees.analyze_ratios"),
    (instances, "load_instance", "instances.load"),
    (instances, "save_instance", "instances.save"),
    (cli, "main", "cli"),
)

#: (class, method name, span name) for methods that build or enumerate.
METHOD_SPANS = (
    (setfunc.SetFunction, "__init__", "setfunc.table_build"),
    (matroids.Matroid, "dual", "matroids.build"),
    (matroids.Matroid, "truncate", "matroids.build"),
    (matroids.Matroid, "enumerate_bases", "matroids.enumerate_bases"),
)

#: Every span name, in declaration order.
SPAN_NAMES = tuple(dict.fromkeys(name for *_, name in SPANS + METHOD_SPANS))

#: (class, method name, counter name) for oracle calls too frequent for spans.
METHOD_COUNTS = (
    (matroids.Matroid, "is_independent", "matroids.indep_tests"),
    (matroids.Matroid, "rank", "matroids.rank_calls"),
)


class Tracer:
    """In-memory spans and counts for one benchmark run.

    A span is ``[name, start, end, parent id, op id]``; its id is its index in
    ``spans``. Counts accumulate in ``counts`` while the tracer is installed.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op: str | None = None
        self._stack: list[int] = []
        self._functions: list = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for module, attr, name in SPANS:
            original = getattr(module, attr)
            wrapper = self._span(name, original, _AFTER.get(attr))
            for holder in MODULES:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patch(holder, key, wrapper)
        for cls, attr, name in METHOD_SPANS:
            original = getattr(cls, attr)
            self._patch(cls, attr, self._span(name, original, _AFTER.get(attr)))
        for cls, attr, name in METHOD_COUNTS:
            self._patch(cls, attr, self._counter(name, getattr(cls, attr)))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()

    def _patch(self, holder, key: str, value) -> None:
        self._patches.append((holder, key, getattr(holder, key)))
        setattr(holder, key, value)

    def _span(self, name: str, fn, after):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else None, tracer.op]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if after is not None:
                after(tracer, args, result)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    # -- per-op bookkeeping -------------------------------------------------

    def begin_op(self, op_id: str) -> None:
        self.op = op_id
        self._functions.clear()

    def end_op(self) -> None:
        """Close the op: fold the eval counts of set functions it built."""
        self.counts["setfunc.evals"] += sum(f.eval_count for f in self._functions)
        self._functions.clear()
        self.op = None

    # -- results ---------------------------------------------------------------

    def self_times(self, ops: dict[str, float]) -> dict[str, float]:
        """Summed self time per span name over the spans of the given ops.

        ``ops`` maps each op id to a factor its spans' times are scaled by.
        Spans nest strictly (one thread), so a span's self time is its
        duration minus the durations of its direct children.
        """
        child_time = defaultdict(float)
        for name, start, end, parent, op in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for index, (name, start, end, parent, op) in enumerate(self.spans):
            if op in ops:
                totals[name] += (end - start - child_time[index]) * ops[op]
        return dict(totals)

    def to_json(self) -> list[dict]:
        return [
            {"id": i, "name": name, "start": start, "end": end, "parent": parent, "op": op}
            for i, (name, start, end, parent, op) in enumerate(self.spans)
        ]


def _after_table_build(tracer: Tracer, args, result) -> None:
    tracer._functions.append(args[0])


def _after_load(tracer: Tracer, args, result) -> None:
    tracer.counts["instances.load.bytes"] += os.path.getsize(args[0])


def _after_enumerate(tracer: Tracer, args, result) -> None:
    matroid = args[0]
    tracer.counts["matroids.bases"] += len(result)
    tracer.counts["matroids.masks_tested"] += math.comb(matroid.n, matroid.rank_full)


def _after_greedy(tracer: Tracer, args, result) -> None:
    tracer.counts["greedy.rejected"] += len(result.rejected)
    tracer.counts["greedy.considered"] += len(result.rejected) + len(result.steps)


def _after_brute_force(tracer: Tracer, args, result) -> None:
    tracer.counts["greedy.bases_examined"] += result.bases_examined


_AFTER = {
    "__init__": _after_table_build,
    "load_instance": _after_load,
    "enumerate_bases": _after_enumerate,
    "forward_greedy": _after_greedy,
    "reverse_greedy": _after_greedy,
    "reverse_greedy_as_forward": _after_greedy,
    "brute_force_optimum": _after_brute_force,
}
