"""In-memory span tracer for the traced benchmark run.

``Tracer.install`` replaces negir functions at the module attribute their
callers look up (``negir.cli.analyze_text``, ``negir.ranking.bm25_score``,
...) with wrappers that record a span per call; ``uninstall`` puts the
originals back. ``src/`` is never edited. A target missing at the current
commit is listed in ``Tracer.absent`` and skipped.

A span is ``[name, thread id, start, end, parent span, thread CPU seconds
or None, excluded seconds, {leaf name: seconds}]``. The parent is the innermost open span of the
same thread; a span opened on a thread with no open span (a worker of
``negir run``'s thread pool) takes the current CLI command span as parent.
Functions called millions of times (per-document scoring) are "leaf"
targets: they keep per-thread call counts and total time instead of one
span each, and their time is excluded from the enclosing span.

Every wrapper times itself from entry to exit. What it spends outside the
wrapped call (its own lookups and updates, and the hook) is tracer
bookkeeping: it is summed in ``trace.bookkeeping`` and excluded from the
enclosing span. Self time of a span is its duration minus the leaf time
and bookkeeping inside it, minus the union of its child spans' intervals,
so children running in parallel threads are not subtracted twice.

``attributed`` turns self times into shares of wall time: the subtrees of
spans running in parallel threads under one parent are scaled by the
wall time their union covers over the sum of their durations. Attributed
self times (plus bookkeeping) then add up to the duration of the
top-level spans, however many threads ran.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

perf_counter = time.perf_counter
thread_time = time.thread_time

NAME, TID, START, END, PARENT, CPU, EXCLUDED, LEAVES = range(8)


class _ThreadState:
    def __init__(self) -> None:
        self.stack: list[list] = []      # open spans of this thread
        self.scored: list[set] = []      # doc ids scored inside each open run_strategy
        self.leaves: dict[str, list] = defaultdict(lambda: [0, 0.0])  # name -> [calls, total_s]
        self.counters: dict[str, float] = defaultdict(float)
        self.sets: dict[str, set] = defaultdict(set)
        self.hook_errors: dict[tuple[str, str], int] = defaultdict(int)  # (span, error) -> calls


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.root: list | None = None    # current CLI command span
        self.absent: list[str] = []
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            self._states.append(state)
        return state

    def _open(self, state: _ThreadState, name: str, cpu: bool) -> list:
        parent = state.stack[-1] if state.stack else self.root
        record = [name, threading.get_ident(), 0.0, 0.0, parent,
                  thread_time() if cpu else None, 0.0, {}]
        self.spans.append(record)
        state.stack.append(record)
        record[START] = perf_counter()
        return record

    def _close(self, state: _ThreadState, record: list) -> None:
        record[END] = perf_counter()
        if record[CPU] is not None:
            record[CPU] = thread_time() - record[CPU]
        state.stack.pop()

    def _charge(self, state: _ThreadState, seconds: float) -> None:
        """Exclude tracer bookkeeping from the innermost open span."""
        state.leaves["trace.bookkeeping"][1] += seconds
        if state.stack:
            top = state.stack[-1]
            top[EXCLUDED] += seconds
            top[LEAVES]["trace.bookkeeping"] = top[LEAVES].get("trace.bookkeeping", 0.0) + seconds

    def _hook(self, state: _ThreadState, hook, name: str, result, args, scored) -> None:
        try:
            hook(state, result, args, scored)
        except (AttributeError, TypeError, KeyError, IndexError) as exc:
            # The result's shape changed at this commit: record, don't fail.
            state.hook_errors[(name, type(exc).__name__)] += 1

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (one per CLI command)."""
        state = self._state()
        record = self._open(state, name, cpu=False)
        outer, self.root = self.root, record
        try:
            yield record
        finally:
            self.root = outer
            self._close(state, record)

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, fn, name, hook, cpu, scoring):
        """``cpu`` also records thread CPU time; ``scoring`` collects the
        documents scored by leaf calls inside the span."""
        tracer = self

        def wrapper(*args, **kwargs):
            entered = perf_counter()
            state = tracer._state()
            span_name = name(args) if callable(name) else name
            if scoring:
                state.scored.append(set())
            record = tracer._open(state, span_name, cpu)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(state, record)
                scored = state.scored.pop() if scoring else None
            if hook is not None:
                tracer._hook(state, hook, span_name, result, args, scored)
            tracer._charge(state, perf_counter() - entered - (record[END] - record[START]))
            return result

        return wrapper

    def _leaf_wrapper(self, fn, name, doc_arg):
        tracer = self

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                state = tracer._state()
                stats = state.leaves[name]
                stats[0] += 1
                stats[1] += elapsed
                if state.stack:
                    top = state.stack[-1]
                    top[EXCLUDED] += elapsed
                    top[LEAVES][name] = top[LEAVES].get(name, 0.0) + elapsed
                if doc_arg is not None and state.scored and len(args) > doc_arg:
                    state.scored[-1].add(args[doc_arg])
                tracer._charge(state, perf_counter() - t0 - elapsed)

        return wrapper

    def _iter_wrapper(self, fn, name, hook):
        """Time each step of a returned iterator as its own span."""
        tracer = self

        def wrapper(*args, **kwargs):
            iterator = iter(fn(*args, **kwargs))
            while True:
                entered = perf_counter()
                state = tracer._state()
                record = tracer._open(state, name, cpu=False)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    tracer._close(state, record)
                if hook is not None:
                    tracer._hook(state, hook, name, item, args, None)
                tracer._charge(state, perf_counter() - entered - (record[END] - record[START]))
                yield item

        return wrapper

    def install(self, targets) -> None:
        """Wrap every (module, attribute, name, kind, hook) target.

        ``kind`` is "span", "iter" (time each step of the returned
        iterator), "leaf" (aggregate; ``hook`` is then the index of the
        doc id argument, or None) or "strategy" (a span that also records
        thread CPU time and the documents scored inside it). A span hook
        is called as ``hook(state, result, args, scored_docs)``.
        """
        for module_name, attribute, name, kind, hook in targets:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attribute)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{attribute}")
                continue
            if kind == "leaf":
                wrapped = self._leaf_wrapper(original, name, hook)
            elif kind == "iter":
                wrapped = self._iter_wrapper(original, name, hook)
            else:
                strategy = kind == "strategy"
                wrapped = self._span_wrapper(original, name, hook, strategy, strategy)
            self._patches.append((module, attribute, original))
            setattr(module, attribute, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            module, attribute, original = self._patches.pop()
            setattr(module, attribute, original)

    # -- results -----------------------------------------------------------

    def leaves(self) -> dict[str, list]:
        merged: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for state in self._states:
            for name, (calls, total) in state.leaves.items():
                merged[name][0] += calls
                merged[name][1] += total
        return merged

    def hook_errors(self) -> dict[tuple[str, str], int]:
        """Failed hook calls per (span name, exception type)."""
        merged: dict[tuple[str, str], int] = defaultdict(int)
        for state in self._states:
            for key, calls in state.hook_errors.items():
                merged[key] += calls
        return dict(merged)

    def counters(self) -> dict[str, float]:
        """Summed counters, plus the size of each merged distinct-value set."""
        merged: dict[str, float] = defaultdict(float)
        union: dict[str, set] = defaultdict(set)
        for state in self._states:
            for name, value in state.counters.items():
                merged[name] += value
            for name, values in state.sets.items():
                union[name] |= values
        for name, values in union.items():
            merged[name] = len(values)
        return merged

    def self_times(self) -> list[float]:
        """Self time of every span, in ``self.spans`` order."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for record in self.spans:
            if record[PARENT] is not None:
                children[id(record[PARENT])].append((record[START], record[END]))
        return [record[END] - record[START] - record[EXCLUDED]
                - _covered(children.get(id(record), ()), record[START], record[END])
                for record in self.spans]

    def attributed(self) -> dict[str, float]:
        """Wall-attributed self time per span and leaf name."""
        parallel: dict[int, list[list]] = defaultdict(list)
        for record in self.spans:
            parent = record[PARENT]
            if parent is not None and parent[TID] != record[TID]:
                parallel[id(parent)].append(record)
        factor = {}
        for parent_id, kids in parallel.items():
            summed = sum(k[END] - k[START] for k in kids)
            union = _covered([(k[START], k[END]) for k in kids], -math.inf, math.inf)
            factor[parent_id] = union / summed if summed else 1.0
        scale: dict[int, float] = {}
        totals: dict[str, float] = defaultdict(float)
        for record, self_s in zip(self.spans, self.self_times()):
            parent = record[PARENT]
            f = 1.0
            if parent is not None:
                f = scale.get(id(parent), 1.0)
                if parent[TID] != record[TID]:
                    f *= factor[id(parent)]
            scale[id(record)] = f
            totals[record[NAME]] += f * self_s
            for leaf, seconds in record[LEAVES].items():
                totals[leaf] += f * seconds
        return totals

    def write(self, path) -> None:
        """Write every span (one JSON object per line) and the leaf totals."""
        ids = {id(record): i for i, record in enumerate(self.spans)}
        selfs = self.self_times()
        with open(path, "w", encoding="utf-8") as out:
            for i, record in enumerate(self.spans):
                out.write(json.dumps({
                    "id": i,
                    "name": record[NAME],
                    "thread": record[TID],
                    "start": record[START],
                    "end": record[END],
                    "parent": ids.get(id(record[PARENT])) if record[PARENT] is not None else None,
                    "cpu_s": record[CPU],
                    "self_s": selfs[i],
                }) + "\n")
            for name, (calls, total) in sorted(self.leaves().items()):
                out.write(json.dumps({"leaf": name, "calls": calls, "total_s": total}) + "\n")
            out.write(json.dumps({"absent": self.absent, "pid": os.getpid()}) + "\n")


def _covered(intervals, start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    covered, cursor = 0.0, start
    for c_start, c_end in sorted(intervals):
        c_start, c_end = max(c_start, cursor), min(c_end, end)
        if c_end > c_start:
            covered += c_end - c_start
            cursor = c_end
    return covered
