"""In-memory span recorder and the wrappers the traced run installs.

A span is (name, start, end, parent, thread).  Spans stay in a list until
the run ends.  A wrapper replaces a function at the name its caller looks
it up by (``bivas.grid.em_fit`` is what ``run_grid`` calls), records one
span per call and counts the calls.  A span opened on a worker thread whose
own stack is empty takes as parent the innermost span open on the thread
that started the run, which is the ``run_grid`` call that owns the pool.
"""
from __future__ import annotations

import functools
import threading
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None       # index into Tracer.spans
    thread: int
    kwargs: dict = None      # keyword arguments of the call
    result: object = None    # what the call returned, or what ``note`` made of it


class Tracer:
    """Records spans; one instance per traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.calls: dict[str, int] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, *args, note=None, **kwargs):
        """Run ``fn`` inside a span called ``name``.

        ``note(args, kwargs, result)``, when given, is run after the span
        ends and its value is kept in place of the result.
        """
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            main = self._main_stack
            parent = main[-1] if main else None
        with self._lock:
            idx = len(self.spans)
            self.spans.append(Span(name, 0.0, 0.0, parent,
                                   threading.get_ident(), kwargs))
            self.calls[name] = self.calls.get(name, 0) + 1
        stack.append(idx)
        span = self.spans[idx]
        span.start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()
        span.result = out if note is None else note(args, kwargs, out)
        return out

    def wrap(self, name, fn, note=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, note=note, **kwargs)
        return traced

    def patch(self, owner, attr, name, note=None):
        """Replace ``owner.attr`` by a traced wrapper; returns an undo."""
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(name, original, note))
        return lambda: setattr(owner, attr, original)

    # -- queries ---------------------------------------------------------

    def named(self, name):
        return [s for s in self.spans if s.name == name]

    def children(self, idx):
        return [s for s in self.spans if s.parent == idx]

    def self_time(self, idx) -> float:
        span = self.spans[idx]
        return self_time(span.start, span.end,
                         [(c.start, c.end) for c in self.children(idx)])

    def within(self, idx, name):
        """Spans called ``name`` anywhere below span ``idx``."""
        out = []
        for s in self.spans:
            p = s.parent
            while p is not None and p != idx:
                p = self.spans[p].parent
            if p == idx and s.name == name:
                out.append(s)
        return out


def covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals
                     if min(b, end) > max(a, start))
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_time(start: float, end: float, child_intervals) -> float:
    """Span duration minus the part of it that child spans cover.

    Children on other threads may overlap each other; the union is
    subtracted once.
    """
    return (end - start) - covered(start, end, child_intervals)
