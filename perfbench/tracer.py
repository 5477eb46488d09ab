"""In-memory span tracer that wraps the program's functions from outside.

A span is (id, parent, thread, name, start, end, attrs). Functions are
wrapped at the module or class attribute their callers look up, so the
program itself is never edited. Spans stay in memory until the job ends.

A span's parent may live on another thread: cells submitted to the
runner's thread pool point at the span that submitted them. Self time
only subtracts children on the span's own thread. It is a layer's own
time only if those children nest inside their parent and do not overlap
each other, which nesting_errors() checks.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from concurrent.futures import ThreadPoolExecutor

ID, PARENT, THREAD, NAME, START, END, ATTRS = range(7)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def call(self, name, fn, args, kwargs, attrs=None):
        """Run fn inside a span; attrs(args, kwargs, result, start) adds fields."""
        stack = self._stack()
        with self._lock:
            span = [next(self._ids), stack[-1] if stack else None,
                    threading.get_ident(), name, 0.0, 0.0, None]
            self.spans.append(span)
        stack.append(span[ID])
        span[START] = self.clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[END] = self.clock()
            stack.pop()
        if attrs is not None:
            span[ATTRS] = attrs(args, kwargs, result, span[START])
        return result

    def wrap(self, owner, attr: str, name: str, attrs=None):
        """Replace owner.attr by a traced version; undone by restore()."""
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, attrs)

        self.patch(owner, attr, traced)

    def patch(self, owner, attr: str, value):
        """Set owner.attr to value; undone by restore()."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def traced_pool(self):
        """A ThreadPoolExecutor whose tasks inherit the submitter's span.

        Each task also sees when it was queued, through queued_at().
        """
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                parent, queued = tracer.current(), tracer.clock()

                def task(*a, **k):
                    tracer._local.stack = [parent] if parent is not None else []
                    tracer._local.queued_at = queued
                    try:
                        return fn(*a, **k)
                    finally:
                        tracer._local.stack = []
                        tracer._local.queued_at = None

                return super().submit(task, *args, **kwargs)

        return TracedPool

    def queued_at(self):
        return getattr(self._local, "queued_at", None)

    def restore(self):
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)


def self_times(spans) -> list[float]:
    """Duration of each span minus that of its children on the same thread.

    Children on one thread nest inside their parent and do not overlap,
    so their durations add up to the part of the parent they cover.
    """
    by_id = {s[ID]: i for i, s in enumerate(spans)}
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        p = s[PARENT]
        if p is not None and spans[by_id[p]][THREAD] == s[THREAD]:
            out[by_id[p]] -= s[END] - s[START]
    return out


def nesting_errors(spans) -> list[str]:
    """Spans that break the nesting self_times() relies on, as messages.

    Every child on its parent's thread must lie inside the parent's
    [start, end], siblings on one thread must not overlap, and no span
    may end before it starts. Then every self time is at least 0.
    """
    tol = 1e-9  # clock readings of one instant may differ by rounding
    by_id = {s[ID]: s for s in spans}
    errors, children = [], {}
    for s in spans:
        if s[END] < s[START] - tol:
            errors.append(f"span {s[ID]} {s[NAME]} ends before it starts")
        p = by_id.get(s[PARENT])
        if p is None or p[THREAD] != s[THREAD]:
            continue
        if s[START] < p[START] - tol or s[END] > p[END] + tol:
            errors.append(f"span {s[ID]} {s[NAME]} is not inside its parent "
                          f"{p[ID]} {p[NAME]}")
        children.setdefault(p[ID], []).append(s)
    for kids in children.values():
        kids.sort(key=lambda s: s[START])
        for a, b in zip(kids, kids[1:]):
            if b[START] < a[END] - tol:
                errors.append(f"spans {a[ID]} {a[NAME]} and {b[ID]} {b[NAME]} "
                              f"overlap")
    for s, t in zip(spans, self_times(spans)):
        if t < -tol:
            errors.append(f"span {s[ID]} {s[NAME]} has self time {t:.3g} s")
    return errors[:20]
