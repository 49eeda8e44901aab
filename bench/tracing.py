"""Spans recorded from outside the program, around calls into its layers.

A wrap point is a module attribute that the caller looks up at call time
(``harness.poll_health`` is what ``evaluate_phase`` calls), so replacing it
catches every call without touching the package. Each call becomes one span:
name, start, end, the span that was open on the same thread when it began,
and the id of the root span it belongs to. Spans stay in memory.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time


class Span:
    __slots__ = ("id", "parent", "root", "name", "start", "end", "attrs")

    def __init__(self, span_id, parent, root, name):
        self.id = span_id
        self.parent = parent
        self.root = root
        self.name = name
        self.start = self.end = 0.0
        self.attrs = {}

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._originals: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str, on_call=None, on_result=None):
        """Replace ``owner.attr`` with a function that records one span per
        call. ``on_call(args, kwargs)`` and ``on_result(result)`` may return
        span attributes; the first also holds for a call that raises."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            span_id = next(tracer._ids)
            span = Span(
                span_id,
                parent.id if parent else None,
                parent.root if parent else span_id,
                name,
            )
            if on_call is not None:
                span.attrs = on_call(args, kwargs)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if on_result is not None:
                span.attrs.update(on_result(result))
            return result

        setattr(owner, attr, traced)
        self._originals.append((owner, attr, original))

    def unwrap_all(self):
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def named(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]

    def self_ms(self, name: str) -> list[float]:
        """Duration of each ``name`` span minus its direct children's."""
        children_ms: dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                children_ms[span.parent] = children_ms.get(span.parent, 0.0) + span.ms
        return [span.ms - children_ms.get(span.id, 0.0) for span in self.named(name)]
