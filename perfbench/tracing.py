"""In-memory spans around calls into the program's public functions.

A span records name, start, end, parent and request id.  Spans are
opened explicitly (``with tracer.span(...)``) or by wrapping a module
attribute (``tracer.patch(module, "name", "span.name")``) so that every
call the program makes through that attribute is timed; ``restore``
puts the originals back.  Nothing is written until the run ends.

Parents: the replay is sequential, so each thread keeps a plain stack.
Work the service offloads to its thread pool opens spans on a pool
thread with an empty stack; those take the loop thread's innermost open
span as parent, which is the request that is awaiting them.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator


@dataclass
class Span:
    sid: int
    name: str
    start: float
    parent: int | None
    request: int | None
    end: float = 0.0
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request: int | None = None
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[Span] = []
        self._lock = threading.Lock()
        self._patched: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent: int | None = stack[-1].sid
        elif self._main_stack:
            parent = self._main_stack[-1].sid
        else:
            parent = None
        with self._lock:
            span = Span(len(self.spans), name, time.perf_counter(), parent, self.request)
            self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    # -- wrapping module attributes -------------------------------------------

    def patch(
        self,
        owner: Any,
        attr: str,
        name: str | Callable[..., str],
        annotate: Callable[[Any, Span], None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` by a wrapper that records one span per
        call; ``name`` may be a function of the call's arguments."""
        original = getattr(owner, attr)
        tracer = self

        def span_name(args: tuple, kwargs: dict) -> str:
            return name(*args, **kwargs) if callable(name) else name

        if inspect.iscoroutinefunction(original):

            @functools.wraps(original)
            async def async_wrapper(*args: Any, **kwargs: Any) -> Any:
                span = tracer.open(span_name(args, kwargs))
                try:
                    result = await original(*args, **kwargs)
                finally:
                    tracer.close(span)
                if annotate is not None:
                    annotate(result, span)
                return result

            wrapper: Any = async_wrapper
        else:

            @functools.wraps(original)
            def sync_wrapper(*args: Any, **kwargs: Any) -> Any:
                span = tracer.open(span_name(args, kwargs))
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer.close(span)
                if annotate is not None:
                    annotate(result, span)
                return result

            wrapper = sync_wrapper
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- analysis ----------------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Each span's duration minus the part its children cover."""
        children: dict[int, list[Span]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append(span)
        out: dict[int, float] = {}
        for span in self.spans:
            covered = 0.0
            cursor = span.start
            for child in sorted(children.get(span.sid, ()), key=lambda s: s.start):
                lo = max(child.start, cursor)
                hi = min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out[span.sid] = span.duration - covered
        return out

    def by_name(self, prefix: str) -> list[Span]:
        return [s for s in self.spans if s.name == prefix or s.name.startswith(prefix + ".")]

    def mean_duration(self, name: str) -> float:
        spans = [s for s in self.spans if s.name == name]
        return sum(s.duration for s in spans) / len(spans) if spans else 0.0

    def total_duration(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def coverage(self, wall: float) -> float:
        """Sum of self time over the replay's wall time."""
        return sum(self.self_times().values()) / wall if wall > 0 else 0.0

    def layer_self_ms(self) -> dict[str, float]:
        """Self time per span name, in ms (the written-out breakdown)."""
        totals: dict[str, float] = defaultdict(float)
        for sid, value in self.self_times().items():
            totals[self.spans[sid].name] += value * 1e3
        return dict(sorted(totals.items()))
