"""Trace spans: the one clock the migration pipeline tells time by.

A :class:`Span` is a named, monotonic-clocked (``time.perf_counter``)
timed region.  Spans nest: the tracer keeps a *per-thread* stack (a
migration runs on one thread; a caller that observes from several
threads gets one branch per thread of one shared tree), and children
lists are appended under a single tracer lock, which is the only shared
mutable state.

Three ways to put time on the tree:

- ``tracer.span(name)`` — a context manager that opens a fresh span
  under the current thread's innermost open span (one span per entry);
- ``tracer.lap(name)`` — an *accumulating* span: every ``with`` entry
  adds one lap to a single span keyed by ``(parent, name)``.  This is
  what per-chunk hot paths use (a 128-chunk stream makes one
  ``codec.deflate`` span with ``count == 128``, not 128 span objects);
- ``tracer.record(name, seconds)`` — a span with an externally supplied
  duration, for *modeled* quantities (the link-model Tx time) so that
  the span tree sums to exactly what :class:`MigrationStats` reports.

Every handle exposes ``.seconds`` for the interval just closed, so call
sites that also fill a stats field (the engine's ``collect_time``) read
the same measurement the tree recorded — one clock, two read-outs.

:data:`NULL_TRACER` is the ambient default when no migration is being
observed: its handles still *time* (call sites rely on ``.seconds``)
but record nothing.

Identity
--------

Every tracer carries a ``trace_id`` (16 hex chars) and assigns each
span a small integer ``span_id`` (the root is span 0) plus the
``parent_id`` it hangs under.  :meth:`Tracer.adopt_remote` builds a
tracer whose root is parented in *another* trace — the next hop of a
migration chain continuing the previous hop's (see
:func:`repro.obs.continuation_context`); the JSONL merge joins by id.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Optional

__all__ = [
    "Span",
    "SpanHandle",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "new_trace_id",
]


def new_trace_id() -> str:
    """A fresh 64-bit trace id as 16 lowercase hex chars."""
    return os.urandom(8).hex()


class Span:
    """One node of the trace tree.

    ``seconds`` accumulates across laps (ordinary spans have exactly one
    lap); ``start_s``/``end_s`` are relative to the tracer's epoch so a
    trace file's timeline starts at 0.
    """

    __slots__ = ("name", "attrs", "children", "thread", "start_s", "end_s",
                 "seconds", "count", "span_id", "parent_id")

    def __init__(self, name: str, attrs: Optional[dict] = None) -> None:
        self.name = name
        self.attrs = attrs or {}
        self.children: list[Span] = []
        self.thread = threading.current_thread().name
        self.start_s: Optional[float] = None
        self.end_s: Optional[float] = None
        self.seconds = 0.0
        self.count = 0
        #: per-tracer ordinal (root = 0); -1 until the tracer assigns it
        self.span_id = -1
        #: span_id of the parent (-1 for a root)
        self.parent_id = -1

    def to_dict(self) -> dict:
        out: dict = {
            "name": self.name,
            "seconds": round(self.seconds, 9),
            "count": self.count,
            "thread": self.thread,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
        }
        if self.start_s is not None:
            out["start_s"] = round(self.start_s, 9)
        if self.end_s is not None:
            out["end_s"] = round(self.end_s, 9)
        if self.attrs:
            out["attrs"] = self.attrs
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return (f"<span {self.name} {self.seconds * 1e3:.3f} ms "
                f"x{self.count} ({len(self.children)} children)>")


class SpanHandle:
    """Context manager for one timed interval on one span."""

    __slots__ = ("span", "seconds", "_tracer", "_t0", "_push")

    def __init__(self, tracer: "Tracer", span: Span, push: bool) -> None:
        self.span = span
        self.seconds = 0.0
        self._tracer = tracer
        self._push = push

    def __enter__(self) -> "SpanHandle":
        if self._push:
            self._tracer._stack().append(self.span)
        t = self._tracer._clock()
        if self.span.start_s is None:
            self.span.start_s = t - self._tracer.epoch
        self._t0 = t
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        t = self._tracer._clock()
        self.seconds = t - self._t0
        self.span.seconds += self.seconds
        self.span.count += 1
        self.span.end_s = t - self._tracer.epoch
        if self._push:
            self._tracer._stack().pop()
        return False


class Tracer:
    """A per-migration trace-span tree, safe to grow from several threads."""

    def __init__(self, name: str = "migration",
                 clock=time.perf_counter,
                 trace_id: Optional[str] = None) -> None:
        self._clock = clock
        self.epoch = clock()
        #: trace identity, shared by every hop of a migration chain
        self.trace_id = trace_id or new_trace_id()
        self._next_id = 0
        self.root = Span(name)
        self.root.start_s = 0.0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._assign_id(self.root)
        # (id(parent), name) -> accumulating span, for lap()
        self._laps: dict[tuple[int, str], Span] = {}

    def _assign_id(self, span: Span) -> None:
        """Give *span* the next ordinal (callers hold no lock for the
        root; every other call site already holds ``_lock``)."""
        span.span_id = self._next_id
        self._next_id += 1

    @classmethod
    def adopt_remote(cls, name: str, trace_id: str, parent_span_id: int,
                     clock=time.perf_counter) -> "Tracer":
        """A tracer whose root is parented in *another* trace: it shares
        that ``trace_id`` and declares the remote parent span id as its
        root's ``attrs.remote_parent``, so a by-id merge of the two JSONL
        traces yields one connected tree."""
        tracer = cls(name, clock=clock, trace_id=trace_id)
        # draw span ids from a random high block so a by-id merge of the
        # two sides' JSONL files cannot collide with the source's small
        # ordinals (1 + 32 random bits, shifted past any plausible count)
        tracer._next_id = (1 + int.from_bytes(os.urandom(4), "big")) << 32
        tracer._assign_id(tracer.root)
        tracer.root.attrs["remote_parent"] = parent_span_id
        return tracer

    # -- thread-local span stack -------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = [self.root]
            self._local.stack = stack
        return stack

    def current(self) -> Span:
        """The innermost open span on this thread (the root if none)."""
        return self._stack()[-1]

    # -- span creation -----------------------------------------------------

    def span(self, name: str, **attrs) -> SpanHandle:
        """Open a fresh nested span (one per entry)."""
        span = Span(name, attrs or None)
        parent = self.current()
        with self._lock:
            self._assign_id(span)
            span.parent_id = parent.span_id
            parent.children.append(span)
        return SpanHandle(self, span, push=True)

    def lap(self, name: str, **attrs) -> SpanHandle:
        """One lap on the accumulating span *name* under the current span."""
        parent = self.current()
        key = (id(parent), name)
        with self._lock:
            span = self._laps.get(key)
            if span is None:
                span = Span(name, attrs or None)
                self._assign_id(span)
                span.parent_id = parent.span_id
                self._laps[key] = span
                parent.children.append(span)
        return SpanHandle(self, span, push=False)

    def record(self, name: str, seconds: float, **attrs) -> Span:
        """Append a span with an externally supplied duration (modeled
        quantities — e.g. the link-model Tx time)."""
        span = Span(name, attrs or None)
        now = self._clock() - self.epoch
        span.start_s = max(now - seconds, 0.0)
        span.end_s = now
        span.seconds = seconds
        span.count = 1
        parent = self.current()
        with self._lock:
            self._assign_id(span)
            span.parent_id = parent.span_id
            parent.children.append(span)
        return span

    def finish(self) -> Span:
        """Close the root span; returns it."""
        if self.root.end_s is None:
            self.root.end_s = self._clock() - self.epoch
            self.root.seconds = self.root.end_s
            self.root.count = 1
        return self.root

    # -- read-out ----------------------------------------------------------

    def iter_spans(self):
        """Yield ``(path, span)`` depth-first; ``path`` is '/'-joined."""
        def walk(span: Span, prefix: str):
            path = f"{prefix}/{span.name}" if prefix else span.name
            yield path, span
            for child in list(span.children):
                yield from walk(child, path)
        yield from walk(self.root, "")

    def total(self, name: str) -> float:
        """Summed seconds of every span named exactly *name*."""
        return sum(s.seconds for _, s in self.iter_spans() if s.name == name)

    def total_prefix(self, prefix: str) -> float:
        """Summed seconds of every span whose name starts with *prefix*."""
        return sum(
            s.seconds for _, s in self.iter_spans() if s.name.startswith(prefix)
        )

    def find(self, name: str) -> list[Span]:
        """All spans named *name*, depth-first order."""
        return [s for _, s in self.iter_spans() if s.name == name]

    def to_dict(self) -> dict:
        return self.root.to_dict()


class _NullHandle:
    """Times the interval (call sites read ``.seconds``) but records
    nothing — the ambient no-tracer behavior."""

    __slots__ = ("seconds", "_t0")
    span = None

    def __enter__(self) -> "_NullHandle":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.seconds = time.perf_counter() - self._t0
        return False


class NullTracer:
    """Drop-in tracer that keeps call sites timed but unrecorded."""

    trace_id = "0" * 16

    def span(self, name: str, **attrs) -> _NullHandle:
        return _NullHandle()

    def lap(self, name: str, **attrs) -> _NullHandle:
        return _NullHandle()

    def record(self, name: str, seconds: float, **attrs) -> None:
        return None

    def total(self, name: str) -> float:
        return 0.0

    def total_prefix(self, prefix: str) -> float:
        return 0.0


NULL_TRACER = NullTracer()
