"""Structured tracing with cross-thread and cross-process propagation.

A :class:`Span` is one timed operation; spans link to a parent through
``(trace_id, parent_id)`` and a whole job forms one tree.  The design
constraints come from the execution stack this instruments:

* **Dispatcher threads.**  The broker creates a job's root span on the
  submitting thread but the batch executes on a dispatcher thread, so the
  current context lives in a :class:`contextvars.ContextVar` and the broker
  *explicitly* activates the root context on the executing thread
  (:meth:`Tracer.activate`) instead of relying on implicit inheritance.
* **Process boundaries.**  Sharded workers are separate processes;
  a :class:`TraceContext` serialises to a plain dict (:meth:`TraceContext.to_wire`)
  that ships inside the job payload, the worker records spans against that
  remote parent, and the finished spans travel back with the result as
  dicts to be stitched into the parent tracer via :meth:`Tracer.ingest`.
* **Zero overhead when off.**  With tracing disabled and no ambient
  context, :meth:`Tracer.span` returns a shared no-op span without
  allocating; the hot paths pay one attribute read and one branch.

Worker processes never enable their own tracer: a span is recorded
whenever an *explicit remote parent* is supplied, so sampling is decided
once at root creation and inherited by the entire tree.
"""

from __future__ import annotations

import os
import random
import secrets
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from collections import deque
from typing import Any, Iterable, Iterator, Mapping, NamedTuple

__all__ = [
    "NOOP_SPAN",
    "Span",
    "TraceContext",
    "Tracer",
    "disable_tracing",
    "enable_tracing",
    "get_tracer",
]

_UNSET = object()


class TraceContext(NamedTuple):
    """Immutable (trace_id, span_id) pair identifying a position in a trace."""

    trace_id: str
    span_id: str

    def to_wire(self) -> dict[str, str]:
        """Plain-dict form safe to pickle into a cross-process job payload."""
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @classmethod
    def from_wire(cls, payload: Mapping[str, str] | None) -> "TraceContext | None":
        if not payload:
            return None
        trace_id = payload.get("trace_id")
        span_id = payload.get("span_id")
        if not trace_id or not span_id:
            return None
        return cls(str(trace_id), str(span_id))


def _new_id() -> str:
    return secrets.token_hex(8)


class Span:
    """One timed operation in a trace tree.

    Wall-clock start (``time.time()``) anchors the span on a host-shared
    timeline so spans from different processes align; the duration is a
    ``perf_counter`` delta so it stays monotonic.
    """

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "start_wall",
        "duration",
        "attributes",
        "error",
        "pid",
        "thread",
        "_t0",
        "_tracer",
        "_token",
    )

    def __init__(
        self,
        name: str,
        *,
        trace_id: str,
        span_id: str,
        parent_id: str | None,
        tracer: "Tracer | None" = None,
        attributes: Mapping[str, Any] | None = None,
    ):
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_wall = time.time()
        self.duration: float | None = None
        self.attributes: dict[str, Any] = dict(attributes) if attributes else {}
        self.error: str | None = None
        self.pid = os.getpid()
        self.thread = threading.current_thread().name
        self._t0 = time.perf_counter()
        self._tracer = tracer
        self._token = None

    # -- identity -------------------------------------------------------
    def context(self) -> TraceContext:
        """Context under which children of this span should be created."""
        return TraceContext(self.trace_id, self.span_id)

    @property
    def recording(self) -> bool:
        return True

    # -- mutation -------------------------------------------------------
    def set_attribute(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    def mark_error(self, message: str) -> None:
        self.error = str(message)

    def finish(self) -> None:
        """Close the span and hand it to the owning tracer (idempotent)."""
        if self.duration is not None:
            return
        self.duration = time.perf_counter() - self._t0
        tracer = self._tracer
        if tracer is not None:
            tracer._record_finished(self)

    # -- context-manager protocol ----------------------------------------
    def __enter__(self) -> "Span":
        tracer = self._tracer
        if tracer is not None:
            self._token = tracer._current.set(self.context())
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._token is not None:
            tracer = self._tracer
            if tracer is not None:
                tracer._current.reset(self._token)
            self._token = None
        if exc is not None and self.error is None:
            self.mark_error(f"{exc_type.__name__}: {exc}")
        self.finish()

    # -- serialisation ----------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_wall": self.start_wall,
            "duration": self.duration,
            "attributes": dict(self.attributes),
            "error": self.error,
            "pid": self.pid,
            "thread": self.thread,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Span":
        span = cls.__new__(cls)
        span.name = str(payload["name"])
        span.trace_id = str(payload["trace_id"])
        span.span_id = str(payload["span_id"])
        parent = payload.get("parent_id")
        span.parent_id = str(parent) if parent else None
        span.start_wall = float(payload.get("start_wall", 0.0))
        duration = payload.get("duration")
        span.duration = float(duration) if duration is not None else 0.0
        span.attributes = dict(payload.get("attributes") or {})
        error = payload.get("error")
        span.error = str(error) if error else None
        span.pid = int(payload.get("pid", 0))
        span.thread = str(payload.get("thread", ""))
        span._t0 = 0.0
        span._tracer = None
        span._token = None
        return span

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"{self.duration * 1e3:.3f}ms" if self.duration is not None else "open"
        return f"Span({self.name!r}, {state}, trace={self.trace_id[:8]})"


class _NoopSpan:
    """Shared do-nothing span returned when tracing is off."""

    __slots__ = ()

    @property
    def recording(self) -> bool:
        return False

    def context(self) -> None:
        return None

    def set_attribute(self, key: str, value: Any) -> None:
        pass

    def mark_error(self, message: str) -> None:
        pass

    def finish(self) -> None:
        pass

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Span(<noop>)"


NOOP_SPAN = _NoopSpan()


class Tracer:
    """Process-wide span factory, ring buffer, and stitcher.

    Disabled by default.  Three ways a span gets recorded:

    * the tracer is enabled and sampling admits a new **root**;
    * an **ambient context** exists on the current thread (we are inside an
      admitted trace), regardless of the enable flag;
    * an **explicit remote parent** is passed (worker process recording on
      behalf of a trace admitted elsewhere).
    """

    def __init__(self, capacity: int = 8192):
        self._lock = threading.Lock()
        self._enabled = False
        self._sample_rate = 1.0
        self._spans: deque[Span] = deque(maxlen=int(capacity))
        self._current: ContextVar[TraceContext | None] = ContextVar(
            "repro-trace-context", default=None
        )
        self._sinks = threading.local()

    # -- switches ---------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self._enabled

    @property
    def sample_rate(self) -> float:
        return self._sample_rate

    def enable(self, sample_rate: float = 1.0) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(f"sample_rate must be in [0, 1], got {sample_rate}")
        self._sample_rate = float(sample_rate)
        self._enabled = True

    def disable(self) -> None:
        self._enabled = False

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()

    # -- span creation ------------------------------------------------------
    def current_context(self) -> TraceContext | None:
        """Ambient context on this thread, or ``None`` outside any trace."""
        return self._current.get()

    def span(
        self,
        name: str,
        attrs: Mapping[str, Any] | None = None,
        *,
        parent: "TraceContext | None | object" = _UNSET,
    ) -> "Span | _NoopSpan":
        """Start a span; use as a context manager or ``finish()`` manually.

        ``parent`` left unset means "ambient context, else new root".
        Passing ``parent=None`` explicitly means "child of nothing": the
        caller had a parent slot and it was empty, so nothing is recorded
        — this keeps sampled-out traces sampled out downstream.
        """
        if parent is _UNSET:
            ctx = self._current.get()
            if ctx is None:
                if not self._enabled:
                    return NOOP_SPAN
                if self._sample_rate < 1.0 and random.random() >= self._sample_rate:
                    return NOOP_SPAN
                return Span(
                    name,
                    trace_id=_new_id(),
                    span_id=_new_id(),
                    parent_id=None,
                    tracer=self,
                    attributes=attrs,
                )
        else:
            ctx = parent  # type: ignore[assignment]
            if ctx is None:
                return NOOP_SPAN
        return Span(
            name,
            trace_id=ctx.trace_id,
            span_id=_new_id(),
            parent_id=ctx.span_id,
            tracer=self,
            attributes=attrs,
        )

    def record(
        self,
        name: str,
        *,
        parent: TraceContext | None,
        start_wall: float,
        duration: float,
        attrs: Mapping[str, Any] | None = None,
        error: str | None = None,
    ) -> "Span | _NoopSpan":
        """Record a span for an interval that already elapsed.

        Used for phases whose start predates the code that can observe
        them — e.g. queue-wait, measured when the batch is *dequeued*.
        """
        if parent is None:
            return NOOP_SPAN
        span = Span(
            name,
            trace_id=parent.trace_id,
            span_id=_new_id(),
            parent_id=parent.span_id,
            tracer=self,
            attributes=attrs,
        )
        span.start_wall = float(start_wall)
        if error is not None:
            span.mark_error(error)
        span.duration = max(0.0, float(duration))
        self._record_finished(span)
        return span

    @contextmanager
    def activate(self, ctx: TraceContext | None) -> Iterator[None]:
        """Make ``ctx`` the ambient context for the body (cross-thread hand-off)."""
        if ctx is None:
            yield
            return
        token = self._current.set(ctx)
        try:
            yield
        finally:
            self._current.reset(token)

    # -- capture / stitching --------------------------------------------------
    @contextmanager
    def capture(self) -> Iterator[list[Span]]:
        """Collect every span finished or ingested on this thread.

        Worker processes wrap their replay in ``capture()`` and ship
        ``[s.to_dict() for s in sink]`` home with the result; nested
        captures each see the spans.
        """
        sink: list[Span] = []
        stack = getattr(self._sinks, "stack", None)
        if stack is None:
            stack = []
            self._sinks.stack = stack
        stack.append(sink)
        try:
            yield sink
        finally:
            stack.pop()

    def ingest(self, payloads: Iterable[Mapping[str, Any]]) -> list[Span]:
        """Stitch worker-serialised spans into this tracer's buffer."""
        spans = [Span.from_dict(p) for p in payloads]
        for span in spans:
            self._record_finished(span)
        return spans

    def _record_finished(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)
        stack = getattr(self._sinks, "stack", None)
        if stack:
            for sink in stack:
                sink.append(span)

    # -- retrieval ---------------------------------------------------------
    def spans(self, trace_id: str | None = None) -> list[Span]:
        """Finished spans, oldest first, optionally filtered to one trace."""
        with self._lock:
            snapshot = list(self._spans)
        if trace_id is None:
            return snapshot
        return [s for s in snapshot if s.trace_id == trace_id]

    def trace_ids(self) -> list[str]:
        """Distinct trace ids present in the buffer, oldest first."""
        seen: dict[str, None] = {}
        for span in self.spans():
            seen.setdefault(span.trace_id, None)
        return list(seen)

    def render_tree(self, trace_id: str, *, indent: str = "  ") -> str:
        """ASCII tree of one trace, children ordered by start time."""
        spans = self.spans(trace_id)
        by_id = {s.span_id: s for s in spans}
        children: dict[str | None, list[Span]] = {}
        for span in spans:
            parent = span.parent_id if span.parent_id in by_id else None
            children.setdefault(parent, []).append(span)
        for bucket in children.values():
            bucket.sort(key=lambda s: s.start_wall)
        lines: list[str] = []

        def walk(span: Span, depth: int) -> None:
            dur = f"{(span.duration or 0.0) * 1e3:.3f} ms"
            err = " [ERROR]" if span.error else ""
            lines.append(f"{indent * depth}{span.name} ({dur}){err}")
            for child in children.get(span.span_id, ()):  # pragma: no branch
                walk(child, depth + 1)

        for root in children.get(None, ()):
            walk(root, 0)
        return "\n".join(lines)


_tracer = Tracer()


def get_tracer() -> Tracer:
    """The process-wide tracer (one per process; workers get their own)."""
    return _tracer


def enable_tracing(sample_rate: float = 1.0) -> Tracer:
    """Turn on tracing process-wide; returns the tracer for convenience."""
    _tracer.enable(sample_rate)
    return _tracer


def disable_tracing() -> None:
    """Turn off tracing process-wide (already-recorded spans are kept)."""
    _tracer.disable()
