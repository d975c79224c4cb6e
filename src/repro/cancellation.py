"""Cooperative cancellation and deadlines for in-flight executions.

A :class:`CancelToken` is the one object every execution lane consults to
decide whether to keep going: the broker creates one per job (carrying the
job's absolute deadline), installs it as the *ambient* token around the
batch execution, and every layer below — plan compilation, the serial and
chunk-parallel replay loops, the tableau — calls :meth:`CancelToken.check` at its
natural boundaries.  A tripped token raises a typed error
(:class:`~repro.exceptions.JobCancelled` or
:class:`~repro.exceptions.DeadlineExceeded`), never kills a worker, and
never leaves shared state locked: abandoning a replay mid-flight costs one
discarded state buffer.

The ambient mechanism mirrors the profiler's (:mod:`repro.obs.profiler`):
a thread-local slot read once per replay, so the disabled path costs one
attribute load and a ``None`` check — nothing on the per-step hot path.

Deadlines are **wall-clock** (``time.time``), the clock the broker stamps
a job's submission with.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Iterator, Sequence

from .exceptions import DeadlineExceeded, JobCancelled

__all__ = [
    "CancelToken",
    "combine_tokens",
    "active_cancel_token",
    "cancel_scope",
]


class CancelToken:
    """A cancel flag plus an optional absolute wall-clock deadline."""

    __slots__ = ("deadline", "_cancelled")

    def __init__(self, deadline: float | None = None, timeout: float | None = None):
        """``deadline`` is absolute (``time.time()``-based); ``timeout`` is
        relative seconds from now.  When both are given the earlier wins."""
        resolved = deadline
        if timeout is not None:
            relative = time.time() + float(timeout)
            resolved = relative if resolved is None else min(resolved, relative)
        self.deadline = resolved
        self._cancelled = False

    # -- state ----------------------------------------------------------------
    def cancel(self) -> None:
        """Request cooperative cancellation (idempotent, thread-safe: a bool
        store is atomic under the GIL and monotonic — never un-set)."""
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def expired(self, now: float | None = None) -> bool:
        if self.deadline is None:
            return False
        return (time.time() if now is None else now) >= self.deadline

    def remaining(self, now: float | None = None) -> float | None:
        """Seconds until the deadline (``None`` = unbounded, floor 0.0)."""
        if self.deadline is None:
            return None
        return max(0.0, self.deadline - (time.time() if now is None else now))

    # -- the boundary check ----------------------------------------------------
    def check(self) -> None:
        """Raise the typed error if this token has tripped.

        Cancellation wins over an expired deadline: an explicit client
        action is more informative than the clock running out.
        """
        if self._cancelled:
            raise JobCancelled("job was cancelled by the client")
        if self.expired():
            raise DeadlineExceeded(
                f"job deadline passed (deadline={self.deadline:.3f}, "
                f"now={time.time():.3f})"
            )

    def __repr__(self) -> str:
        return (
            f"CancelToken(cancelled={self._cancelled}, deadline={self.deadline})"
        )


class _CombinedToken(CancelToken):
    """A batch-level view over several riders' tokens.

    The batch should keep running while *any* rider still wants the result:
    ``cancelled`` only when every part is cancelled, and the deadline is the
    latest of the parts (unbounded if any part is unbounded).  Individual
    riders are still triaged against their own tokens at reconcile time.
    """

    __slots__ = ("_parts",)

    def __init__(self, parts: Sequence[CancelToken]):
        deadline: float | None = None
        unbounded = False
        for part in parts:
            if part.deadline is None:
                unbounded = True
            elif deadline is None or part.deadline > deadline:
                deadline = part.deadline
        super().__init__(deadline=None if unbounded else deadline)
        self._parts = tuple(parts)

    @property
    def cancelled(self) -> bool:  # type: ignore[override]
        return self._cancelled or all(part.cancelled for part in self._parts)

    def check(self) -> None:
        if self.cancelled:
            raise JobCancelled("job was cancelled by the client")
        if self.expired():
            raise DeadlineExceeded(
                f"job deadline passed (deadline={self.deadline:.3f}, "
                f"now={time.time():.3f})"
            )


def combine_tokens(parts: Sequence[CancelToken]) -> CancelToken:
    """One token for a coalesced batch: run while any rider still wants it."""
    if len(parts) == 1:
        return parts[0]
    return _CombinedToken(parts)


# ---------------------------------------------------------------------------
# Ambient (thread-local) token
# ---------------------------------------------------------------------------

_tls = threading.local()


def active_cancel_token() -> CancelToken | None:
    """The ambient token installed on this thread (``None`` = uncancellable)."""
    return getattr(_tls, "token", None)


@contextmanager
def cancel_scope(token: CancelToken | None) -> Iterator[None]:
    """Install ``token`` as the ambient token for the duration of the block.

    ``None`` is accepted and installs nothing, so callers can thread an
    optional token without branching.
    """
    if token is None:
        yield
        return
    previous = getattr(_tls, "token", None)
    _tls.token = token
    try:
        yield
    finally:
        _tls.token = previous
