"""Job descriptions, priorities, results and the user-facing handle.

A *job* is one client request: run this circuit on this backend with this
many shots.  The broker may satisfy it without any backend execution (cache
hit), by attaching it to an identical pending job (coalescing), or by
dispatching a fresh execution; the :class:`JobResult` records which path was
taken so benchmarks and tests can assert on the broker's behaviour, not just
its outputs.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import enum
from dataclasses import dataclass, field
from typing import Callable, Mapping

from ..cancellation import CancelToken
from ..exceptions import ExecutionError, JobCancelled
from ..ir.composite import CompositeInstruction
from ..obs.trace import NOOP_SPAN

__all__ = ["JobPriority", "JobSpec", "JobResult", "JobHandle"]


class JobPriority(enum.IntEnum):
    """Scheduling priority; lower values are served first."""

    HIGH = 0
    NORMAL = 1
    LOW = 2


@dataclass(frozen=True)
class JobSpec:
    """Immutable description of one submitted job."""

    key: str
    circuit: CompositeInstruction
    backend: str
    shots: int
    n_qubits: int
    priority: JobPriority = JobPriority.NORMAL
    options: Mapping[str, object] = field(default_factory=dict)
    #: Absolute wall-clock deadline (``time.time()``-based) or ``None``.
    #: Deliberately excluded from the job key: a deadline changes whether a
    #: result arrives, never what the result is.
    deadline: float | None = None
    #: Sweep-chunk payload (a :class:`repro.service.sweep._SweepChunk`) when
    #: this spec is one fan-out chunk of a parameter sweep; ``None`` for
    #: ordinary jobs.  Chunk keys are unique per chunk, so sweep specs never
    #: coalesce with each other or with plain submissions.
    sweep: object | None = None
    #: Tenant this job was submitted under (``None`` = untenanted); used
    #: only to apply per-tenant default deadlines at submit.
    tenant: str | None = None

    def __post_init__(self) -> None:
        if self.shots <= 0:
            raise ExecutionError(f"shots must be positive, got {self.shots}")
        if self.n_qubits < 1:
            raise ExecutionError(f"jobs need at least 1 qubit, got {self.n_qubits}")


@dataclass(frozen=True)
class JobResult:
    """Outcome of one job: the histogram plus how the broker produced it."""

    #: Measurement histogram with exactly ``shots`` total observations.
    counts: Mapping[str, int]
    #: Number of shots the client asked for (and ``counts`` sums to).
    shots: int
    #: Backend that produced (or originally produced) the counts.
    backend: str
    #: Canonical job key the result was filed under.
    key: str
    #: True when no backend execution happened for this job at all.
    from_cache: bool = False
    #: True when this job shared a single backend execution with others.
    coalesced: bool = False
    #: Wall-clock seconds of the backend execution serving this job
    #: (0.0 for pure cache hits).
    execution_seconds: float = 0.0

    def total_counts(self) -> int:
        return sum(self.counts.values())


class JobHandle:
    """Future-like handle returned by :meth:`QuantumJobService.submit`."""

    def __init__(self, spec: JobSpec):
        self.spec = spec
        self._future: "concurrent.futures.Future[JobResult]" = concurrent.futures.Future()
        #: Root span of this job's trace (broker-set; a shared no-op span
        #: when tracing is off, so resolution paths never branch on it).
        self._trace_span = NOOP_SPAN
        #: Wall-clock submit time, anchoring the retroactive queue-wait span.
        self._enqueued_wall = 0.0
        #: Cooperative cancellation token (broker-set; carries the job's
        #: absolute deadline).  ``None`` only for handles constructed outside
        #: the broker.
        self.cancel_token: CancelToken | None = None
        #: Broker-set liveness probe: ``False`` once nothing can resolve
        #: this handle any more (dispatcher pool dead, or the service shut
        #: down before it ever started).  Consulted by unbounded ``result()``
        #: waits so a client never hangs on an orphaned handle.
        self._service_alive: Callable[[], bool] | None = None

    # -- tracing ---------------------------------------------------------------
    @property
    def trace_id(self) -> str | None:
        """Trace id of this job's span tree (``None`` when tracing is off)."""
        ctx = self._trace_span.context()
        return ctx.trace_id if ctx is not None else None

    # -- metadata ---------------------------------------------------------------
    @property
    def key(self) -> str:
        return self.spec.key

    @property
    def shots(self) -> int:
        return self.spec.shots

    # -- lifecycle --------------------------------------------------------------
    def cancel(self) -> bool:
        """Request cancellation; returns True when it took effect.

        Immediate for the client: the handle resolves with
        :class:`~repro.exceptions.JobCancelled` right away (``False`` when
        the job already completed).  Cooperative for the backend: the token
        trips, and any in-flight replay abandons the job at its next step
        boundary — no thread is ever killed to cancel a job.
        """
        if self.cancel_token is not None:
            self.cancel_token.cancel()
        if self._future.done():
            return isinstance(self._future.exception(), JobCancelled)
        self._fail(JobCancelled("job was cancelled by the client"))
        # _fail is conditional, so re-read what actually won the race.
        return isinstance(self._future.exception(), JobCancelled)

    @property
    def cancelled(self) -> bool:
        token = self.cancel_token
        return token is not None and token.cancelled

    # -- future protocol -------------------------------------------------------
    def done(self) -> bool:
        return self._future.done()

    def result(self, timeout: float | None = None) -> JobResult:
        """Block until the job resolves; raises the job's error if it failed.

        An unbounded wait (``timeout=None``) is not a blind block: the
        handle polls, and raises :class:`TimeoutError` as soon as the
        broker reports it can no longer resolve this job (dispatcher pool
        dead, or the service shut down before starting) — a client never
        hangs forever on an orphaned handle.
        """
        if timeout is not None:
            return self._future.result(timeout)
        while True:
            try:
                return self._future.result(timeout=0.1)
            except concurrent.futures.TimeoutError:
                alive = self._service_alive
                if alive is None:
                    continue
                try:
                    if alive():
                        continue
                except Exception:
                    pass  # a dying probe means a dying service: fall through
                raise TimeoutError(
                    f"job {self.key[:12]} cannot resolve any more: the "
                    "service's dispatcher pool is not running"
                ) from None

    def exception(self, timeout: float | None = None) -> BaseException | None:
        return self._future.exception(timeout)

    def counts(self, timeout: float | None = None) -> dict[str, int]:
        """Convenience: block and return just the histogram."""
        return dict(self.result(timeout).counts)

    def add_done_callback(self, fn) -> None:
        self._future.add_done_callback(lambda _future: fn(self))

    # -- asyncio bridge ----------------------------------------------------------
    def asyncio_future(self) -> "asyncio.Future[JobResult]":
        """This job as an asyncio future on the running event loop.

        Each call wraps the underlying ``concurrent.futures`` future anew,
        so handles can be awaited from several coroutines independently.
        """
        return asyncio.wrap_future(self._future)

    async def aresult(self) -> JobResult:
        """Await the job's resolution without blocking the event loop."""
        return await self.asyncio_future()

    def __await__(self):
        """``result = await handle`` — see :meth:`QuantumJobService.asubmit`."""
        return self.asyncio_future().__await__()

    # -- resolution (broker-side) ------------------------------------------------
    def _resolve(self, result: JobResult) -> None:
        if not self._future.done():
            self._future.set_result(result)

    def _fail(self, error: BaseException) -> None:
        if not self._future.done():
            self._future.set_exception(error)

    def __repr__(self) -> str:
        state = "done" if self.done() else "pending"
        return f"JobHandle(key={self.key[:12]}…, shots={self.shots}, {state})"
