"""Exception hierarchy for the :mod:`repro` programming system.

The hierarchy mirrors the layers of the system:

* IR / compiler errors are raised while building or parsing kernels.
* Runtime errors are raised by the XACC-like substrate (service registry,
  allocation, accelerators).
* Execution errors are raised while a kernel is running on a backend.
* Thread-safety violations are raised (or recorded) by the race detector
  when the legacy, non-thread-safe code paths are exercised concurrently.

Every exception derives from :class:`ReproError` so callers can catch the
whole family with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigurationError(ReproError):
    """Raised when an invalid configuration value is supplied."""


# ---------------------------------------------------------------------------
# IR / compiler layer
# ---------------------------------------------------------------------------


class IRError(ReproError):
    """Base class for errors in the intermediate representation layer."""


class InvalidGateError(IRError):
    """Raised when an unknown gate name or malformed gate is used."""


class ParameterBindingError(IRError):
    """Raised when binding symbolic parameters fails (missing/extra values)."""


class CompilationError(ReproError):
    """Raised when compiling a kernel source (XASM / OpenQASM / DSL) fails."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        location = ""
        if line is not None:
            location = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + location)


class TransformError(IRError):
    """Raised when an IR transformation pass fails."""


# ---------------------------------------------------------------------------
# Runtime substrate (XACC-like)
# ---------------------------------------------------------------------------


class RuntimeLayerError(ReproError):
    """Base class for errors raised by the runtime substrate."""


class ServiceNotFoundError(RuntimeLayerError):
    """Raised when :func:`get_service` cannot resolve a service name."""


class AllocationError(RuntimeLayerError):
    """Raised when qubit-register allocation fails."""


class AcceleratorError(RuntimeLayerError):
    """Raised by accelerator backends for invalid configuration or state."""


class ServiceOverloadedError(RuntimeLayerError):
    """Raised when the job broker's bounded queue rejects a submission.

    Carries the observed queue depth and the bound so callers implementing
    client-side backoff can size their retry delay.
    """

    def __init__(self, depth: int, max_pending: int):
        self.depth = depth
        self.max_pending = max_pending
        super().__init__(
            f"job queue is full ({depth}/{max_pending} pending); "
            "retry later or use submit() to block for a slot"
        )


class NotInitializedError(RuntimeLayerError):
    """Raised when a thread uses the runtime before calling ``initialize()``.

    The paper requires each user thread to call ``quantum::initialize()`` so
    the runtime can register the thread's QPU instance with the QPUManager.
    This error is the Python analogue of the failure mode a user would hit
    when forgetting that call while ``strict_initialization`` is enabled.
    """


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


class ExecutionError(ReproError):
    """Raised when executing a quantum kernel fails."""


class NoiseModelError(ExecutionError):
    """Raised when a noise model is malformed (e.g. non-CPTP channel)."""


# ---------------------------------------------------------------------------
# Job lifecycle (fault-tolerant service tier)
# ---------------------------------------------------------------------------
#
# Every job submitted to the broker resolves in exactly one of these shapes
# (or with a plain success).  All four derive from :class:`ExecutionError`
# so pre-existing ``except ExecutionError`` handlers keep working, while new
# callers can distinguish *why* a job failed — the distinction drives retry
# decisions, circuit-breaker accounting and client-side backoff.  They keep
# single-string constructor signatures so instances survive pickling across
# the process boundary (shard workers raise them too).


class JobCancelled(ExecutionError):
    """Raised when a job was cancelled by the client before it completed.

    Cooperative: execution already in flight checks for cancellation at
    step boundaries and abandons the replay; a worker process is never
    killed to cancel a job.
    """


class DeadlineExceeded(ExecutionError):
    """Raised when a job's deadline passed before it produced a result.

    Checked at queue-dequeue, pre-compile, and per-chunk replay boundaries,
    so even a large mid-flight replay is abandoned promptly — and at result
    reconciliation, so a late result is never served past its deadline.
    """


class AdmissionRejected(ExecutionError):
    """Raised when memory-budget admission control refuses a job.

    Carries the accounting that produced the decision so clients can right-
    size their retry (shrink the job) or their deployment (raise the budget).
    """

    def __init__(
        self,
        message: str,
        *,
        requested_bytes: int = 0,
        budget_bytes: int = 0,
        used_bytes: int = 0,
    ):
        self.requested_bytes = int(requested_bytes)
        self.budget_bytes = int(budget_bytes)
        self.used_bytes = int(used_bytes)
        super().__init__(message)


class WorkerCrashed(ExecutionError):
    """Raised when a worker process died (or broke its pipe) mid-execution.

    The infrastructure-failure shape: the job itself is fine, the
    environment broke.  Retry policies classify this as retryable and
    circuit breakers count it against the lane's health.
    """


class RetryExhausted(ExecutionError):
    """Raised when a retry policy ran out of attempts for a retryable fault.

    The terminal form of the worker-death retry loop: every attempt hit a
    retryable infrastructure failure (dead worker process, broken pool) and
    the budget is spent.  ``attempts`` records how many executions were
    tried; ``__cause__`` carries the last underlying failure.
    """

    def __init__(self, message: str, *, attempts: int = 0):
        self.attempts = int(attempts)
        super().__init__(message)


class OptimizationError(ReproError):
    """Raised when a classical optimizer fails to run."""


# ---------------------------------------------------------------------------
# Thread safety
# ---------------------------------------------------------------------------


class ThreadSafetyViolation(ReproError):
    """Raised when the race detector observes an unsafe concurrent access.

    Only raised when the detector is configured with ``raise_on_race=True``;
    otherwise violations are recorded and can be inspected after the fact,
    which is more useful for tests that *expect* the legacy behaviour to
    race.
    """

    def __init__(self, resource: str, threads: tuple[int, ...] = ()):
        self.resource = resource
        self.threads = tuple(threads)
        detail = f" by threads {list(self.threads)}" if self.threads else ""
        super().__init__(f"unsynchronized concurrent access to {resource!r}{detail}")
