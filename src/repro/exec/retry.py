"""Retry policies: bounded attempts, exponential backoff, typed classification.

A :class:`RetryPolicy` is an explicit object the caller owns: how many
attempts, how long to back off between them (exponential with
deterministic jitter), and *which* failures are worth retrying at all.
The sharded executor runs under :data:`DEFAULT_RETRY_POLICY` unless given
another.

Classification is the load-bearing part.  Infrastructure failures (a
worker process SIGKILLed, a broken pool, an OS-level pipe error, memory
pressure) are transient-by-assumption: the respawned worker set is a fresh
environment and the replay is deterministic, so re-running is safe and
usually succeeds.  Job-shaped failures (a circuit that does not compile, a
cancelled job, a passed deadline, an admission rejection) are terminal:
retrying re-runs the same deterministic failure, so the policy refuses to
burn attempts on them no matter the budget.
"""

from __future__ import annotations

import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

from ..exceptions import (
    AdmissionRejected,
    CompilationError,
    DeadlineExceeded,
    IRError,
    JobCancelled,
    RetryExhausted,
    WorkerCrashed,
)

__all__ = [
    "RetryPolicy",
    "DEFAULT_RETRY_POLICY",
    "NO_RETRY",
    "is_retryable",
    "is_infrastructure_failure",
]

#: Failure types that indicate the *environment* broke, not the job: a new
#: attempt on a respawned worker set is expected to succeed.
_RETRYABLE_TYPES = (BrokenProcessPool, EOFError, ConnectionError, OSError, WorkerCrashed)

#: Failure types that are properties of the job itself (or of an explicit
#: lifecycle decision) — deterministic, so retrying cannot help.  Checked
#: before the retryable set: ``TimeoutError`` is an ``OSError`` subclass.
_TERMINAL_TYPES = (
    JobCancelled,
    DeadlineExceeded,
    AdmissionRejected,
    CompilationError,
    IRError,
    TimeoutError,
)


def is_retryable(error: BaseException) -> bool:
    """Whether a fresh attempt could plausibly succeed after ``error``."""
    if isinstance(error, _TERMINAL_TYPES):
        return False
    return isinstance(error, _RETRYABLE_TYPES)


def is_infrastructure_failure(error: BaseException) -> bool:
    """Whether ``error`` signals lane ill-health (circuit-breaker food).

    Broader than :func:`is_retryable`: a :class:`RetryExhausted` is not
    worth retrying again, but it absolutely counts against the lane that
    produced it, as does memory pressure.  Job-lifecycle and compile errors
    never count — a breaker must not trip because clients submit bad
    circuits or tight deadlines.
    """
    if isinstance(error, _TERMINAL_TYPES):
        return False
    return isinstance(error, _RETRYABLE_TYPES + (RetryExhausted, MemoryError))


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded attempts with exponential backoff and deterministic jitter.

    ``max_attempts`` counts *executions*, not retries: ``max_attempts=3``
    means one initial try plus up to two retries; ``max_attempts=1`` means
    never retry.  Delays grow as ``base_delay * multiplier**retry`` capped
    at ``max_delay``; ``jitter`` spreads each delay by a deterministic
    per-attempt factor in ``[1-jitter, 1+jitter]`` so a fleet of callers
    retrying the same incident does not stampede in lockstep (the factor
    derives from the attempt index, keeping tests reproducible).
    """

    max_attempts: int = 2
    base_delay: float = 0.05
    max_delay: float = 2.0
    multiplier: float = 2.0
    jitter: float = 0.1

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be at least 1, got {self.max_attempts}"
            )
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("backoff delays must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")

    # -- decisions -------------------------------------------------------------
    def is_retryable(self, error: BaseException) -> bool:
        return is_retryable(error)

    def should_retry(self, attempt: int, error: BaseException) -> bool:
        """Whether attempt number ``attempt`` (1-based) may be followed by
        another, given it failed with ``error``."""
        return attempt < self.max_attempts and self.is_retryable(error)

    def delay_for(self, retry: int) -> float:
        """Backoff before retry number ``retry`` (1-based)."""
        if self.base_delay == 0.0:
            return 0.0
        delay = min(
            self.max_delay, self.base_delay * self.multiplier ** (retry - 1)
        )
        if self.jitter:
            # Deterministic spread: a cheap hash of the retry index mapped
            # into [1-jitter, 1+jitter].  Reproducible under test, still
            # de-synchronising across distinct retry sequences at runtime.
            spread = ((retry * 2654435761) % 1000) / 1000.0
            delay *= 1.0 - self.jitter + 2.0 * self.jitter * spread
        return delay

    def sleep(self, retry: int, token=None) -> None:
        """Back off before retry ``retry``, honouring an optional token.

        Sleeps in short slices so a cancellation or deadline trips the
        typed error promptly instead of after the full backoff.
        """
        remaining = self.delay_for(retry)
        if token is None:
            if remaining > 0:
                time.sleep(remaining)
            return
        token.check()
        while remaining > 0:
            slice_ = min(remaining, 0.05)
            time.sleep(slice_)
            remaining -= slice_
            token.check()

    def exhausted(
        self, what: str, attempts: int, last_error: BaseException
    ) -> RetryExhausted:
        """The terminal error after ``attempts`` failed executions."""
        error = RetryExhausted(
            f"{what} failed {attempts} time(s); retry budget "
            f"({self.max_attempts} attempt(s)) exhausted: {last_error}",
            attempts=attempts,
        )
        error.__cause__ = last_error
        return error


#: The stack-wide default: one retry with a short first backoff (the
#: sharded executor's policy unless it is given another).
DEFAULT_RETRY_POLICY = RetryPolicy(max_attempts=2, base_delay=0.01, max_delay=0.5)

#: Never retry: fail fast and typed.
NO_RETRY = RetryPolicy(max_attempts=1, base_delay=0.0)
