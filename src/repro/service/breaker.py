"""Lane circuit breakers: stop sending traffic into a failing execution lane.

A :class:`CircuitBreaker` guards one execution lane (the sharded process
pool).  While the lane is healthy the breaker is
*closed* and traffic flows.  After ``failure_threshold`` consecutive
infrastructure failures the breaker *opens*: callers get ``allow() ==
False`` and route the work to a degraded-but-correct fallback (the
in-process thread lane) instead of hammering a lane that is busy dying —
every replay is deterministic, so the fallback produces bit-identical
results, just slower.  After ``cooldown_seconds`` the breaker *half-opens*
and admits a single probe; one success closes it again, one failure
re-opens it for another cooldown.

Only *infrastructure* failures (see
:func:`repro.exec.retry.is_infrastructure_failure`) should be recorded —
a breaker must not trip because clients submit circuits that fail to
compile or deadlines that expire.  That classification is the caller's
job; the breaker just counts.

The clock is injectable so tests can step through open → half-open
transitions without sleeping.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

__all__ = ["CircuitBreaker"]

_CLOSED = "closed"
_OPEN = "open"
_HALF_OPEN = "half-open"


class CircuitBreaker:
    """Consecutive-failure breaker with half-open probing.

    Thread-safe: the broker's dispatcher threads consult one breaker per
    lane concurrently.  ``allow()`` claims the half-open probe slot
    atomically so exactly one thread probes a recovering lane while the
    rest keep using the fallback.
    """

    def __init__(
        self,
        name: str = "lane",
        *,
        failure_threshold: int = 3,
        cooldown_seconds: float = 5.0,
        clock: Callable[[], float] = time.time,
    ):
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be at least 1, got {failure_threshold}"
            )
        if cooldown_seconds < 0:
            raise ValueError("cooldown_seconds must be non-negative")
        self.name = name
        self.failure_threshold = int(failure_threshold)
        self.cooldown_seconds = float(cooldown_seconds)
        self._clock = clock
        self._lock = threading.Lock()
        self._state = _CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probe_in_flight = False
        self._trips = 0

    # -- gate ------------------------------------------------------------------
    def allow(self) -> bool:
        """Whether the caller may send work to the guarded lane right now.

        In the open state this flips to half-open once the cooldown has
        elapsed and grants the probe slot to the first caller; everyone
        else is refused until the probe reports back.
        """
        with self._lock:
            if self._state == _CLOSED:
                return True
            if self._state == _OPEN:
                if self._clock() - self._opened_at < self.cooldown_seconds:
                    return False
                self._state = _HALF_OPEN
                self._probe_in_flight = False
            # Half-open: admit exactly one probe.
            if self._probe_in_flight:
                return False
            self._probe_in_flight = True
            return True

    # -- outcomes --------------------------------------------------------------
    def record_success(self) -> None:
        with self._lock:
            self._state = _CLOSED
            self._consecutive_failures = 0
            self._probe_in_flight = False

    def record_failure(self) -> None:
        with self._lock:
            self._consecutive_failures += 1
            if self._state == _HALF_OPEN:
                # The probe failed: straight back to open for a new cooldown.
                self._trip()
            elif (
                self._state == _CLOSED
                and self._consecutive_failures >= self.failure_threshold
            ):
                self._trip()

    def _trip(self) -> None:
        self._state = _OPEN
        self._opened_at = self._clock()
        self._probe_in_flight = False
        self._trips += 1

    # -- introspection ---------------------------------------------------------
    @property
    def state(self) -> str:
        """Current state, re-evaluating an elapsed cooldown as half-open."""
        with self._lock:
            if (
                self._state == _OPEN
                and self._clock() - self._opened_at >= self.cooldown_seconds
            ):
                return _HALF_OPEN
            return self._state

    @property
    def trips(self) -> int:
        with self._lock:
            return self._trips

    def snapshot(self) -> dict:
        state = self.state
        with self._lock:
            return {
                "name": self.name,
                "state": state,
                "consecutive_failures": self._consecutive_failures,
                "failure_threshold": self.failure_threshold,
                "cooldown_seconds": self.cooldown_seconds,
                "trips": self._trips,
            }

    def __repr__(self) -> str:
        return (
            f"CircuitBreaker(name={self.name!r}, state={self.state!r}, "
            f"failures={self._consecutive_failures}/{self.failure_threshold})"
        )
