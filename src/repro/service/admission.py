"""Memory-budget admission control for the job broker.

A 28-qubit statevector is 4 GiB; two replayed concurrently ping-pong into
16 GiB of live amplitude buffers and the host OOM-kills the service.  The
:class:`AdmissionController` prevents that by making memory an explicit,
accounted resource: before a batch executes, the broker asks for a ticket
sized to the job's working set, and the controller grants it only when the
total — in-flight tickets plus everything already resident (compiled
plans, cached histograms) — fits the budget.

Jobs that do not fit *right now* wait on a condition variable for running
tickets to release (queueing, not failing); jobs that can *never* fit —
the request alone exceeds the whole budget — are rejected immediately with
:class:`~repro.exceptions.AdmissionRejected`, and so are jobs whose wait
exceeds ``max_wait`` or whose deadline would expire while queued.

The resident terms are read from the structures themselves: compiled
plans are walked (``ExecutionPlan.memory_bytes`` — cheap at admission
frequency), while ``ResultCache.memory_bytes`` is a total the cache moves
with every entry it adds or drops, because walking its histograms held the
lock every cache hit needs (a test checks it against the walk).
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from ..exceptions import AdmissionRejected
from ..simulator.parallel_engine import branch_memo_bytes

__all__ = ["AdmissionController", "AdmissionTicket", "estimate_job_bytes"]

#: Per-amplitude byte cost of a replay (state + equal-size scratch).
_AMPLITUDE_ITEMSIZE = {"double": 16, "single": 8}


def estimate_job_bytes(
    n_qubits: int,
    shots: int = 0,
    precision: str = "double",
    *,
    method: str = "statevector",
    resets: int = 0,
) -> int:
    """Working-set estimate for one job of ``n_qubits``.

    For dense methods, dominated by the amplitude buffers: ``2**n``
    amplitudes in the job's precision tier (complex128 by default,
    complex64 for ``"single"``), doubled for the ping-pong scratch.
    Histogram output is bounded by ``shots`` distinct bitstrings and is
    usually noise, but it is counted so a million-shot job on a wide
    register is not free.

    When the classifier routed the job to the stabilizer tableau
    (``method="stabilizer"``), the working set is the O(n²) binary tableau
    instead — this is what lets a 500-qubit Clifford job through a budget
    that would reject its 2**500-amplitude dense estimate outright.

    A dense job with ``resets`` mid-circuit resets also holds its trajectory
    branch tree: up to
    :func:`~repro.simulator.parallel_engine.branch_memo_bytes` more.
    """
    if str(method).strip().lower() == "stabilizer":
        from ..exec.stabilizer import estimate_tableau_bytes

        return estimate_tableau_bytes(max(0, int(n_qubits)), int(shots))
    itemsize = _AMPLITUDE_ITEMSIZE.get(str(precision), 16)
    amplitudes = 1 << max(0, int(n_qubits))
    memo = branch_memo_bytes(n_qubits, resets, itemsize)
    return amplitudes * itemsize * 2 + int(shots) * 8 + memo


class AdmissionTicket:
    """A granted reservation; release it when the job finishes (idempotent)."""

    __slots__ = ("requested_bytes", "_controller", "_released")

    def __init__(self, controller: "AdmissionController", requested_bytes: int):
        self._controller = controller
        self.requested_bytes = requested_bytes
        self._released = False

    def release(self) -> None:
        if self._released:
            return
        self._released = True
        self._controller._release(self.requested_bytes)

    def __enter__(self) -> "AdmissionTicket":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


class _NullTicket(AdmissionTicket):
    """Granted by an unbudgeted controller: release is a no-op."""

    def __init__(self):  # pylint: disable=super-init-not-called
        self.requested_bytes = 0
        self._released = True

    def release(self) -> None:
        pass


_NULL_TICKET = _NullTicket()


class AdmissionController:
    """Grant/queue/reject jobs against a byte budget.

    ``resident_sources`` are zero-argument callables returning currently
    resident bytes outside the controller's own tickets (plan cache,
    result cache); they are polled at admission time.  A
    ``budget_bytes`` of ``None`` disables accounting entirely — ``admit``
    returns a shared no-op ticket and never blocks.
    """

    def __init__(
        self,
        budget_bytes: int | None = None,
        *,
        max_wait: float = 5.0,
        resident_sources: tuple[Callable[[], int], ...] = (),
    ):
        if budget_bytes is not None and budget_bytes < 1:
            raise ValueError(
                f"budget_bytes must be positive (or None to disable), "
                f"got {budget_bytes}"
            )
        self.budget_bytes = budget_bytes
        self.max_wait = float(max_wait)
        self._sources = tuple(resident_sources)
        self._lock = threading.Lock()
        self._granted = threading.Condition(self._lock)
        self._inflight_bytes = 0
        self._inflight_tickets = 0
        self._admitted = 0
        self._rejected = 0
        self._waited = 0

    def add_resident_source(self, source: Callable[[], int]) -> None:
        with self._lock:
            self._sources += (source,)

    # -- accounting ------------------------------------------------------------
    def resident_bytes(self) -> int:
        """Bytes currently resident outside in-flight tickets."""
        total = 0
        for source in self._sources:
            try:
                total += int(source())
            except Exception:
                # A dying source (e.g. a pool mid-teardown) must not wedge
                # admission; its bytes are about to be freed anyway.
                continue
        return total

    def used_bytes(self) -> int:
        with self._lock:
            inflight = self._inflight_bytes
        return inflight + self.resident_bytes()

    # -- the gate --------------------------------------------------------------
    def admit(
        self, requested_bytes: int, *, deadline: float | None = None
    ) -> AdmissionTicket:
        """Block until ``requested_bytes`` fits, then return the ticket.

        Raises :class:`AdmissionRejected` when the request exceeds the
        entire budget (hopeless — queueing cannot help), or when the wait
        outlasts ``max_wait`` or the job's own ``deadline`` (absolute
        wall clock).  An unbudgeted controller admits immediately.
        """
        budget = self.budget_bytes
        if budget is None:
            return _NULL_TICKET
        requested = max(0, int(requested_bytes))
        if requested > budget:
            with self._lock:
                self._rejected += 1
            raise AdmissionRejected(
                f"job needs {requested} bytes but the entire budget is "
                f"{budget} bytes; shrink the job or raise the budget",
                requested_bytes=requested,
                budget_bytes=budget,
                used_bytes=self.used_bytes(),
            )
        give_up = time.time() + self.max_wait
        if deadline is not None:
            give_up = min(give_up, deadline)
        waited = False
        while True:
            resident = self.resident_bytes()  # polled outside the lock
            with self._lock:
                used = self._inflight_bytes + resident
                if used + requested <= budget:
                    self._inflight_bytes += requested
                    self._inflight_tickets += 1
                    self._admitted += 1
                    if waited:
                        self._waited += 1
                    return AdmissionTicket(self, requested)
                remaining = give_up - time.time()
                if remaining <= 0:
                    self._rejected += 1
                    raise AdmissionRejected(
                        f"job needs {requested} bytes but {used} of "
                        f"{budget} budgeted bytes are in use and none "
                        f"released within the admission wait",
                        requested_bytes=requested,
                        budget_bytes=budget,
                        used_bytes=used,
                    )
                waited = True
                # Wake on ticket release, or after a slice to re-poll the
                # resident sources (they shrink without notifying us).
                self._granted.wait(min(remaining, 0.05))

    def _release(self, requested_bytes: int) -> None:
        with self._lock:
            self._inflight_bytes = max(0, self._inflight_bytes - requested_bytes)
            self._inflight_tickets = max(0, self._inflight_tickets - 1)
            self._granted.notify_all()

    # -- introspection ---------------------------------------------------------
    def snapshot(self) -> dict:
        resident = self.resident_bytes() if self.budget_bytes is not None else 0
        with self._lock:
            return {
                "budget_bytes": self.budget_bytes,
                "inflight_bytes": self._inflight_bytes,
                "inflight_tickets": self._inflight_tickets,
                "resident_bytes": resident,
                "admitted": self._admitted,
                "rejected": self._rejected,
                "waited": self._waited,
            }
