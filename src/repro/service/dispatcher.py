"""Dispatcher pool: N worker threads, each owning a per-thread QPU.

This is where the broker meets the paper.  Every worker thread begins by
calling :func:`repro.core.api.initialize` — in thread-safe mode that
registers a *fresh accelerator clone* for the worker with the
:class:`~repro.core.qpu_manager.QPUManager` (the Listing 8 path), so the
pool's concurrent executions never share simulator state.  In legacy mode
the same call races on the shared global ``qpu`` of Listing 7, and the
execution itself is wrapped in an unsafe race-detector section on the same
``"global_qpu"`` resource — running the broker with ``thread_safe=False``
therefore *records* the data races the paper analyses, while the default
mode records none.  Demonstrating that contrast under real service load is
part of the reproduction.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable

from ..config import get_config
from ..core.api import finalize, initialize
from ..core.race_detector import get_race_detector
from ..runtime.accelerator import Accelerator
from .batching import BatchingJobQueue, PendingBatch

__all__ = ["DispatcherPool"]


class DispatcherPool:
    """Fixed pool of dispatch threads draining a :class:`BatchingJobQueue`."""

    def __init__(
        self,
        queue: BatchingJobQueue,
        handler: Callable[[PendingBatch, Accelerator], None],
        workers: int = 4,
        backend: str | None = None,
        backend_options: dict[str, object] | None = None,
        name: str = "job-broker",
        on_init_failure: Callable[[BaseException], None] | None = None,
    ):
        if workers < 1:
            raise ValueError(f"dispatcher pool needs at least 1 worker, got {workers}")
        self._queue = queue
        self._handler = handler
        self._backend = backend
        self._backend_options = dict(backend_options or {})
        self._on_init_failure = on_init_failure
        self._threads = [
            threading.Thread(
                target=self._run, name=f"{name}-worker-{index}", daemon=True
            )
            for index in range(workers)
        ]
        self._started = False
        self._init_errors: list[BaseException] = []
        self._init_lock = threading.Lock()

    # -- lifecycle ----------------------------------------------------------------
    def start(self) -> None:
        if self._started:
            return
        self._started = True
        for thread in self._threads:
            thread.start()

    def join(self, timeout: float | None = None) -> None:
        """Wait for every worker to exit (call after closing the queue)."""
        for thread in self._threads:
            thread.join(timeout)

    def alive_count(self) -> int:
        return sum(1 for thread in self._threads if thread.is_alive())

    @property
    def size(self) -> int:
        return len(self._threads)

    def init_errors(self) -> list[BaseException]:
        """Initialization failures observed by workers (diagnostics)."""
        with self._init_lock:
            return list(self._init_errors)

    def all_workers_failed_init(self) -> bool:
        """True when every worker died in ``initialize()`` — nothing will
        ever drain the queue (``alive_count`` can't express this: the last
        failing worker is still alive while reporting its own failure)."""
        with self._init_lock:
            return len(self._init_errors) >= len(self._threads)

    # -- worker body --------------------------------------------------------------
    def _run(self) -> None:
        try:
            # The per-thread quantum::initialize() the paper requires; each
            # worker gets its own accelerator clone in thread-safe mode.
            # The returned instance is kept for the worker's whole life: in
            # legacy mode a per-batch get_qpu() could lazily re-resolve the
            # nulled shared global *without* this pool's backend options.
            qpu = initialize(self._backend, options=self._backend_options or None)
        except BaseException as exc:
            with self._init_lock:
                self._init_errors.append(exc)
            if self._on_init_failure is not None:
                self._on_init_failure(exc)
            return
        try:
            while True:
                batch = self._queue.get(timeout=None)
                if batch is None:
                    return
                with self._execution_guard():
                    self._handler(batch, qpu)
        finally:
            finalize()

    @staticmethod
    def _execution_guard() -> contextlib.AbstractContextManager:
        """Race-detector section around one backend execution.

        Safe (unrecorded) in thread-safe mode where each worker holds its
        own clone; unsafe (recorded, and overlapping under load) in legacy
        mode where every worker drives the one shared instance.
        """
        return get_race_detector().access("global_qpu", safe=get_config().thread_safe)
