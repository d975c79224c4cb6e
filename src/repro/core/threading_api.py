"""QCOR-aware threading constructs (``qcor::thread`` / ``qcor::async``).

The paper notes a usability wart of its implementation: every user thread
must call ``quantum::initialize()`` before touching the runtime, and
proposes wrappers that do it automatically.  These are those wrappers:

* :func:`qcor_thread` — like ``std::thread`` but the target runs after a
  per-thread :func:`repro.core.api.initialize`.
* :func:`qcor_async` — like ``std::async``; returns a
  :class:`concurrent.futures.Future` whose callable is initialised the same
  way.
* :class:`TaskGroup` — a small structured-concurrency helper for launching
  several kernels and waiting for all of them (used by the parallel Shor
  driver).
"""

from __future__ import annotations

import concurrent.futures
import os
import threading
from typing import Callable, Mapping, Sequence, TypeVar

from ..runtime.accelerator import Accelerator
from .api import finalize, initialize

__all__ = ["qcor_thread", "qcor_async", "TaskGroup"]

R = TypeVar("R")


def _wrap_with_initialize(
    target: Callable[..., R],
    accelerator: str | Accelerator | None,
    shots: int | None,
    options: Mapping[str, object] | None,
) -> Callable[..., R]:
    """Return a callable that initialises the runtime for its thread, runs
    ``target`` and always finalises the thread's registration."""

    def runner(*args, **kwargs) -> R:
        initialize(accelerator, shots=shots, options=options)
        try:
            return target(*args, **kwargs)
        finally:
            finalize()

    return runner


def qcor_thread(
    target: Callable[..., object],
    *args,
    accelerator: str | Accelerator | None = None,
    shots: int | None = None,
    options: Mapping[str, object] | None = None,
    **kwargs,
) -> threading.Thread:
    """Start a thread that runs ``target`` with per-thread QPU initialisation.

    Mirrors Listing 4 of the paper but without the manual
    ``quantum::initialize()`` call inside the target.  The thread is started
    before being returned; callers ``join()`` it.
    """
    runner = _wrap_with_initialize(target, accelerator, shots, options)
    thread = threading.Thread(target=runner, args=args, kwargs=kwargs)
    thread.start()
    return thread


_async_pool: concurrent.futures.ThreadPoolExecutor | None = None
_async_lock = threading.Lock()


def async_pool() -> concurrent.futures.ThreadPoolExecutor:
    """The process's one async pool (``qcor_async`` and ``std_async``).

    One worker per host core, all started when the pool is created — on the
    first call, never at import or in :func:`initialize`, so a process that
    launches nothing asynchronously gains no thread.  A lazily growing pool
    spawns a worker whenever a submit finds none idle, and a worker
    publishes its result *before* it counts itself idle, so a submit landing
    in between grew the pool long after start-up; a full pool cannot grow.
    """
    global _async_pool
    with _async_lock:
        if _async_pool is None:
            workers = os.cpu_count() or 1
            pool = concurrent.futures.ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="qcor-async"
            )
            # A submit starts a worker only while none is idle: hold each
            # one at a barrier until the last has started.
            all_started = threading.Barrier(workers + 1)
            for _ in range(workers):
                pool.submit(all_started.wait)
            all_started.wait()
            _async_pool = pool
        return _async_pool


def qcor_async(
    target: Callable[..., R],
    *args,
    accelerator: str | Accelerator | None = None,
    shots: int | None = None,
    options: Mapping[str, object] | None = None,
    **kwargs,
) -> "concurrent.futures.Future[R]":
    """Asynchronously run ``target`` with per-thread QPU initialisation.

    Mirrors Listing 5 of the paper: returns a future whose ``result()`` is
    the target's return value.  Targets share :func:`async_pool`'s
    ``os.cpu_count()`` workers and queue behind one another, so a target
    that *blocks on another* ``qcor_async`` result can starve itself of the
    worker that result needs — such a target belongs on :func:`qcor_thread`.
    """
    runner = _wrap_with_initialize(target, accelerator, shots, options)
    return async_pool().submit(runner, *args, **kwargs)


class TaskGroup:
    """Launch several quantum-classical tasks and wait for all of them.

    Example::

        with TaskGroup() as group:
            group.launch(run_shor, 15, 2)
            group.launch(run_shor, 15, 7)
        results = group.results()
    """

    def __init__(
        self,
        accelerator: str | Accelerator | None = None,
        shots: int | None = None,
        options: Mapping[str, object] | None = None,
    ):
        self._accelerator = accelerator
        self._shots = shots
        self._options = options
        self._futures: list[concurrent.futures.Future] = []

    def launch(self, target: Callable[..., R], *args, **kwargs) -> "concurrent.futures.Future[R]":
        """Launch one task; returns its future."""
        future = qcor_async(
            target,
            *args,
            accelerator=self._accelerator,
            shots=self._shots,
            options=self._options,
            **kwargs,
        )
        self._futures.append(future)
        return future

    def launch_all(
        self, target: Callable[..., R], argument_tuples: Sequence[Sequence]
    ) -> list["concurrent.futures.Future[R]"]:
        """Launch ``target`` once per argument tuple."""
        return [self.launch(target, *args) for args in argument_tuples]

    def wait(self, timeout: float | None = None) -> None:
        """Block until every launched task finishes."""
        concurrent.futures.wait(self._futures, timeout=timeout)

    def results(self, timeout: float | None = None) -> list:
        """Return every task's result (in launch order), waiting as needed."""
        return [future.result(timeout) for future in self._futures]

    @property
    def futures(self) -> tuple[concurrent.futures.Future, ...]:
        return tuple(self._futures)

    def __enter__(self) -> "TaskGroup":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # Even on error we wait so no task outlives the group silently.
        self.wait()
