"""Thin ``std::thread`` / ``std::async`` analogues.

The paper's user-facing constructs are plain C++ ``std::thread`` and
``std::async``; the Python equivalents here are intentionally minimal
wrappers over :mod:`threading` and :mod:`concurrent.futures` so that the
examples read like Listings 4 and 5 of the paper.  The QCOR-aware wrappers
that also perform the per-thread runtime initialisation live in
:mod:`repro.core.threading_api`.
"""

from __future__ import annotations

import concurrent.futures
import threading
from typing import Callable, Iterable, TypeVar

from ..core.threading_api import async_pool

__all__ = ["std_thread", "std_async", "join_all"]

R = TypeVar("R")


def std_thread(target: Callable[..., object], *args, **kwargs) -> threading.Thread:
    """Create **and start** a thread running ``target(*args, **kwargs)``.

    Mirrors ``std::thread t(foo);`` — construction starts execution; the
    caller is responsible for ``join()``.
    """
    thread = threading.Thread(target=target, args=args, kwargs=kwargs)
    thread.start()
    return thread


def std_async(fn: Callable[..., R], *args, **kwargs) -> "concurrent.futures.Future[R]":
    """Launch ``fn`` asynchronously and return a future (``std::async`` analogue).

    Runs on the process's one async pool
    (:func:`repro.core.threading_api.async_pool`, one worker per host core):
    the callable starts as soon as a worker is free.
    """
    return async_pool().submit(fn, *args, **kwargs)


def join_all(threads: Iterable[threading.Thread]) -> None:
    """Join every thread in ``threads`` (convenience for examples/tests)."""
    for thread in threads:
        thread.join()
