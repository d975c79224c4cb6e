"""Opt-in per-kernel replay profiler.

Attributes plan-replay wall time to each kernel class
(single/controlled/diagonal/permutation/gather/dense/…).  The hooks live in
:meth:`ExecutionPlan.execute`, which checks :func:`active_profiler` once per
replay and runs its original tight loop untouched when it returns ``None``,
so the disabled cost is a single module-global read.  A chunked step is
timed once, around all of its chunks, so a replay's kernels sum to its
wall time on either lane.

Worker processes never share the parent's profiler object; they build a
local :class:`ReplayProfiler`, serialise it with :meth:`ReplayProfiler.to_wire`,
and the parent folds it in with :meth:`ReplayProfiler.merge_wire`.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Iterator, Mapping

__all__ = [
    "KernelTiming",
    "ProfileSnapshot",
    "ReplayProfiler",
    "active_profiler",
    "disable_profiler",
    "enable_profiler",
    "profiler_installed",
]


@dataclass(frozen=True)
class KernelTiming:
    """Aggregate timing for one kernel class."""

    calls: int
    seconds: float

    @property
    def mean_seconds(self) -> float:
        return self.seconds / self.calls if self.calls else 0.0


@dataclass(frozen=True)
class ProfileSnapshot:
    """Immutable view of a :class:`ReplayProfiler`."""

    kernels: Mapping[str, KernelTiming]

    @property
    def total_kernel_seconds(self) -> float:
        return sum(t.seconds for t in self.kernels.values())

    @property
    def total_calls(self) -> int:
        return sum(t.calls for t in self.kernels.values())

    def as_table(self) -> str:
        """Fixed-width text table, slowest kernel class first."""
        rows = sorted(self.kernels.items(), key=lambda kv: kv[1].seconds, reverse=True)
        lines = [f"{'kernel':<14} {'calls':>8} {'total':>12} {'mean':>12}"]
        for name, timing in rows:
            lines.append(
                f"{name:<14} {timing.calls:>8} "
                f"{timing.seconds * 1e3:>10.3f}ms {timing.mean_seconds * 1e6:>10.2f}µs"
            )
        return "\n".join(lines)


class ReplayProfiler:
    """Thread-safe accumulator of per-kernel replay time."""

    __slots__ = ("_kernels", "_lock")

    def __init__(self) -> None:
        self._kernels: dict[str, list[float]] = {}
        self._lock = threading.Lock()

    def record_kernel(self, name: str, seconds: float) -> None:
        with self._lock:
            slot = self._kernels.get(name)
            if slot is None:
                self._kernels[name] = [1, float(seconds)]
            else:
                slot[0] += 1
                slot[1] += float(seconds)

    # -- cross-process plumbing -------------------------------------------
    def to_wire(self) -> dict[str, Any]:
        """Plain-dict form safe to pickle back with a worker's result."""
        with self._lock:
            return {
                "kernels": {k: list(v) for k, v in self._kernels.items()},
            }

    def merge_wire(self, payload: Mapping[str, Any] | None) -> None:
        """Fold a worker's :meth:`to_wire` payload into this profiler."""
        if not payload:
            return
        kernels = payload.get("kernels") or {}
        with self._lock:
            for name, (calls, seconds) in kernels.items():
                slot = self._kernels.get(name)
                if slot is None:
                    self._kernels[name] = [int(calls), float(seconds)]
                else:
                    slot[0] += int(calls)
                    slot[1] += float(seconds)

    def merge(self, other: "ReplayProfiler") -> None:
        self.merge_wire(other.to_wire())

    # -- views ---------------------------------------------------------------
    def snapshot(self) -> ProfileSnapshot:
        with self._lock:
            kernels = {
                name: KernelTiming(calls=int(calls), seconds=float(seconds))
                for name, (calls, seconds) in self._kernels.items()
            }
        return ProfileSnapshot(kernels=MappingProxyType(kernels))

    def reset(self) -> None:
        with self._lock:
            self._kernels.clear()


_active: ReplayProfiler | None = None
_active_lock = threading.Lock()


def active_profiler() -> ReplayProfiler | None:
    """The installed profiler, or ``None`` (the hot-path check)."""
    return _active


def enable_profiler() -> ReplayProfiler:
    """Install (or return the already-installed) process-wide profiler."""
    global _active
    with _active_lock:
        if _active is None:
            _active = ReplayProfiler()
        return _active


def disable_profiler() -> None:
    """Uninstall the process-wide profiler; its data is discarded."""
    global _active
    with _active_lock:
        _active = None


@contextmanager
def profiler_installed(profiler: ReplayProfiler | None) -> Iterator[ReplayProfiler | None]:
    """Temporarily install ``profiler`` (worker processes, tests)."""
    global _active
    if profiler is None:
        yield None
        return
    with _active_lock:
        previous = _active
        _active = profiler
    try:
        yield profiler
    finally:
        with _active_lock:
            _active = previous
