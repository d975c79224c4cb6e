"""One-by-one vs parallel kernel execution (the paper's two variants).

The benchmark harness and examples use this module to run a set of
:class:`KernelTask` objects either

* **one-by-one** — the conventional baseline: each kernel runs to completion
  before the next starts, with all ``total_threads`` simulator workers given
  to the single running kernel; or
* **in parallel** — the paper's approach: all kernels run concurrently on
  their own user threads (each with its own per-thread QPU instance via
  :func:`qcor_thread`-style initialisation), and the simulator workers are
  split evenly between them.

Both variants return an :class:`ExecutionReport` with per-task results and
wall-clock timings so callers can compute the speed-up ratios of Figures
3-5.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from ..config import get_config
from ..exceptions import ConfigurationError
from ..ir.composite import CompositeInstruction
from ..runtime.accelerator import Accelerator
from ..runtime.buffer import AcceleratorBuffer
from ..runtime.service_registry import get_accelerator
from .api import execute_circuit, finalize, initialize
from .threading_api import qcor_async

__all__ = ["KernelTask", "TaskResult", "ExecutionReport", "run_one_by_one", "run_parallel"]


@dataclass
class KernelTask:
    """One quantum kernel execution request.

    ``circuit_factory`` (rather than a pre-built circuit) keeps construction
    lazy; ``shots`` defaults to the global configuration.

    The circuit is **built once**: :meth:`build_circuit` calls the factory
    on first use and hands back the same object afterwards.  Circuits are
    append-only and their instructions immutable once added (see
    :class:`~repro.ir.composite.CompositeInstruction`) and every caller only
    reads, so one object per task is safe — and it is what lets the
    per-object content-hash memo and the plan cache's fast path hit on
    every run after the first (building and hashing a Shor kernel costs
    about as much as executing it).
    """

    name: str
    circuit_factory: Callable[[], CompositeInstruction]
    n_qubits: int
    shots: int | None = None
    #: Extra accelerator options (e.g. noise settings) for this task.
    accelerator_options: Mapping[str, object] = field(default_factory=dict)
    _circuit: CompositeInstruction | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def build_circuit(self) -> CompositeInstruction:
        if self._circuit is None:
            self._circuit = self.circuit_factory()
        return self._circuit


@dataclass
class TaskResult:
    """Result of one task: counts plus its own wall-clock duration."""

    name: str
    counts: dict[str, int]
    duration_seconds: float
    threads: int


@dataclass
class ExecutionReport:
    """Aggregate outcome of a variant run."""

    variant: str
    total_threads: int
    threads_per_task: int
    results: list[TaskResult]
    wall_time_seconds: float

    def speedup_over(self, baseline: "ExecutionReport") -> float:
        if self.wall_time_seconds <= 0:
            raise ConfigurationError("cannot compute speed-up for a zero wall time")
        return baseline.wall_time_seconds / self.wall_time_seconds

    def counts_by_task(self) -> dict[str, dict[str, int]]:
        return {r.name: r.counts for r in self.results}


def _make_accelerator(
    task: KernelTask,
    threads: int,
    backend: str | None,
    processes: int | None = None,
) -> Accelerator:
    options: dict[str, object] = {"threads": threads}
    sharding = processes is not None and processes > 1
    if sharding:
        # Route this task through the process-sharded execution backend
        # (the accelerator adapter resolves the shared ShardedExecutor).
        options["processes"] = processes
    options.update(task.accelerator_options)
    accelerator = get_accelerator(backend, options)
    if sharding and not hasattr(accelerator, "num_processes"):
        # Mirror the broker: a backend that cannot shard must not silently
        # swallow the request and run in-process.
        raise ConfigurationError(
            f"backend {accelerator.name()!r} does not support process "
            f"sharding; drop processes= or use the 'qpp' backend"
        )
    return accelerator


def _run_task(
    task: KernelTask,
    threads: int,
    backend: str | None,
    processes: int | None = None,
) -> TaskResult:
    """Execute one task on the calling thread with its own accelerator clone."""
    accelerator = _make_accelerator(task, threads, backend, processes)
    initialize(accelerator)
    try:
        buffer = AcceleratorBuffer(task.n_qubits, name=f"{task.name}_buffer")
        circuit = task.build_circuit()
        started = time.perf_counter()
        counts = execute_circuit(circuit, buffer, shots=task.shots, accelerator=accelerator)
        duration = time.perf_counter() - started
        return TaskResult(task.name, counts, duration, threads)
    finally:
        finalize()


def run_one_by_one(
    tasks: Sequence[KernelTask],
    total_threads: int | None = None,
    backend: str | None = None,
    processes: int | None = None,
) -> ExecutionReport:
    """Run every task sequentially, each using all ``total_threads`` workers.

    ``processes=N`` routes each task's execution through the shared
    process-sharded backend (shots split over ``N`` worker processes) — the
    same seam every other execution path uses.
    """
    total = total_threads if total_threads is not None else get_config().omp_num_threads
    if total < 1:
        raise ConfigurationError(f"total_threads must be at least 1, got {total}")
    started = time.perf_counter()
    results = [_run_task(task, total, backend, processes) for task in tasks]
    wall = time.perf_counter() - started
    return ExecutionReport(
        variant="one-by-one",
        total_threads=total,
        threads_per_task=total,
        results=results,
        wall_time_seconds=wall,
    )


def run_parallel(
    tasks: Sequence[KernelTask],
    total_threads: int | None = None,
    backend: str | None = None,
    processes: int | None = None,
) -> ExecutionReport:
    """Run all tasks concurrently, splitting ``total_threads`` between them.

    ``processes=N`` additionally shards each task's shots across the shared
    worker processes, stacking process-level parallelism on top of the
    paper's thread-level kernel parallelism.
    """
    if not tasks:
        raise ConfigurationError("run_parallel requires at least one task")
    total = total_threads if total_threads is not None else get_config().omp_num_threads
    if total < 1:
        raise ConfigurationError(f"total_threads must be at least 1, got {total}")
    per_task = max(1, total // len(tasks))
    started = time.perf_counter()
    futures = [qcor_async(_run_task, task, per_task, backend, processes) for task in tasks]
    results = [future.result() for future in futures]
    wall = time.perf_counter() - started
    return ExecutionReport(
        variant="parallel",
        total_threads=total,
        threads_per_task=per_task,
        results=results,
        wall_time_seconds=wall,
    )
