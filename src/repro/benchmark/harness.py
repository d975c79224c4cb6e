"""Benchmark harness: run a workload under the paper's two variants.

The harness supports both execution modes:

* ``modeled`` — kernel costs come from the
  :class:`~repro.simulator.cost_model.SimulationCostModel`, thread behaviour
  from the :class:`~repro.parallel.scheduler.TaskScheduler` configured with
  the paper's machine; results are deterministic "simulated seconds".
* ``real`` — kernels are actually executed through
  :func:`repro.core.executor.run_one_by_one` / ``run_parallel`` on the host;
  results are wall-clock seconds.

Either way the harness returns :class:`VariantResult` objects from which the
figures' speed-up ratios are computed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import get_config
from ..core.executor import run_one_by_one as real_one_by_one
from ..core.executor import run_parallel as real_parallel
from ..exceptions import ConfigurationError
from ..parallel.contention import ContentionModel
from ..parallel.scheduler import SimTask, TaskScheduler
from ..simulator.cost_model import SimulationCostModel
from .workloads import Workload

__all__ = ["VariantResult", "BenchmarkHarness"]


@dataclass
class VariantResult:
    """Timing outcome for one (variant, thread configuration) point."""

    label: str
    variant: str
    total_threads: int
    threads_per_task: int
    #: Simulated or wall-clock duration, depending on the execution mode.
    duration: float
    mode: str
    details: dict = field(default_factory=dict)

    def speedup_over(self, baseline: "VariantResult") -> float:
        if self.duration <= 0:
            raise ConfigurationError("cannot compute a speed-up for a zero duration")
        return baseline.duration / self.duration


@dataclass
class BenchmarkHarness:
    """Runs workloads under the one-by-one and parallel variants."""

    mode: str | None = None
    cost_model: SimulationCostModel = field(default_factory=SimulationCostModel)
    contention: ContentionModel = field(default_factory=ContentionModel)
    backend: str | None = None

    def _resolve_mode(self) -> str:
        mode = self.mode if self.mode is not None else get_config().execution_mode
        if mode not in ("real", "modeled"):
            raise ConfigurationError(f"unknown execution mode {mode!r}")
        return mode

    # -- modeled path ----------------------------------------------------------------
    def _sim_tasks(self, workload: Workload, threads_per_task: int) -> list[SimTask]:
        tasks = []
        for task in workload.tasks:
            circuit = task.build_circuit()
            shots = task.shots if task.shots is not None else get_config().shots
            cost = self.cost_model.circuit_cost(circuit, shots)
            tasks.append(
                SimTask.from_cost(
                    task.name,
                    parallel_work=cost.parallel_work,
                    serial_work=cost.serial_work,
                    locked_work=cost.locked_work,
                    threads=threads_per_task,
                )
            )
        return tasks

    def _run_modeled(
        self, workload: Workload, variant: str, total_threads: int
    ) -> VariantResult:
        scheduler = TaskScheduler(contention=self.contention)
        if variant == "one-by-one":
            threads_per_task = total_threads
            result = scheduler.run_one_by_one(self._sim_tasks(workload, threads_per_task))
        elif variant == "parallel":
            threads_per_task = max(1, total_threads // max(1, workload.n_tasks))
            result = scheduler.run_parallel(self._sim_tasks(workload, threads_per_task))
        else:
            raise ConfigurationError(f"unknown variant {variant!r}")
        label = self._label(variant, total_threads, threads_per_task, workload.n_tasks)
        return VariantResult(
            label=label,
            variant=variant,
            total_threads=total_threads,
            threads_per_task=threads_per_task,
            duration=result.makespan,
            mode="modeled",
            details={"completion_times": result.completion_times},
        )

    # -- real path ------------------------------------------------------------------------
    def _run_real(self, workload: Workload, variant: str, total_threads: int) -> VariantResult:
        if variant == "one-by-one":
            report = real_one_by_one(workload.tasks, total_threads, backend=self.backend)
        elif variant == "parallel":
            report = real_parallel(workload.tasks, total_threads, backend=self.backend)
        else:
            raise ConfigurationError(f"unknown variant {variant!r}")
        label = self._label(variant, total_threads, report.threads_per_task, workload.n_tasks)
        return VariantResult(
            label=label,
            variant=variant,
            total_threads=total_threads,
            threads_per_task=report.threads_per_task,
            duration=report.wall_time_seconds,
            mode="real",
            details={"per_task_seconds": {r.name: r.duration_seconds for r in report.results}},
        )

    # -- public API --------------------------------------------------------------------------
    def run_variant(self, workload: Workload, variant: str, total_threads: int) -> VariantResult:
        """Run one (variant, total-thread-count) configuration."""
        if total_threads < 1:
            raise ConfigurationError(f"total_threads must be at least 1, got {total_threads}")
        mode = self._resolve_mode()
        if mode == "modeled":
            return self._run_modeled(workload, variant, total_threads)
        return self._run_real(workload, variant, total_threads)

    def compare(
        self, workload: Workload, total_threads: int
    ) -> tuple[VariantResult, VariantResult]:
        """Run both variants at the same total thread count."""
        return (
            self.run_variant(workload, "one-by-one", total_threads),
            self.run_variant(workload, "parallel", total_threads),
        )

    @staticmethod
    def _label(variant: str, total: int, per_task: int, n_tasks: int) -> str:
        if variant == "one-by-one":
            return f"one-by-one {total} threads"
        return f"parallel {n_tasks} x ({per_task} threads/task)"
