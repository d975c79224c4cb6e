"""QCOR-style user-facing layer — the paper's contribution.

This subpackage implements user-level multi-threading for the
quantum-classical programming model:

* :class:`QPUManager` — the singleton mapping each user thread to its own
  accelerator instance (Listing 8 of the paper).
* :func:`initialize` — the per-thread ``quantum::initialize()`` call that
  registers the calling thread's QPU.
* :func:`qcor_thread` / :func:`qcor_async` — wrappers around
  ``std::thread`` / ``std::async`` that perform that initialisation
  automatically (the convenience the paper proposes as future work).
* :class:`RaceDetector` — instrumentation that records unsynchronised
  concurrent accesses when the legacy (non-thread-safe) code paths are
  enabled, used to demonstrate *why* the thread-safety work is needed.
* One-by-one vs parallel kernel executors, shot-level parallelism, and the
  VQE support objects (:func:`createObjectiveFunction`,
  :func:`createOptimizer`).
"""

from .race_detector import RaceDetector, get_race_detector, reset_race_detector
from .qpu_manager import QPUManager
from .thread_safety import synchronized, GlobalLockRegistry
from .api import (
    initialize,
    finalize,
    is_initialized,
    qalloc,
    set_shots,
    get_shots,
    set_qpu,
    get_qpu,
    execute_circuit,
    observe_expectation,
)
from .threading_api import qcor_thread, qcor_async, TaskGroup
from .executor import KernelTask, run_one_by_one, run_parallel, ExecutionReport
from .shot_parallelism import execute_shots_parallel
from .objective import ObjectiveFunction, createObjectiveFunction
from .optimizer import Optimizer, createOptimizer, OptimizerResult
from .jit import AsyncKernelCompiler, CompilationHandle, CompilationResult, compile_and_execute_async

__all__ = [
    "RaceDetector",
    "get_race_detector",
    "reset_race_detector",
    "QPUManager",
    "synchronized",
    "GlobalLockRegistry",
    "initialize",
    "finalize",
    "is_initialized",
    "qalloc",
    "set_shots",
    "get_shots",
    "set_qpu",
    "get_qpu",
    "execute_circuit",
    "observe_expectation",
    "qcor_thread",
    "qcor_async",
    "TaskGroup",
    "KernelTask",
    "run_one_by_one",
    "run_parallel",
    "ExecutionReport",
    "execute_shots_parallel",
    "ObjectiveFunction",
    "createObjectiveFunction",
    "Optimizer",
    "createOptimizer",
    "OptimizerResult",
    "AsyncKernelCompiler",
    "CompilationHandle",
    "CompilationResult",
    "compile_and_execute_async",
    "QuantumJobService",
    "JobPriority",
]

_SERVICE_EXPORTS = {"QuantumJobService", "JobPriority"}


def __getattr__(name: str):
    """Forward broker exports lazily — the service layer is built *on top of*
    this package, so importing it eagerly here would invert the layering."""
    if name in _SERVICE_EXPORTS:
        from .. import service

        return getattr(service, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
