"""repro — a Python reproduction of "Enabling Multi-threading in
Heterogeneous Quantum-Classical Programming Models" (Hayashi et al., 2023).

The package implements a QCOR-like single-source quantum-classical
programming model on top of a from-scratch state-vector simulator, and —
the paper's contribution — makes its user-facing runtime safe to drive from
multiple Python threads: per-thread accelerator instances managed by a
QPUManager, locked allocation and service lookup, and ``std::thread`` /
``std::async``-style launch wrappers.

Quickstart (the paper's Listing 1)::

    import repro
    from repro import qpu
    from repro.compiler.dsl import H, CX, Measure

    @qpu
    def bell(q):
        H(q[0])
        CX(q[0], q[1])
        for i in range(q.size()):
            Measure(q[i])

    q = repro.qalloc(2)
    bell(q)
    q.print()

Multi-threaded execution (the paper's Listing 4)::

    from repro import qcor_thread

    def foo():
        q = repro.qalloc(2)
        bell(q)
        q.print()

    t0 = qcor_thread(foo)
    t1 = qcor_thread(foo)
    t0.join(); t1.join()
"""

from ._version import __version__, VERSION_INFO
from .cancellation import CancelToken, active_cancel_token, cancel_scope
from .config import Configuration, configure, get_config, reset_config, set_config
from .exceptions import (
    ReproError,
    ConfigurationError,
    CompilationError,
    ExecutionError,
    AllocationError,
    ServiceNotFoundError,
    ServiceOverloadedError,
    NotInitializedError,
    ThreadSafetyViolation,
    OptimizationError,
    JobCancelled,
    DeadlineExceeded,
    AdmissionRejected,
    RetryExhausted,
)
from .compiler.kernel import qpu, QuantumKernel
from .core.api import (
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
from .core.threading_api import qcor_thread, qcor_async, TaskGroup
from .exec import (
    ExecutionBackend,
    ExecutionResult,
    LocalBackend,
    RetryPolicy,
    ShardedExecutor,
    get_sharded_executor,
)
from .core.qpu_manager import QPUManager
from .core.objective import createObjectiveFunction, ObjectiveFunction
from .core.optimizer import createOptimizer, Optimizer, OptimizerResult
from .ir import Circuit, CircuitBuilder, CompositeInstruction, Parameter
from .operators import I, X, Y, Z, PauliOperator, PauliTerm
from .runtime import (
    Accelerator,
    AcceleratorBuffer,
    QppAccelerator,
    NoisyAccelerator,
    RemoteAccelerator,
    get_accelerator,
    qreg,
)
from .obs import (
    active_profiler,
    disable_profiler,
    disable_tracing,
    enable_profiler,
    enable_tracing,
    get_tracer,
)
from .service import (
    QuantumJobService,
    JobHandle,
    JobPriority,
    JobResult,
    ResultCache,
    MetricsSnapshot,
    job_key,
    AdmissionController,
    CircuitBreaker,
    estimate_job_bytes,
)

__all__ = [
    "__version__",
    "VERSION_INFO",
    # configuration
    "Configuration",
    "configure",
    "get_config",
    "set_config",
    "reset_config",
    # exceptions
    "ReproError",
    "ConfigurationError",
    "CompilationError",
    "ExecutionError",
    "AllocationError",
    "ServiceNotFoundError",
    "NotInitializedError",
    "ServiceOverloadedError",
    "ThreadSafetyViolation",
    "OptimizationError",
    "JobCancelled",
    "DeadlineExceeded",
    "AdmissionRejected",
    "RetryExhausted",
    # cancellation / deadlines
    "CancelToken",
    "active_cancel_token",
    "cancel_scope",
    # kernels and execution
    "qpu",
    "QuantumKernel",
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
    # threading constructs
    "qcor_thread",
    "qcor_async",
    "TaskGroup",
    "QPUManager",
    # execution backends
    "ExecutionBackend",
    "ExecutionResult",
    "LocalBackend",
    "RetryPolicy",
    "ShardedExecutor",
    "get_sharded_executor",
    # variational support
    "createObjectiveFunction",
    "ObjectiveFunction",
    "createOptimizer",
    "Optimizer",
    "OptimizerResult",
    # IR
    "Circuit",
    "CircuitBuilder",
    "CompositeInstruction",
    "Parameter",
    # operators
    "I",
    "X",
    "Y",
    "Z",
    "PauliOperator",
    "PauliTerm",
    # runtime
    "Accelerator",
    "AcceleratorBuffer",
    "QppAccelerator",
    "NoisyAccelerator",
    "RemoteAccelerator",
    "get_accelerator",
    "qreg",
    # observability
    "enable_tracing",
    "disable_tracing",
    "get_tracer",
    "enable_profiler",
    "disable_profiler",
    "active_profiler",
    # job broker service
    "QuantumJobService",
    "JobHandle",
    "JobPriority",
    "JobResult",
    "ResultCache",
    "MetricsSnapshot",
    "job_key",
    "AdmissionController",
    "CircuitBreaker",
    "estimate_job_bytes",
]
