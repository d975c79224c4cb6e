"""User-facing runtime API (the QCOR surface).

The functions here are what a user program touches directly:

* :func:`initialize` / :func:`finalize` — the per-thread
  ``quantum::initialize()`` the paper requires before a thread can execute
  kernels; it resolves an accelerator from the service registry and
  registers it for the calling thread with the :class:`QPUManager`.
* :func:`qalloc` — re-export of the (thread-safe) register allocation.
* :func:`execute_circuit` — the execution path used by ``@qpu`` kernels:
  resolve the calling thread's QPU and run the circuit into the register's
  buffer.
* :func:`observe_expectation` — measure a Pauli observable against an
  ansatz (the primitive underlying :class:`ObjectiveFunction`).

Behaviour differences between thread-safe and legacy modes are confined to
how the QPU instance is resolved: thread-safe mode goes through the
QPUManager (per-thread clones); legacy mode uses a single shared module
global, faithfully reproducing Listing 7 and its data race.
"""

from __future__ import annotations

import threading
from typing import Mapping, Sequence

from ..config import get_config, set_config
from ..exceptions import ExecutionError, NotInitializedError
from ..ir.composite import CompositeInstruction
from ..operators.pauli import PauliOperator, PauliTerm
from ..runtime.accelerator import Accelerator
from ..runtime.allocation import qalloc as _runtime_qalloc
from ..runtime.buffer import AcceleratorBuffer
from ..runtime.qreg import qreg
from ..runtime.service_registry import get_accelerator
from .qpu_manager import QPUManager
from .race_detector import get_race_detector

__all__ = [
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
]

#: Legacy-mode shared accelerator (the global ``qpu`` of Listing 7).
_shared_qpu: Accelerator | None = None


# ---------------------------------------------------------------------------
# Initialisation
# ---------------------------------------------------------------------------


def initialize(
    accelerator: str | Accelerator | None = None,
    shots: int | None = None,
    options: Mapping[str, object] | None = None,
) -> Accelerator:
    """Register a QPU for the calling thread (``quantum::initialize()``).

    In thread-safe mode the resolved accelerator (a fresh clone for cloneable
    backends) is stored in the QPUManager under the calling thread's id.  In
    legacy mode the single shared global is (re)assigned, without
    synchronisation, matching the original implementation.

    Returns the accelerator instance that the thread will use.
    """
    global _shared_qpu
    if shots is not None:
        set_shots(shots)
    if isinstance(accelerator, Accelerator):
        qpu = accelerator
        if options:
            qpu.update_configuration(options)
        if not qpu.is_initialized:
            qpu.initialize({})
    else:
        qpu = get_accelerator(accelerator, options)
    if get_config().thread_safe:
        QPUManager.get_instance().set_qpu(qpu)
    else:
        with get_race_detector().access("global_qpu", safe=False):
            _shared_qpu = qpu
    return qpu


def finalize() -> None:
    """Drop the calling thread's QPU registration."""
    global _shared_qpu
    if get_config().thread_safe:
        QPUManager.get_instance().remove_qpu()
    else:
        _shared_qpu = None


def is_initialized() -> bool:
    """True when the calling thread can execute kernels without auto-init."""
    if get_config().thread_safe:
        return QPUManager.get_instance().has_qpu()
    return _shared_qpu is not None


def set_qpu(qpu: Accelerator) -> None:
    """Explicitly register an accelerator instance for the calling thread."""
    initialize(qpu)


def get_qpu() -> Accelerator:
    """Resolve the accelerator the calling thread should use.

    Thread-safe mode: the thread's QPUManager entry; if the thread never
    called :func:`initialize` and ``strict_initialization`` is disabled, an
    accelerator is resolved and registered on the fly (the convenience the
    paper suggests a compiler pass could provide).  Legacy mode: the shared
    global, initialising it lazily.
    """
    global _shared_qpu
    config = get_config()
    if config.thread_safe:
        manager = QPUManager.get_instance()
        if manager.has_qpu():
            return manager.get_qpu()
        if config.strict_initialization:
            raise NotInitializedError(
                f"thread {threading.get_ident()} must call repro.initialize() before "
                "executing kernels (strict_initialization is enabled)"
            )
        return initialize()
    with get_race_detector().access("global_qpu", safe=False):
        if _shared_qpu is None:
            _shared_qpu = get_accelerator()
        return _shared_qpu


# ---------------------------------------------------------------------------
# Allocation and global knobs
# ---------------------------------------------------------------------------


def qalloc(n_qubits: int) -> qreg:
    """Allocate a qubit register (thread-safe; see Listing 6 of the paper)."""
    return _runtime_qalloc(n_qubits)


def set_shots(shots: int) -> None:
    """Set the default number of measurement shots."""
    set_config(shots=shots)


def get_shots() -> int:
    """Current default number of measurement shots."""
    return get_config().shots


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def execute_circuit(
    circuit: CompositeInstruction,
    register: qreg | AcceleratorBuffer,
    shots: int | None = None,
    accelerator: Accelerator | None = None,
) -> dict[str, int]:
    """Execute ``circuit`` on the calling thread's QPU into ``register``.

    Returns the measurement histogram of this execution (the buffer
    accumulates across executions).
    """
    buffer = register.buffer if isinstance(register, qreg) else register
    qpu = accelerator if accelerator is not None else get_qpu()
    before = buffer.get_measurement_counts()
    qpu.execute(buffer, circuit, shots=shots)
    after = buffer.get_measurement_counts()
    delta: dict[str, int] = {}
    for key, value in after.items():
        diff = value - before.get(key, 0)
        if diff > 0:
            delta[key] = diff
    return delta


def observe_expectation(
    ansatz: CompositeInstruction,
    observable: PauliOperator | PauliTerm,
    register_size: int | None = None,
    shots: int | None = None,
    parameters: Sequence[float] | Mapping[str, float] | None = None,
    exact: bool = False,
) -> float:
    """Estimate ``<ansatz|observable|ansatz>`` on the calling thread's QPU.

    With ``exact=True`` the expectation is computed from the state vector
    (no sampling noise) — useful for optimiser tests; otherwise each
    non-identity Pauli term is measured with ``shots`` shots in its rotated
    basis and the histogram parities are combined.
    """
    from ..operators.expectation import estimate_expectation, measurement_circuits
    from ..simulator.statevector import StateVector

    if isinstance(observable, PauliTerm):
        observable = PauliOperator([observable])
    circuit = ansatz
    symbolic = circuit.is_parameterized
    if symbolic and parameters is None:
        raise ExecutionError("ansatz has unbound parameters; provide values")
    n_qubits = register_size or max(circuit.n_qubits, observable.n_qubits, 1)

    if exact:
        # Compiled-plan fast path: for a symbolic ansatz the plan is cached
        # against the *unbound* circuit and only its rotation matrices are
        # re-bound per call — the VQE/QAOA optimiser hot loop.
        body = circuit if circuit.n_measurements == 0 else circuit.without_measurements()
        state = StateVector(n_qubits)
        state.run(body, parameter_values=parameters if symbolic else None)
        return state.expectation(observable)

    if symbolic:
        circuit = circuit.bind(parameters)

    qpu = get_qpu()
    counts_per_term: dict[str, dict[str, int]] = {}
    for term, measured in measurement_circuits(
        circuit.without_measurements(), observable, n_qubits
    ):
        scratch = AcceleratorBuffer(n_qubits)
        qpu.execute(scratch, measured, shots=shots)
        counts_per_term[term.pauli_string] = scratch.get_measurement_counts()
    return estimate_expectation(observable, counts_per_term)
