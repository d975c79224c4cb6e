"""Analytic simulation cost model.

The paper's evaluation runs on hardware we do not have (a Ryzen 9 3900X with
the OpenMP-parallel Quantum++ backend).  To regenerate Figures 3-5 with the
right *shape* on any host, the ``modeled`` execution mode estimates the work
of simulating a kernel and hands it to the discrete-event scheduler in
:mod:`repro.parallel.scheduler`, which combines it with the machine topology
and the parallel-efficiency/contention model.

The cost unit is an abstract "amplitude update": applying a k-qubit gate to
an n-qubit dense state touches ``2**n`` amplitudes and costs roughly
``2**k`` multiply-adds per amplitude, plus a per-gate dispatch overhead.
Sampling ``s`` shots costs ``s * n`` units plus one pass over the state for
the probability vector.  These constants do not need to match Quantum++'s
absolute speed — only the *relative* costs matter for reproducing speed-up
ratios — but they are chosen so that Bell (tiny state, sampling-dominated)
and Shor (larger state, gate-dominated) land in the qualitatively different
regimes the paper reports.

The module also holds :func:`choose_backend`, the categorical router
between the dense simulator and the stabilizer tableau; it reads no cost.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import ExecutionError
from ..ir.composite import CompositeInstruction

__all__ = [
    "CircuitCost",
    "SimulationCostModel",
    "SIMULATION_METHODS",
    "choose_backend",
]

#: Simulation *methods* :func:`choose_backend` routes between.
#: ``statevector`` is the dense amplitude simulator (every replay lane is a
#: way of running it); ``stabilizer`` is the CHP-style tableau, polynomial
#: in qubit count but restricted to Clifford circuits.  ``auto`` lets the
#: classifier decide.
SIMULATION_METHODS = ("auto", "statevector", "stabilizer")


def choose_backend(classification, method: str = "auto") -> str:
    """Route one job to ``"statevector"`` or ``"stabilizer"``.

    ``classification`` is a
    :class:`~repro.ir.transforms.clifford.CliffordClassification`.
    Under ``method="auto"`` Clifford-only circuits go to the tableau —
    polynomial versus exponential is not a break-even computation, so
    the choice is categorical, not a cost comparison.  An explicit
    ``method="stabilizer"`` on a non-Clifford circuit is a typed error
    (the tableau *cannot* run it); explicit ``"statevector"`` always
    wins (the documented opt-out for callers that need the dense
    sampling law).  Unknown methods are rejected so option typos fail
    loudly instead of silently running dense.
    """
    normalized = str(method).strip().lower() if method is not None else "auto"
    if normalized not in SIMULATION_METHODS:
        raise ExecutionError(
            f"unknown simulation method {method!r}; "
            f"expected one of {SIMULATION_METHODS}"
        )
    if normalized == "statevector":
        return "statevector"
    is_clifford = bool(getattr(classification, "is_clifford", False))
    if normalized == "stabilizer":
        if not is_clifford:
            reason = getattr(classification, "reason", "") or "not Clifford"
            raise ExecutionError(
                f"method 'stabilizer' was requested but the circuit is "
                f"not Clifford: {reason}"
            )
        return "stabilizer"
    return "stabilizer" if is_clifford else "statevector"


@dataclass(frozen=True)
class CircuitCost:
    """Work decomposition of one kernel execution.

    ``parallel_work`` scales with the number of simulator threads (the
    OpenMP-parallel portion in Quantum++); ``serial_work`` does not (gate
    dispatch, shot post-processing, buffer bookkeeping); ``locked_work`` is
    serial work performed inside the runtime's global critical sections
    (``qalloc``, service-registry lookups, buffer-map updates — the mutexes
    the paper adds), which additionally serialises *across* concurrently
    running kernels.  Units are abstract work units consumed by
    :class:`repro.parallel.scheduler.TaskScheduler`.
    """

    parallel_work: float
    serial_work: float
    locked_work: float = 0.0

    @property
    def total_work(self) -> float:
        return self.parallel_work + self.serial_work + self.locked_work

    def scaled(self, factor: float) -> "CircuitCost":
        return CircuitCost(
            self.parallel_work * factor,
            self.serial_work * factor,
            self.locked_work * factor,
        )


@dataclass
class SimulationCostModel:
    """Estimates :class:`CircuitCost` for a circuit + shot count.

    Parameters are per-amplitude / per-gate / per-shot constants.  The
    defaults are hand-set (held by ``tests/test_benchmark_suite.py``) so that
    the modeled Figures 3-5 reproduce the paper's qualitative results:
    ~no benefit from 12 -> 24 threads for a single kernel, and parallel
    two-kernel execution beating one-by-one execution.
    """

    #: Cost of updating one amplitude with a single-qubit gate.
    amplitude_update_cost: float = 1.0
    #: Additional per-amplitude factor for each extra qubit a gate touches.
    multi_qubit_factor: float = 2.0
    #: Fixed dispatch overhead per gate (serial; OpenMP fork/join, IR walk).
    gate_dispatch_cost: float = 90.0
    #: Fraction of each gate's amplitude-sweep work that does not
    #: parallelise (reduction, scheduling, cache-line ping-pong); this is
    #: what keeps a single kernel from saturating the machine even with a
    #: full 12-thread team, leaving headroom a second concurrent kernel can
    #: exploit (the core effect behind Figures 3-5).
    gate_serial_fraction: float = 0.04
    #: Serial cost per measurement shot (classical post-processing).
    shot_cost: float = 0.1
    #: Parallelisable cost per shot (sampling draw work).
    shot_parallel_cost: float = 6.0
    #: Per-shot cost spent inside global critical sections (result recording
    #: into the shared buffer map).
    shot_locked_cost: float = 0.08
    #: Fixed cost per kernel launch spent inside global critical sections
    #: (qalloc, service-registry lookup, buffer registration).
    launch_overhead: float = 150.0

    def gate_cost(self, n_qubits: int, gate_qubits: int) -> float:
        """Parallelisable work of one gate application on an ``n_qubits`` state."""
        amplitudes = float(1 << n_qubits)
        width_factor = self.multi_qubit_factor ** max(0, gate_qubits - 1)
        return amplitudes * self.amplitude_update_cost * width_factor

    def circuit_cost(self, circuit: CompositeInstruction, shots: int) -> CircuitCost:
        """Estimate the cost of executing ``circuit`` with ``shots`` shots."""
        n = max(circuit.n_qubits, 1)
        parallel = 0.0
        serial = 0.0
        locked = self.launch_overhead
        for instruction in circuit:
            if not instruction.is_unitary:
                continue
            gate_work = self.gate_cost(n, max(1, len(instruction.qubits)))
            parallel += gate_work * (1.0 - self.gate_serial_fraction)
            serial += gate_work * self.gate_serial_fraction
            serial += self.gate_dispatch_cost
        # Probability-vector pass + sampling (inverse CDF or multinomial).
        parallel += float(1 << n) * self.amplitude_update_cost
        parallel += shots * self.shot_parallel_cost
        serial += shots * self.shot_cost
        locked += shots * self.shot_locked_cost
        return CircuitCost(parallel_work=parallel, serial_work=serial, locked_work=locked)
