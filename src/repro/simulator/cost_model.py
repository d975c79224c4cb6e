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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from ..ir.composite import CompositeInstruction

__all__ = [
    "CircuitCost",
    "SimulationCostModel",
    "DEFAULT_KERNEL_COST_FACTORS",
    "DEFAULT_SECONDS_PER_CLIFFORD_GATE",
    "SIMULATION_METHODS",
]

#: Simulation *methods* :meth:`SimulationCostModel.choose_backend` ranks.
#: ``statevector`` is the dense amplitude simulator (every replay lane is a
#: way of running it); ``stabilizer`` is the CHP-style tableau, polynomial
#: in qubit count but restricted to Clifford circuits.  ``auto`` lets the
#: classifier decide.
SIMULATION_METHODS = ("auto", "statevector", "stabilizer")

#: Fallback per-gate tableau cost when the host has no calibrated
#: ``seconds_per_clifford_gate``: seconds per Clifford gate per qubit of
#: register width, for a gate applied on its own (it XORs a few packed
#: ``2n``-bit planes, so a gate is ``~n/4`` byte-ops per plane touched plus
#: the call).  That is the cost of a dependent chain; gates on disjoint
#: qubits that the classifier batches into one moment share the call, so for
#: layered circuits ``gates * n`` of these is an upper bound.  Only the
#: *ratio* against the dense model matters for routing, and the tableau
#: wins by orders of magnitude for every circuit past ~20 qubits, so a loose
#: constant is fine.
DEFAULT_SECONDS_PER_CLIFFORD_GATE = 2e-6

#: Relative per-amplitude work of each compiled-plan kernel class, with a
#: dense single-qubit update as 1.0.  Diagonal kernels touch each amplitude
#: with one multiply (no gather, half the writes); permutation kernels only
#: move amplitudes; gathers pay one indexed copy; controlled kernels update
#: half the state; dense blocks pay the single-qubit cost scaled by
#: ``multi_qubit_factor`` per extra target (handled in :meth:`plan_cost`);
#: resets are a probability reduction plus a conditional slice swap.  A
#: contiguous-window block is ONE batched-GEMM pass whatever its width — not
#: k singles and not a gather-dense step, and it costs about what ONE
#: in-place single-qubit update does: on the 2-core reference VM a 4-qubit
#: window takes 0.36–0.51 ms at 16 qubits where a single takes 0.3–1.3 ms
#: depending on its target; the calibration harness measures 0.95 (10
#: qubits) to 1.58 (13 qubits) singles per block pass.
DEFAULT_KERNEL_COST_FACTORS: dict[str, float] = {
    "single": 1.0,
    "controlled": 0.6,
    "diagonal": 0.25,
    "permutation": 0.15,
    "gather": 0.35,
    "dense": 1.0,
    "reset": 0.5,
    "block": 1.0,
}


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
    defaults are calibrated (see ``tests/test_benchmark_figures.py``) so that
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
    #: Per-step dispatch overhead when replaying a *compiled plan* (serial).
    #: Much smaller than ``gate_dispatch_cost``: replay skips the IR walk,
    #: target validation and per-gate matrix construction.
    plan_step_dispatch_cost: float = 25.0
    #: Relative per-amplitude work of each plan kernel class (see
    #: :data:`DEFAULT_KERNEL_COST_FACTORS`).
    kernel_cost_factors: Mapping[str, float] = field(
        default_factory=lambda: dict(DEFAULT_KERNEL_COST_FACTORS)
    )
    #: Measured seconds per lone Clifford gate per qubit of tableau width
    #: (``None`` until a calibration run fills it in; see
    #: ``repro.calibrate.harness``).  Only used by :meth:`stabilizer_seconds`
    #: for reporting — routing in :meth:`choose_backend` is *categorical*
    #: (Clifford ⇒ tableau), because the polynomial/exponential gap is not a
    #: constant-factor question.
    seconds_per_clifford_gate: float | None = None

    @classmethod
    def from_profile(cls, profile) -> "SimulationCostModel":
        """Build a model from a measured :class:`~repro.calibrate.CalibrationProfile`.

        Any constant the profile does not carry (``None`` or missing) keeps
        its hand-set default, and the kernel cost factors are merged over
        the defaults so a partial calibration still yields a complete model.
        Accepts anything with the profile's attribute shape, so tests can
        pass a stub.
        """
        kwargs: dict = {}
        for name in ("amplitude_update_cost", "plan_step_dispatch_cost"):
            value = getattr(profile, name, None)
            if value is not None:
                kwargs[name] = float(value)
        clifford_seconds = getattr(profile, "seconds_per_clifford_gate", None)
        if clifford_seconds is not None:
            kwargs["seconds_per_clifford_gate"] = float(clifford_seconds)
        table = getattr(profile, "kernel_cost_factors", None)
        if table:
            merged = dict(DEFAULT_KERNEL_COST_FACTORS)
            merged.update({str(k): float(v) for k, v in dict(table).items()})
            kwargs["kernel_cost_factors"] = merged
        return cls(**kwargs)

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

    # -- compiled-plan costing ------------------------------------------------------
    def kernel_cost(self, n_qubits: int, kernel: str, targets: int = 1) -> float:
        """Per-step amplitude-sweep work of one plan kernel invocation.

        ``kernel`` is a class name from
        :data:`repro.simulator.execution_plan.KERNEL_NAMES`; unknown names
        cost like a dense update (conservative).  Gather-based dense blocks
        additionally scale by ``multi_qubit_factor`` per extra target,
        mirroring :meth:`gate_cost`; a contiguous-window ``block`` is one
        pass at its own factor however many qubits it fuses.
        """
        amplitudes = float(1 << n_qubits)
        factor = float(self.kernel_cost_factors.get(kernel, 1.0))
        if kernel == "dense":
            factor *= self.multi_qubit_factor ** max(0, targets - 1)
        return amplitudes * self.amplitude_update_cost * factor

    def plan_cost(self, plan, shots: int) -> CircuitCost:
        """Estimate the cost of replaying a compiled :class:`ExecutionPlan`.

        The ``modeled`` execution mode uses this to predict *plan-executed*
        latency: kernel classes are costed individually (a QFT's diagonal
        ladder is far cheaper than the dense-gate sweep
        :meth:`circuit_cost` assumes), fusion shows up as fewer steps, and
        the per-step dispatch overhead reflects plan replay rather than the
        per-gate IR walk.  Accepts parametric plans (the kernel sequence is
        the template's; rebinding its windows costs microseconds and is
        folded into the step dispatch constant).
        """
        steps = getattr(plan, "steps", None)
        if steps is None:  # ParametricExecutionPlan delegates to its template
            steps = plan.template_steps
        n = max(int(plan.n_qubits), 1)
        parallel_fraction = 1.0 - self.gate_serial_fraction
        parallel = 0.0
        serial = 0.0
        locked = self.launch_overhead
        for step in steps:
            work = self.kernel_cost(n, step.kernel, len(step.targets))
            parallel += work * parallel_fraction
            serial += work * (1.0 - parallel_fraction)
            serial += self.plan_step_dispatch_cost
        # Probability-vector pass + sampling (identical to the gate-by-gate
        # path: sampling does not change with plans).
        parallel += float(1 << n) * self.amplitude_update_cost
        parallel += shots * self.shot_parallel_cost
        serial += shots * self.shot_cost
        locked += shots * self.shot_locked_cost
        return CircuitCost(parallel_work=parallel, serial_work=serial, locked_work=locked)

    # -- circuit-class (method) routing ------------------------------------------------
    def stabilizer_seconds(self, n_qubits: int, n_gates: int, shots: int = 0) -> float:
        """Predicted wall-clock seconds of a tableau execution.

        A gate applied on its own XORs a few bit-packed ``2n``-row planes:
        ``n_gates * n`` per-gate work units, which is what a chain of
        dependent gates costs and an upper bound once the classifier's
        moments batch gates on disjoint qubits into one update.  Sampling —
        collapsing each measured qubit on the packed rows, then one GF(2)
        product over the draws — is folded into a per-shot constant.
        Uses the calibrated :attr:`seconds_per_clifford_gate` when a profile
        supplied one, :data:`DEFAULT_SECONDS_PER_CLIFFORD_GATE` otherwise.
        """
        per_gate = self.seconds_per_clifford_gate
        if per_gate is None:
            per_gate = DEFAULT_SECONDS_PER_CLIFFORD_GATE
        n = max(1, int(n_qubits))
        gate_seconds = per_gate * max(0, int(n_gates)) * n
        sample_seconds = per_gate * max(0, int(shots))
        return gate_seconds + sample_seconds

    def choose_backend(self, classification, method: str = "auto") -> str:
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
        from ..exceptions import ExecutionError

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
