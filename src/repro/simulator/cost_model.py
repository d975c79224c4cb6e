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

import math
import threading
from dataclasses import dataclass, field
from typing import Mapping

from ..ir.composite import CompositeInstruction
from .execution_plan import DEFAULT_CHUNK_THRESHOLD

__all__ = [
    "CircuitCost",
    "SimulationCostModel",
    "DEFAULT_KERNEL_COST_FACTORS",
    "DEFAULT_KERNEL_PARALLEL_EFFICIENCY",
    "DEFAULT_KERNEL_PROCESS_EFFICIENCY",
    "DEFAULT_SECONDS_PER_CLIFFORD_GATE",
    "EXECUTION_LANES",
    "SIMULATION_METHODS",
    "calibration_refinement_count",
]

#: Process-wide count of online lane-timing refinements folded into any
#: cost model via :meth:`SimulationCostModel.observe_lane`.  The broker
#: surfaces it in ``service.metrics()`` as ``calibration_refinements`` so
#: operators can see whether lane selection is still trusting the one-shot
#: calibration profile or has started learning from served jobs.
_refinement_lock = threading.Lock()
_refinement_count = 0


def calibration_refinement_count() -> int:
    """Total ``observe_lane`` refinements applied in this process."""
    with _refinement_lock:
        return _refinement_count


def _reset_refinement_count() -> None:
    """Testing hook: zero the process-wide refinement counter."""
    global _refinement_count
    with _refinement_lock:
        _refinement_count = 0

#: The execution lanes adaptive selection ranks.  ``serial`` is in-process
#: single-threaded replay; ``threads`` is chunk-parallel replay on the
#: engine's thread pool; ``shm`` is the shared-memory process lane;
#: ``sharded`` is the process-sharded executor (wins only for trajectory
#: fan-out, where shots split across workers).
EXECUTION_LANES = ("serial", "threads", "shm", "sharded")

#: Simulation *methods* :meth:`SimulationCostModel.choose_backend` ranks.
#: ``statevector`` is the dense amplitude simulator (every lane above is a
#: way of replaying it); ``stabilizer`` is the CHP-style tableau, polynomial
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

#: Fraction of each kernel class's amplitude sweep that chunk-parallel plan
#: replay actually overlaps across worker threads (states at or above the
#: chunk threshold).  Elementwise kernels chunk almost perfectly; gathers
#: and dense blocks pay barrier/scatter phases; resets stay serial (global
#: probability reduction + one RNG draw) and so do contiguous-window blocks
#: (the GEMM pass runs as the identical serial call on every lane).
DEFAULT_KERNEL_PARALLEL_EFFICIENCY: dict[str, float] = {
    "single": 0.92,
    "controlled": 0.88,
    "diagonal": 0.85,
    "permutation": 0.8,
    "gather": 0.75,
    "dense": 0.7,
    "reset": 0.0,
    "block": 0.0,
}

#: Fraction of each kernel class's sweep that *shared-memory process*
#: replay overlaps across worker processes.  Slightly below the thread
#: efficiencies: the sweeps themselves are identical, but every worker
#: touches the shared mapping cold (no cache reuse between steps that
#: threads get for free) and dense blocks leave their matmul on one
#: worker.  The per-step barrier/IPC cost is modelled separately
#: (:attr:`SimulationCostModel.shm_step_barrier_cost`) because it is a
#: fixed synchronisation price, not a fraction of the sweep.
DEFAULT_KERNEL_PROCESS_EFFICIENCY: dict[str, float] = {
    "single": 0.9,
    "controlled": 0.85,
    "diagonal": 0.82,
    "permutation": 0.76,
    "gather": 0.7,
    "dense": 0.6,
    "reset": 0.0,
    "block": 0.0,
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
    #: Minimum state size (amplitudes) before chunk-parallel replay engages:
    #: the measured crossover the plans themselves default to.
    chunk_threshold: int = DEFAULT_CHUNK_THRESHOLD
    #: Per-kernel-class fraction of the sweep that chunking parallelises
    #: (see :data:`DEFAULT_KERNEL_PARALLEL_EFFICIENCY`).
    kernel_parallel_efficiency: Mapping[str, float] = field(
        default_factory=lambda: dict(DEFAULT_KERNEL_PARALLEL_EFFICIENCY)
    )
    #: Per-kernel-class fraction the shared-memory *process* lane overlaps
    #: (see :data:`DEFAULT_KERNEL_PROCESS_EFFICIENCY`).
    kernel_process_efficiency: Mapping[str, float] = field(
        default_factory=lambda: dict(DEFAULT_KERNEL_PROCESS_EFFICIENCY)
    )
    #: Serial cost of one inter-process step barrier (semaphore round +
    #: worker wake-up) in shared-memory replay.  Dense steps pay three
    #: (gather / matmul / scatter each barrier); every other chunked step
    #: pays one.  This is the term that makes shallow plans on small
    #: states *lose* from process parallelism in the model, exactly as
    #: they do on hardware.
    shm_step_barrier_cost: float = 60.0
    #: Fixed serial cost of handing a job to a sharded worker process
    #: (pickle + queue round-trip).  Only the sharded lane pays it, which
    #: is what keeps single-state jobs off that lane in adaptive selection
    #: unless trajectory fan-out amortises it.
    sharded_dispatch_cost: float = 500.0
    #: Online refinement state: EWMA of measured seconds per predicted work
    #: unit, per lane, fed by :meth:`observe_lane` from served jobs.  Empty
    #: until the first observation, in which case lane ranking trusts the
    #: (calibrated) static constants exactly as before.  Not persisted —
    #: this is the in-service correction on top of the one-shot profile.
    lane_seconds_per_unit: dict[str, float] = field(default_factory=dict)
    #: EWMA smoothing factor for :meth:`observe_lane` (weight of the newest
    #: observation).  0.25 converges in a handful of jobs while riding out
    #: one noisy measurement.
    refinement_alpha: float = 0.25
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
        its hand-set default, and the per-kernel tables are merged over the
        defaults so a partial calibration (e.g. the shm lane unavailable on
        a 1-core host) still yields a complete model.  Accepts anything with
        the profile's attribute shape, so tests can pass a stub.
        """
        kwargs: dict = {}
        for name in (
            "amplitude_update_cost",
            "plan_step_dispatch_cost",
            "shm_step_barrier_cost",
            "sharded_dispatch_cost",
            "chunk_threshold",
        ):
            value = getattr(profile, name, None)
            if value is not None:
                kwargs[name] = type(cls.__dataclass_fields__[name].default)(value)
        # ``None``-default fields cannot use the type-of-default coercion above.
        clifford_seconds = getattr(profile, "seconds_per_clifford_gate", None)
        if clifford_seconds is not None:
            kwargs["seconds_per_clifford_gate"] = float(clifford_seconds)
        for name, defaults in (
            ("kernel_cost_factors", DEFAULT_KERNEL_COST_FACTORS),
            ("kernel_parallel_efficiency", DEFAULT_KERNEL_PARALLEL_EFFICIENCY),
            ("kernel_process_efficiency", DEFAULT_KERNEL_PROCESS_EFFICIENCY),
        ):
            table = getattr(profile, name, None)
            if table:
                merged = dict(defaults)
                merged.update({str(k): float(v) for k, v in dict(table).items()})
                kwargs[name] = merged
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
        # Probability-vector pass + multinomial sampling.
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

    def plan_cost(
        self, plan, shots: int, *, chunked: bool = False, processes: int = 0
    ) -> CircuitCost:
        """Estimate the cost of replaying a compiled :class:`ExecutionPlan`.

        The ``modeled`` execution mode uses this to predict *plan-executed*
        latency: kernel classes are costed individually (a QFT's diagonal
        ladder is far cheaper than the dense-gate sweep
        :meth:`circuit_cost` assumes), fusion shows up as fewer steps, and
        the per-step dispatch overhead reflects plan replay rather than the
        per-gate IR walk.  Accepts parametric plans (the kernel sequence is
        the template's; rebinding cost is a handful of 2x2 rebuilds and is
        folded into the step dispatch constant).

        ``chunked=True`` models *chunk-parallel* replay instead of the
        OpenMP-style sweep model: below :attr:`chunk_threshold` the replay
        is single-threaded (all sweep work is serial — exactly what the
        real engine does), and above it each kernel class parallelises only
        its :attr:`kernel_parallel_efficiency` fraction.

        ``processes=N`` (N > 1) models the shared-memory *process* lane
        instead: above the threshold each kernel class overlaps its
        :attr:`kernel_process_efficiency` fraction across the worker
        processes and every chunked step additionally pays
        :attr:`shm_step_barrier_cost` per barrier (three for dense steps:
        gather / matmul / scatter), the IPC price the thread lane does not
        have; below the threshold the lane never engages, so the sweep is
        serial with no barrier cost — matching
        :class:`~repro.exec.shm.SharedStatePool` exactly.
        """
        steps = getattr(plan, "steps", None)
        if steps is None:  # ParametricExecutionPlan delegates to its template
            steps = plan.template_steps
        n = max(int(plan.n_qubits), 1)
        process_mode = processes > 1
        chunking_engages = (chunked or process_mode) and (
            1 << n
        ) >= self.chunk_threshold
        parallel = 0.0
        serial = 0.0
        locked = self.launch_overhead
        for step in steps:
            work = self.kernel_cost(n, step.kernel, len(step.targets))
            if process_mode:
                if chunking_engages:
                    parallel_fraction = float(
                        self.kernel_process_efficiency.get(step.kernel, 0.6)
                    )
                    barriers = 3 if step.kernel == "dense" else 1
                    serial += self.shm_step_barrier_cost * barriers
                else:
                    parallel_fraction = 0.0
            elif not chunked:
                parallel_fraction = 1.0 - self.gate_serial_fraction
            elif chunking_engages:
                parallel_fraction = float(
                    self.kernel_parallel_efficiency.get(step.kernel, 0.7)
                )
            else:
                parallel_fraction = 0.0
            parallel += work * parallel_fraction
            serial += work * (1.0 - parallel_fraction)
            serial += self.plan_step_dispatch_cost
        # Probability-vector pass + multinomial sampling (identical to the
        # gate-by-gate path: sampling does not change with plans).
        parallel += float(1 << n) * self.amplitude_update_cost
        parallel += shots * self.shot_parallel_cost
        serial += shots * self.shot_cost
        locked += shots * self.shot_locked_cost
        return CircuitCost(parallel_work=parallel, serial_work=serial, locked_work=locked)

    # -- online refinement -------------------------------------------------------------
    def observe_lane(
        self, lane: str, predicted_units: float, measured_seconds: float
    ) -> None:
        """Fold one served-job measurement into the per-lane EWMA.

        ``predicted_units`` is this model's wall-clock estimate for the
        replay that was routed to ``lane`` (from :meth:`lane_costs`);
        ``measured_seconds`` is what the replay actually took.  The ratio
        seconds-per-unit is smoothed per lane and applied as a multiplicative
        correction in :meth:`lane_costs`, so lane selection improves in
        service instead of trusting one-shot micro-benchmarks forever.
        Non-positive or non-finite inputs are ignored (a cancelled or
        clock-skewed job must not poison the estimate).
        """
        global _refinement_count
        if lane not in EXECUTION_LANES:
            return
        if not (
            math.isfinite(predicted_units)
            and math.isfinite(measured_seconds)
            and predicted_units > 0.0
            and measured_seconds > 0.0
        ):
            return
        ratio = measured_seconds / predicted_units
        with _refinement_lock:
            previous = self.lane_seconds_per_unit.get(lane)
            if previous is None:
                self.lane_seconds_per_unit[lane] = ratio
            else:
                alpha = self.refinement_alpha
                self.lane_seconds_per_unit[lane] = previous + alpha * (ratio - previous)
            _refinement_count += 1

    def _lane_scale(self, lane: str) -> float:
        """Multiplicative EWMA correction for ``lane``.

        Lanes without observations borrow the mean of the observed lanes so
        that a uniformly-miscalibrated host (every lane 2x slower than the
        profile predicts) does not bias selection toward whichever lane
        happens to be unobserved; with no observations at all the scale is
        1.0 and ranking reduces to the static model.
        """
        table = self.lane_seconds_per_unit
        if not table:
            return 1.0
        observed = table.get(lane)
        if observed is not None:
            return observed
        return sum(table.values()) / len(table)

    # -- adaptive lane selection -----------------------------------------------------
    def predicted_units(self, cost: CircuitCost, workers: int) -> float:
        """Wall-clock estimate (abstract units) of ``cost`` on ``workers``:
        serial and locked work never overlap, parallel work divides."""
        workers = max(1, int(workers))
        return cost.serial_work + cost.locked_work + cost.parallel_work / workers

    def lane_costs(
        self,
        plan,
        shots: int,
        *,
        threads: int = 1,
        shm_workers: int = 0,
        shards: int = 0,
    ) -> dict[str, float]:
        """Predicted wall-clock units of replaying ``plan`` on each available lane.

        ``serial`` is always present; ``threads``/``shm``/``sharded`` appear
        only when the corresponding worker count makes the lane viable
        (> 1).  The sharded lane only divides work for trajectory plans
        (shots fan out across processes); a single-state replay runs whole
        on one shard and just pays the dispatch overhead on top of serial.
        """
        costs: dict[str, float] = {}
        chunked = self.plan_cost(plan, shots, chunked=True)
        costs["serial"] = chunked.total_work
        if threads > 1:
            costs["threads"] = self.predicted_units(chunked, threads)
        if shm_workers > 1:
            shm = self.plan_cost(plan, shots, processes=shm_workers)
            costs["shm"] = self.predicted_units(shm, shm_workers)
        if shards > 1:
            if getattr(plan, "has_reset", False):
                costs["sharded"] = (
                    self.predicted_units(chunked, shards) + self.sharded_dispatch_cost
                )
            else:
                costs["sharded"] = chunked.total_work + self.sharded_dispatch_cost
        # Apply the online per-lane EWMA correction (1.0 until observe_lane
        # has been fed at least once, so cold models rank exactly as the
        # static constants dictate).
        if self.lane_seconds_per_unit:
            for lane in costs:
                costs[lane] *= self._lane_scale(lane)
        return costs

    def choose_lane(
        self,
        plan,
        shots: int,
        *,
        threads: int = 1,
        shm_workers: int = 0,
        shards: int = 0,
    ) -> str:
        """The predicted-cheapest lane name for ``plan`` (ties prefer the
        earlier entry in :data:`EXECUTION_LANES`, i.e. the simpler lane)."""
        lane, _ = self.choose_lane_with_costs(
            plan, shots, threads=threads, shm_workers=shm_workers, shards=shards
        )
        return lane

    def choose_lane_with_costs(
        self,
        plan,
        shots: int,
        *,
        threads: int = 1,
        shm_workers: int = 0,
        shards: int = 0,
    ) -> tuple[str, dict[str, float]]:
        """Like :meth:`choose_lane`, also returning the full cost table.

        Callers that time the replay they route (``LocalBackend`` with
        ``adaptive=True``) need the chosen lane's predicted units to feed
        :meth:`observe_lane` afterwards without re-costing the plan.
        """
        costs = self.lane_costs(
            plan, shots, threads=threads, shm_workers=shm_workers, shards=shards
        )
        lane = min(costs, key=lambda lane: (costs[lane], EXECUTION_LANES.index(lane)))
        return lane, costs

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
