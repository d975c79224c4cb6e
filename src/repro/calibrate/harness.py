"""Host calibration: micro-benchmark every kernel class on the running host.

The cost model's constants (kernel cost factors, parallel/process
efficiencies, barrier and dispatch overheads, the chunk threshold) shipped
as hand-set guesses.  :func:`run_calibration` measures them:

* **Kernel cost factors** — one dedicated micro-circuit per kernel class
  (single/controlled/diagonal/permutation/gather/dense/block), compiled
  with ``optimize=False`` and — except for ``block``, which *is* the fused
  form of a single-qubit layer — ``fusion_max_qubits=0`` so every class
  survives lowering, replayed serially under the
  :class:`~repro.obs.profiler.ReplayProfiler`; per-amplitude seconds
  normalise to the single-qubit kernel (the model's unit).
* **Thread-pool sweep efficiency** — each class replayed chunk-parallel on
  a full-width :class:`~repro.simulator.parallel_engine.ParallelSimulationEngine`
  vs serially; the Amdahl parallel fraction ``(1 - t_W/t_1)/(1 - 1/W)`` is
  the per-class efficiency.
* **Chunk threshold** — the measured crossover state size where the thread
  pool first beats the serial sweep.
* **Shm barrier cost** — the per-step wall overhead of shared-memory
  process replay on a state small enough that the sweep itself is
  negligible, in model units.

Multi-worker measurements are skipped (keeping the defaults) on 1-core
hosts, where no parallel lane can win and the Amdahl fit is undefined.
"""

from __future__ import annotations

import os
import time

import numpy as np

from ..ir.builder import CircuitBuilder
from ..ir.composite import CompositeInstruction
from ..obs.profiler import ReplayProfiler, profiler_installed
from ..simulator.execution_plan import DEFAULT_FUSION_MAX_QUBITS, compile_plan
from ..simulator.parallel_engine import ParallelSimulationEngine
from .profile import CalibrationProfile, utc_timestamp

__all__ = ["run_calibration", "kernel_microbench_circuit", "KERNEL_KINDS"]

#: Kernel classes the harness measures ("reset" is excluded: it is
#: RNG-serial by construction, so its default factor/efficiency stand).
KERNEL_KINDS = (
    "single",
    "controlled",
    "diagonal",
    "permutation",
    "gather",
    "dense",
    "block",
)

#: 4x4 dense payload for the dense-kernel micro-circuit (H⊗H: unitary,
#: no diagonal/permutation structure the lowerer could specialise away).
_H = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
_DENSE_4X4 = np.kron(_H, _H)


def kernel_microbench_circuit(
    kind: str, n_qubits: int, layers: int = 2
) -> CompositeInstruction:
    """A circuit whose plan (see :func:`_microbench_plan`) is purely ``kind``.

    ``single`` and ``block`` share one circuit — layers of RX on every
    qubit: gate for gate it is the single kernel, fused it is one
    contiguous-window block per four qubits (the layers multiply together).
    """
    builder = CircuitBuilder(n_qubits, name=f"cal-{kind}")
    for layer in range(layers):
        if kind in ("single", "block"):
            for q in range(n_qubits):
                builder.rx(q, 0.31 + 0.07 * ((layer + q) % 5))
        elif kind == "controlled":
            for q in range(n_qubits - 1):
                builder.ch(q, q + 1)
        elif kind == "diagonal":
            for q in range(n_qubits):
                builder.rz(q, 0.41 + 0.05 * ((layer + q) % 7))
        elif kind == "permutation":
            for q in range(n_qubits):
                builder.x(q)
            for q in range(0, n_qubits - 1, 2):
                builder.swap(q, q + 1)
        elif kind == "gather":
            # An 8-cycle on three qubits: a classical permutation with no
            # pairwise-exchange decomposition, forcing the gather kernel.
            cycle = [(x + 1) % 8 for x in range(8)]
            for q in range(0, n_qubits - 2, 3):
                builder.permutation(cycle, (q, q + 1, q + 2))
        elif kind == "dense":
            for q in range(0, n_qubits - 1, 2):
                builder.unitary(_DENSE_4X4, (q, q + 1), name="HH")
        else:
            raise ValueError(f"unknown kernel kind {kind!r}")
    return builder.build()


def _microbench_plan(kind: str, n_qubits: int, layers: int, chunk_threshold=None):
    """``kind``'s micro-circuit lowered gate for gate (``block``: fused)."""
    return compile_plan(
        kernel_microbench_circuit(kind, n_qubits, layers),
        n_qubits,
        optimize=False,
        fusion_max_qubits=DEFAULT_FUSION_MAX_QUBITS if kind == "block" else 0,
        batch_diagonals=False,
        chunk_threshold=chunk_threshold,
    )


def _best_seconds(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


class _Replayer:
    """Callable replaying a plan in place, recycling the evolved state."""

    def __init__(self, plan, pool=None):
        self.plan = plan
        self.pool = pool
        self.data = plan.new_state()

    def __call__(self) -> None:
        self.data = self.plan.execute(self.data, pool=self.pool)


def _amdahl_efficiency(t_serial: float, t_parallel: float, workers: int) -> float:
    """Parallel fraction implied by a serial/parallel wall-time pair."""
    if t_serial <= 0.0 or workers <= 1:
        return 0.0
    fraction = (1.0 - t_parallel / t_serial) / (1.0 - 1.0 / workers)
    return float(min(0.98, max(0.0, fraction)))


def run_calibration(
    *,
    quick: bool = False,
    include_threads: bool = True,
    include_shm: bool = True,
    profile_path=None,
) -> CalibrationProfile:
    """Measure this host's cost-model constants and return the profile.

    ``quick`` shrinks state sizes and repeat counts (CI bench-smoke);
    ``include_threads``/``include_shm`` gate the multi-worker stages (the
    shm stage spins worker processes up through the shared registry and
    leaves any pre-existing pool running).  When ``profile_path`` is set
    the profile is also persisted there.
    """
    cores = os.cpu_count() or 1
    n_serial = 10 if quick else 13
    layers = 2 if quick else 3
    repeats = 2 if quick else 3
    dim = 1 << n_serial
    measurements: dict = {"quick": bool(quick), "n_serial": n_serial}

    # -- 1. serial per-kernel cost factors ---------------------------------
    plans = {kind: _microbench_plan(kind, n_serial, layers) for kind in KERNEL_KINDS}
    profiler = ReplayProfiler()
    with profiler_installed(profiler):
        for plan in plans.values():
            replay = _Replayer(plan)
            for _ in range(repeats):
                replay()
    snapshot = profiler.snapshot()
    per_amp = {
        name: timing.mean_seconds / dim
        for name, timing in snapshot.kernels.items()
        if timing.calls
    }
    measurements["serial_per_amplitude_seconds"] = per_amp

    unit = per_amp.get("single", 0.0)
    factors: dict[str, float] = {}
    if unit > 0.0:
        for kind in KERNEL_KINDS:
            measured = per_amp.get(kind)
            if measured is None:
                continue
            factor = measured / unit
            if kind == "dense":
                # The micro-circuit's dense blocks span two targets and
                # kernel_cost() re-applies multi_qubit_factor per extra
                # target, so the persisted base factor divides it out.
                factor /= 2.0
            factors[kind] = round(float(factor), 4)
        factors["single"] = 1.0

    # -- 2. per-step dispatch overhead -------------------------------------
    dispatch_units: float | None = None
    if unit > 0.0:
        tiny_builder = CircuitBuilder(2, name="cal-dispatch")
        for i in range(256):
            tiny_builder.rz(i % 2, 0.2 + 0.001 * i)
        tiny_plan = compile_plan(
            tiny_builder.build(),
            2,
            optimize=False,
            fusion_max_qubits=0,
            batch_diagonals=False,
        )
        replay = _Replayer(tiny_plan)
        per_step = _best_seconds(replay, repeats + 1) / max(1, len(tiny_plan.steps))
        # Subtract the (tiny) 4-amplitude diagonal sweep; the remainder is
        # pure step dispatch.
        sweep_units = 4.0 * factors.get("diagonal", 0.25)
        dispatch_units = round(max(1.0, per_step / unit - sweep_units), 2)
        measurements["dispatch_seconds_per_step"] = per_step

    # -- 3. thread-pool efficiencies + chunk-threshold crossover -----------
    thread_efficiency: dict[str, float] = {}
    chunk_threshold: int | None = None
    if include_threads and cores > 1 and unit > 0.0:
        engine = ParallelSimulationEngine(num_threads=cores)
        try:
            n_big = 12 if quick else 16
            forced_threshold = 1 << 8
            for kind in KERNEL_KINDS:
                plan = _microbench_plan(kind, n_big, 2, forced_threshold)
                t_serial = _best_seconds(_Replayer(plan), repeats)
                t_pool = _best_seconds(_Replayer(plan, pool=engine), repeats)
                thread_efficiency[kind] = round(
                    _amdahl_efficiency(t_serial, t_pool, cores), 4
                )
            measurements["thread_workers"] = cores

            crossover_exps = (12, 14) if quick else (12, 13, 14, 15, 16, 17)
            crossover: dict[str, dict[str, float]] = {}
            for exp in crossover_exps:
                plan = _microbench_plan("single", exp, 2, forced_threshold)
                t_serial = _best_seconds(_Replayer(plan), repeats)
                t_pool = _best_seconds(_Replayer(plan, pool=engine), repeats)
                crossover[str(1 << exp)] = {"serial": t_serial, "threads": t_pool}
                if chunk_threshold is None and t_pool < t_serial * 0.97:
                    chunk_threshold = 1 << exp
            measurements["chunk_crossover_seconds"] = crossover
        finally:
            engine.close()

    # -- 4. shm per-step barrier cost --------------------------------------
    shm_barrier_units: float | None = None
    shm_workers = min(cores, 4) if cores > 1 else 0
    if include_shm and shm_workers >= 2 and unit > 0.0:
        try:
            from ..exec.shm import get_shared_state_pool

            pool = get_shared_state_pool(shm_workers)
            n_shm = 10
            plan = _microbench_plan("diagonal", n_shm, 8, 1 << 8)
            if pool.can_replay(plan):
                t_serial = _best_seconds(_Replayer(plan), repeats)
                shm_profiler = ReplayProfiler()
                with profiler_installed(shm_profiler):
                    t_shm = _best_seconds(_Replayer(plan, pool=pool), repeats)
                steps = max(1, len(plan.steps))
                # The 2^10 sweep is negligible, so the wall-time excess over
                # serial is barrier/IPC cost; one barrier per step.
                barrier_seconds = max(0.0, t_shm - t_serial) / steps
                shm_barrier_units = round(max(1.0, barrier_seconds / unit), 2)
                shm_snapshot = shm_profiler.snapshot()
                measurements["shm"] = {
                    "workers": shm_workers,
                    "serial_seconds": t_serial,
                    "shm_seconds": t_shm,
                    "barrier_waits": shm_snapshot.barrier_waits,
                    "barrier_wait_seconds": shm_snapshot.barrier_wait_seconds,
                }
        except Exception as exc:  # pragma: no cover - host-dependent lane
            measurements["shm_error"] = repr(exc)

    # -- 5. stabilizer tableau per-gate cost -------------------------------
    # Times a fixed H-layer + CX-chain workload on a wide tableau, one gate
    # per call; the derived constant is seconds per *lone* Clifford gate per
    # qubit of width (a gate XORs a few 2n-bit planes), consumed by
    # SimulationCostModel.stabilizer_seconds for latency predictions.  Gates
    # the classifier batches into one moment share a call and cost less.
    clifford_seconds: float | None = None
    from ..exec.stabilizer import StabilizerTableau

    n_tab = 128 if quick else 256
    tableau = StabilizerTableau(n_tab)

    def _tableau_pass() -> None:
        for q in range(n_tab):
            tableau.h(q)
        for q in range(n_tab - 1):
            tableau.cx(q, q + 1)

    gates_per_pass = 2 * n_tab - 1
    tableau_seconds = _best_seconds(_tableau_pass, repeats + 1)
    if tableau_seconds > 0.0:
        clifford_seconds = tableau_seconds / (gates_per_pass * n_tab)
        measurements["stabilizer"] = {
            "n_qubits": n_tab,
            "gates_per_pass": gates_per_pass,
            "pass_seconds": tableau_seconds,
            "seconds_per_clifford_gate": clifford_seconds,
        }

    profile = CalibrationProfile(
        created=utc_timestamp(),
        seconds_per_unit=unit if unit > 0.0 else None,
        kernel_cost_factors=factors,
        kernel_parallel_efficiency=thread_efficiency,
        plan_step_dispatch_cost=dispatch_units,
        shm_step_barrier_cost=shm_barrier_units,
        chunk_threshold=chunk_threshold,
        recommended_threads=cores if cores > 1 else None,
        recommended_shm_workers=shm_workers if shm_barrier_units is not None else None,
        seconds_per_clifford_gate=clifford_seconds,
        measurements=measurements,
    )
    if profile_path is not None:
        profile.save(profile_path)
    return profile
