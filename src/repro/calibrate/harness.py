"""Host calibration: micro-benchmark every kernel class on the running host.

The cost model's constants (kernel cost factors, the per-step dispatch
overhead, the tableau's per-gate cost) shipped as hand-set guesses.
:func:`run_calibration` measures them:

* **Kernel cost factors** — one dedicated micro-circuit per kernel class
  (single/controlled/diagonal/permutation/gather/dense/block), compiled
  with ``optimize=False`` and — except for ``block``, which *is* the fused
  form of a window of gates — ``fusion_max_qubits=0`` so every class
  survives lowering, replayed serially under the
  :class:`~repro.obs.profiler.ReplayProfiler`; per-amplitude seconds
  normalise to the single-qubit kernel (the model's unit).
* **Plan-step dispatch** — the per-step wall overhead of replaying a long
  plan on a 2-qubit state, where the sweep itself is negligible.
* **Tableau gate cost** — seconds per lone Clifford gate per qubit of
  tableau width.

Which lane replays a plan is not measured here: that is the fixed
chunk-threshold rule in :class:`~repro.exec.backend.LocalBackend`, whose
``DEFAULT_CHUNK_THRESHOLD`` cites its own tracked sweep.
"""

from __future__ import annotations

import time

import numpy as np

from ..ir.builder import CircuitBuilder
from ..ir.composite import CompositeInstruction
from ..obs.profiler import ReplayProfiler, profiler_installed
from ..simulator.execution_plan import DEFAULT_FUSION_MAX_QUBITS, compile_plan
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


def _microbench_plan(kind: str, n_qubits: int, layers: int):
    """``kind``'s micro-circuit lowered gate for gate (``block``: fused)."""
    return compile_plan(
        kernel_microbench_circuit(kind, n_qubits, layers),
        n_qubits,
        optimize=False,
        fusion_max_qubits=DEFAULT_FUSION_MAX_QUBITS if kind == "block" else 0,
        batch_diagonals=False,
    )


def _best_seconds(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


class _Replayer:
    """Callable replaying a plan serially in place, recycling the state."""

    def __init__(self, plan):
        self.plan = plan
        self.data = plan.new_state()

    def __call__(self) -> None:
        self.data = self.plan.execute(self.data)


def run_calibration(*, quick: bool = False, profile_path=None) -> CalibrationProfile:
    """Measure this host's cost-model constants and return the profile.

    ``quick`` shrinks state sizes and repeat counts (CI bench-smoke).  When
    ``profile_path`` is set the profile is also persisted there.
    """
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

    # -- 3. stabilizer tableau per-gate cost -------------------------------
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
        plan_step_dispatch_cost=dispatch_units,
        seconds_per_clifford_gate=clifford_seconds,
        measurements=measurements,
    )
    if profile_path is not None:
        profile.save(profile_path)
    return profile
