"""The Quantum++-style state-vector backend (``"qpp"``).

This is the backend the paper's evaluation uses.  Since the execution-layer
refactor it is a *thin adapter* over the unified
:class:`~repro.exec.backend.ExecutionBackend` seam:

* by default execution goes through a :class:`~repro.exec.backend.LocalBackend`
  (shared execution-plan cache + this clone's
  :class:`~repro.simulator.parallel_engine.ParallelSimulationEngine`), which
  replays compiled plans — chunk-parallel on the engine's worker threads for
  large states — and samples them: the compile-once/execute-many pipeline.

Every job's shots are one draw on one generator seeded from the global
``seed``, so fixed-seed counts are the same at every ``threads`` setting.
Circuits containing mid-circuit ``RESET`` instructions fall back to
trajectory simulation (one replay per reset-outcome branch) on the same
lane.  ``optimize=False`` skips the IR
pass pipeline.  The gate-by-gate reference is
:meth:`~repro.simulator.statevector.StateVector.apply_circuit` plus the
engine's ``sample_parallel`` / ``run_trajectories``; plans are checked
against it in the test suite rather than selectable here.
"""

from __future__ import annotations

from typing import Mapping

from ..exceptions import AcceleratorError
from ..exec.backend import ExecutionBackend, LocalBackend
from ..ir.composite import CompositeInstruction
from ..simulator.parallel_engine import ParallelSimulationEngine
from .accelerator import Accelerator, Cloneable
from .buffer import AcceleratorBuffer

__all__ = ["QppAccelerator"]


class QppAccelerator(Accelerator, Cloneable):
    """Dense state-vector simulator backend (adapter over the exec seam)."""

    backend_name = "qpp"

    def __init__(self, options: Mapping[str, object] | None = None):
        super().__init__(options)
        self._engine = ParallelSimulationEngine(
            num_threads=self._option_int("threads", default=None)
        )
        self._local_backend = LocalBackend(engine=self._engine)

    # -- configuration -----------------------------------------------------------
    def _option_int(self, key: str, default: int | None) -> int | None:
        value = self.options.get(key, default)
        if value is None:
            return None
        return int(value)  # type: ignore[arg-type]

    def update_configuration(self, options: Mapping[str, object]) -> None:
        super().update_configuration(options)
        if "threads" in options:
            self._engine.num_threads = int(options["threads"])  # type: ignore[arg-type]

    def clone(self) -> "QppAccelerator":
        return QppAccelerator(dict(self.options))

    @property
    def num_threads(self) -> int:
        """Simulator worker threads (``OMP_NUM_THREADS`` analogue)."""
        return self._engine.effective_threads()

    def execution_backend(self) -> ExecutionBackend:
        """The :class:`ExecutionBackend` this clone dispatches to."""
        return self._local_backend

    # -- execution ------------------------------------------------------------------
    def execute(
        self,
        buffer: AcceleratorBuffer,
        circuit: CompositeInstruction,
        shots: int | None = None,
    ) -> AcceleratorBuffer:
        # Explicit simulation-method override.  "auto" here means *dense*:
        # this adapter is one dispatch target, not a router — automatic
        # Clifford routing is the job broker's decision (it sizes admission
        # accordingly).  "stabilizer" is the direct tableau path for
        # callers driving the accelerator without a broker.
        method = str(self.options.get("method", "auto")).strip().lower()
        if method not in ("auto", "statevector", "stabilizer"):
            raise AcceleratorError(
                f"unknown simulation method {self.options.get('method')!r}; "
                f"expected 'auto', 'statevector' or 'stabilizer'"
            )
        if method == "stabilizer":
            return self._execute_stabilizer(buffer, circuit, shots)
        self._check_size(buffer, circuit)
        if circuit.is_parameterized:
            raise AcceleratorError(
                f"circuit {circuit.name!r} has unbound parameters "
                f"{sorted(p.name for p in circuit.free_parameters)}"
            )
        shots = self._resolve_shots(shots)
        seed = self._seed()
        optimize = bool(self.options.get("optimize", True))
        # Plan-replay tuning knob (performance only — it does not change the
        # measurement distribution; a non-semantic job-key option).
        chunk_threshold = self._option_int("chunk-threshold", default=None)
        # Precision is *semantic*: complex64 replay changes the sampled
        # distribution within the documented fidelity bound, so it
        # participates in job keys and cache identity.
        precision = str(self.options.get("precision", "double"))

        result = self.execution_backend().execute(
            circuit,
            shots,
            n_qubits=buffer.size,
            seed=seed,
            optimize=optimize,
            chunk_threshold=chunk_threshold,
            precision=precision,
        )
        buffer.add_counts(result.counts)
        buffer.information.update(
            {
                "backend": self.name(),
                "shots": shots,
                "threads": self.num_threads,
                "execution-time-seconds": result.seconds,
                "circuit-depth": result.depth,
                "circuit-gates": result.n_gates,
                "plan-cached": result.plan_cached,
            }
        )
        return buffer

    def _execute_stabilizer(
        self,
        buffer: AcceleratorBuffer,
        circuit: CompositeInstruction,
        shots: int | None,
    ) -> AcceleratorBuffer:
        """Tableau execution for an explicit ``method: "stabilizer"``.

        Deliberately skips :meth:`_check_size`: the ``max_qubits`` ceiling
        guards dense amplitude allocation (``2**n`` complex values), while
        the tableau allocates O(n²) *bits* — a 500-qubit register is ~1 MB.
        Non-Clifford circuits fail with the classifier's obstruction.
        """
        from ..exec.stabilizer import StabilizerBackend

        if circuit.is_parameterized:
            raise AcceleratorError(
                f"circuit {circuit.name!r} has unbound parameters "
                f"{sorted(p.name for p in circuit.free_parameters)}"
            )
        shots = self._resolve_shots(shots)
        result = StabilizerBackend().execute(
            circuit, shots, n_qubits=buffer.size, seed=self._seed()
        )
        buffer.add_counts(result.counts)
        buffer.information.update(
            {
                "backend": self.name(),
                "shots": shots,
                "threads": self.num_threads,
                "method": "stabilizer",
                "execution-time-seconds": result.seconds,
                "circuit-depth": result.depth,
                "circuit-gates": result.n_gates,
                "plan-cached": False,
            }
        )
        return buffer
