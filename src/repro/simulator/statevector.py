"""Dense state-vector simulator (the Quantum++ stand-in).

The :class:`StateVector` class owns the amplitude array and exposes gate
application, measurement sampling, expectation values and collapse.  It is a
pure-math object with no global state, which makes it trivially safe to use
from multiple threads as long as each thread owns its own instance — exactly
the property the paper's *cloneable accelerator* design relies on.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from ..exceptions import ExecutionError
from ..ir.composite import CompositeInstruction
from ..ir.instruction import Instruction
from . import gate_application
from .sampling import sample_counts

__all__ = ["StateVector"]


class StateVector:
    """Dense simulation of an ``n_qubits``-qubit pure state."""

    def __init__(
        self,
        n_qubits: int,
        data: np.ndarray | None = None,
        dtype: np.dtype | type | str | None = None,
    ):
        if n_qubits < 1:
            raise ExecutionError(f"n_qubits must be at least 1, got {n_qubits}")
        if n_qubits > 26:
            raise ExecutionError(
                f"refusing to allocate a {n_qubits}-qubit dense state "
                "(exceeds the 26-qubit memory guard)"
            )
        self.n_qubits = int(n_qubits)
        dtype = np.dtype(complex if dtype is None else dtype)
        if dtype.kind != "c":
            raise ExecutionError(
                f"state dtype must be complex (complex64/complex128), got {dtype}"
            )
        #: Recycled scratch for dense gate application (ping-pong buffer:
        #: the previous amplitude array once a dense gate produced a new
        #: one), so long gate-by-gate runs allocate at most one extra state.
        self._spare: np.ndarray | None = None
        dim = 1 << self.n_qubits
        if data is None:
            self._data = np.zeros(dim, dtype=dtype)
            self._data[0] = 1.0
        else:
            data = np.asarray(data, dtype=dtype).reshape(-1)
            if data.size != dim:
                raise ExecutionError(
                    f"state of length {data.size} does not match {n_qubits} qubit(s)"
                )
            norm = np.linalg.norm(data)
            # complex64 inputs accumulate ~1e-7 per-amplitude rounding, so
            # the normalisation tolerance scales with the dtype.
            atol = 1e-8 if dtype.itemsize == 16 else 1e-5
            if not np.isclose(norm, 1.0, atol=atol):
                raise ExecutionError(f"state vector is not normalised (norm={norm:.6g})")
            self._data = data.copy()

    # -- basic accessors ---------------------------------------------------------
    @property
    def data(self) -> np.ndarray:
        """The raw amplitude array (a direct reference, not a copy)."""
        return self._data

    @property
    def dim(self) -> int:
        return self._data.size

    @property
    def dtype(self) -> np.dtype:
        """Amplitude dtype (tracks the array, so plan replay can retier it)."""
        return self._data.dtype

    def copy(self) -> "StateVector":
        clone = StateVector.__new__(StateVector)
        clone.n_qubits = self.n_qubits
        clone._spare = None
        clone._data = self._data.copy()
        return clone

    def amplitude(self, basis_state: int | str) -> complex:
        """Amplitude of a basis state given as an index or a bitstring.

        Bitstrings follow the buffer convention: character ``i`` is qubit
        ``i`` (qubit 0 leftmost).
        """
        if isinstance(basis_state, str):
            if len(basis_state) != self.n_qubits:
                raise ExecutionError(
                    f"bitstring length {len(basis_state)} does not match "
                    f"{self.n_qubits} qubit(s)"
                )
            index = sum((1 << q) for q, bit in enumerate(basis_state) if bit == "1")
        else:
            index = int(basis_state)
        if not 0 <= index < self.dim:
            raise ExecutionError(f"basis index {index} out of range")
        return complex(self._data[index])

    def probabilities(self) -> np.ndarray:
        """Probability of each computational basis state."""
        return np.abs(self._data) ** 2

    def norm(self) -> float:
        return float(np.linalg.norm(self._data))

    def normalize(self) -> "StateVector":
        norm = self.norm()
        if norm == 0.0:
            raise ExecutionError("cannot normalise the zero vector")
        self._data /= norm
        return self

    def fidelity(self, other: "StateVector") -> float:
        """``|<self|other>|^2``."""
        if other.n_qubits != self.n_qubits:
            raise ExecutionError("fidelity requires states of equal size")
        return float(abs(np.vdot(self._data, other._data)) ** 2)

    # -- evolution ------------------------------------------------------------------
    def apply(self, instruction: Instruction) -> "StateVector":
        """Apply a single unitary instruction (measure/reset/barrier are no-ops here)."""
        if instruction.is_composite:
            return self.apply_circuit(instruction)  # type: ignore[arg-type]
        name = instruction.name
        if name == "BARRIER":
            return self
        if name == "MEASURE":
            # Terminal measurements are handled by sampling; mid-circuit
            # measurement collapse is available via measure().
            return self
        if name == "RESET":
            self.reset_qubit(instruction.qubits[0])
            return self
        result = gate_application.apply_gate(self._data, instruction, out=self._spare)
        if result is not self._data:
            # A dense gate produced a new array (the recycled spare, or a
            # fresh allocation the first time): keep the displaced buffer as
            # the next dense gate's scratch.
            self._spare = self._data
            self._data = result
        return self

    def apply_circuit(
        self,
        circuit: CompositeInstruction,
        parameter_values: Mapping[str, float] | Sequence[float] | None = None,
    ) -> "StateVector":
        """Apply every instruction of ``circuit`` in order (gate-by-gate)."""
        if circuit.n_qubits > self.n_qubits:
            raise ExecutionError(
                f"circuit uses {circuit.n_qubits} qubit(s) but the state has "
                f"only {self.n_qubits}"
            )
        if circuit.is_parameterized:
            if parameter_values is None:
                raise ExecutionError(
                    "circuit has unbound parameters; provide parameter_values"
                )
            circuit = circuit.bind(parameter_values)
        for instruction in circuit:
            self.apply(instruction)
        return self

    def apply_plan(
        self, plan, rng: np.random.Generator | None = None, pool=None
    ) -> "StateVector":
        """Evolve by a compiled :class:`~repro.simulator.execution_plan.ExecutionPlan`.

        ``rng`` is only needed for plans containing mid-circuit resets.
        ``pool`` (a :class:`~repro.simulator.parallel_engine.ParallelSimulationEngine`)
        chunk-parallelises the replay for states at or above the plan's
        ``chunk_threshold`` — bitwise identical to the serial replay.
        """
        if plan.n_qubits != self.n_qubits:
            raise ExecutionError(
                f"plan is compiled for {plan.n_qubits} qubit(s) but the state "
                f"has {self.n_qubits}"
            )
        self._data = plan.execute(self._data, rng=rng, pool=pool)
        return self

    def run(
        self,
        circuit: CompositeInstruction,
        parameter_values: Mapping[str, float] | Sequence[float] | None = None,
        plan_cache=None,
        rng: np.random.Generator | None = None,
        pool=None,
    ) -> "StateVector":
        """Apply ``circuit`` through the compiled-plan fast path.

        The plan is compiled once per circuit content (via the shared plan
        cache) and replayed on every subsequent call; symbolic circuits use
        a parametric plan whose rotation matrices are re-bound in place per
        ``parameter_values`` — the VQE/QAOA hot loop.  ``pool`` is passed
        through to :meth:`apply_plan` for chunk-parallel replay.
        """
        from .plan_cache import get_plan_cache

        cache = plan_cache if plan_cache is not None else get_plan_cache()
        precision = "single" if self._data.dtype == np.dtype(np.complex64) else "double"
        plan = cache.get_or_compile(circuit, n_qubits=self.n_qubits, precision=precision)
        if plan.is_parametric:
            if parameter_values is None:
                raise ExecutionError(
                    "circuit has unbound parameters; provide parameter_values"
                )
            plan = plan.bind(parameter_values)
        if rng is None and plan.has_reset:
            # Mirror measure()'s default so mid-circuit resets keep working
            # exactly as they did on the gate-by-gate path.
            rng = np.random.default_rng()
        return self.apply_plan(plan, rng=rng, pool=pool)

    def reset_qubit(self, qubit: int) -> "StateVector":
        """Project qubit ``qubit`` onto |0> (flipping if it measured 1) and renormalise."""
        outcome = self.measure(qubit)
        if outcome == 1:
            from ..ir.gates import X

            self.apply(X([qubit]))
        return self

    # -- measurement ------------------------------------------------------------------
    def probability_of_one(self, qubit: int) -> float:
        """Marginal probability that ``qubit`` measures 1."""
        if not 0 <= qubit < self.n_qubits:
            raise ExecutionError(f"qubit {qubit} out of range")
        view = self._data.reshape(-1, 2, 1 << qubit)
        return float(np.sum(np.abs(view[:, 1, :]) ** 2))

    def measure(self, qubit: int, rng: np.random.Generator | None = None) -> int:
        """Projectively measure ``qubit``, collapsing the state; returns 0 or 1."""
        rng = rng or np.random.default_rng()
        p1 = self.probability_of_one(qubit)
        outcome = int(rng.random() < p1)
        view = self._data.reshape(-1, 2, 1 << qubit)
        keep = outcome
        drop = 1 - outcome
        prob = p1 if outcome == 1 else 1.0 - p1
        if prob <= 0.0:
            raise ExecutionError("measurement outcome has zero probability")
        view[:, drop, :] = 0.0
        self._data /= np.sqrt(prob)
        return outcome

    def sample(
        self,
        shots: int,
        measured_qubits: Iterable[int] | None = None,
        rng: np.random.Generator | None = None,
    ) -> dict[str, int]:
        """Sample ``shots`` measurement outcomes without collapsing the state.

        Returns a histogram mapping bitstrings (qubit 0 leftmost) to counts,
        matching the ``AcceleratorBuffer`` output in the paper's Listing 2.
        """
        qubits = tuple(measured_qubits) if measured_qubits is not None else tuple(
            range(self.n_qubits)
        )
        return sample_counts(self.probabilities(), shots, qubits, self.n_qubits, rng)

    # -- observables --------------------------------------------------------------------
    def expectation(self, observable) -> float:
        """Exact expectation value of a Pauli operator (see :mod:`repro.operators`).

        Reads the state in place through the observable's memoised
        :class:`~repro.operators.compiled.CompiledObservable`: one pass per
        X/Y flip mask, no copy and no basis-rotation circuit.
        """
        from ..operators.compiled import compile_observable

        return compile_observable(observable, self.n_qubits).expectation(self._data)

    def __repr__(self) -> str:
        return f"StateVector(n_qubits={self.n_qubits})"
