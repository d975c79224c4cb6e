"""Density-matrix simulation for noisy circuits.

The density-matrix path is used by :class:`repro.runtime.noisy_accelerator.
NoisyAccelerator` when a :class:`~repro.simulator.noise.NoiseModel` is
attached.  It is quadratically more expensive than state-vector simulation,
so it is guarded to small qubit counts; the paper's kernels (Bell, small
Shor instances) fit comfortably.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from ..exceptions import ExecutionError
from ..ir.composite import CompositeInstruction
from ..ir.instruction import Instruction
from .sampling import sample_counts

__all__ = ["DensityMatrix"]

_MAX_QUBITS = 13


class DensityMatrix:
    """Mixed-state simulation of up to 13 qubits.

    ``dtype`` selects the evolution precision: ``complex128`` (default) or
    ``complex64`` for the halved-footprint single-precision tier.  Kraus
    sums accumulate error linearly in circuit depth, so the single tier's
    documented bound (diagonal-probability error ≤ 1e-4 for the guarded
    qubit counts and depths) is looser than the statevector lane's.
    """

    def __init__(
        self,
        n_qubits: int,
        data: np.ndarray | None = None,
        dtype: np.dtype | type = np.complex128,
    ):
        if n_qubits < 1:
            raise ExecutionError(f"n_qubits must be at least 1, got {n_qubits}")
        if n_qubits > _MAX_QUBITS:
            raise ExecutionError(
                f"density-matrix simulation is limited to {_MAX_QUBITS} qubits, "
                f"got {n_qubits}"
            )
        dtype = np.dtype(dtype)
        if dtype not in (np.dtype(np.complex128), np.dtype(np.complex64)):
            raise ExecutionError(
                f"density-matrix dtype must be complex128 or complex64, got {dtype}"
            )
        self._dtype = dtype
        self.n_qubits = int(n_qubits)
        dim = 1 << self.n_qubits
        if data is None:
            self._rho = np.zeros((dim, dim), dtype=dtype)
            self._rho[0, 0] = 1.0
        else:
            rho = np.asarray(data, dtype=dtype)
            if rho.shape != (dim, dim):
                raise ExecutionError(
                    f"density matrix shape {rho.shape} does not match {n_qubits} qubit(s)"
                )
            atol = 1e-8 if self._dtype == np.dtype(np.complex128) else 1e-5
            if not np.isclose(np.trace(rho).real, 1.0, atol=atol):
                raise ExecutionError("density matrix must have unit trace")
            if not np.allclose(rho, rho.conj().T, atol=atol):
                raise ExecutionError("density matrix must be Hermitian")
            self._rho = rho.copy()

    # -- accessors --------------------------------------------------------------
    @property
    def data(self) -> np.ndarray:
        return self._rho

    @property
    def dtype(self) -> np.dtype:
        """Evolution dtype (``complex128`` or the ``complex64`` tier)."""
        return self._dtype

    @property
    def dim(self) -> int:
        return self._rho.shape[0]

    def copy(self) -> "DensityMatrix":
        clone = DensityMatrix.__new__(DensityMatrix)
        clone.n_qubits = self.n_qubits
        clone._dtype = self._dtype
        clone._rho = self._rho.copy()
        return clone

    def trace(self) -> float:
        return float(np.trace(self._rho).real)

    def purity(self) -> float:
        """``Tr(rho^2)`` — 1 for pure states, 1/d for the maximally mixed state."""
        return float(np.trace(self._rho @ self._rho).real)

    def probabilities(self) -> np.ndarray:
        return np.clip(np.real(np.diag(self._rho)), 0.0, None)

    @staticmethod
    def from_statevector(state) -> "DensityMatrix":
        """Build ``|psi><psi|`` from a :class:`~repro.simulator.statevector.StateVector`."""
        psi = np.asarray(state.data, dtype=complex).reshape(-1, 1)
        return DensityMatrix(state.n_qubits, psi @ psi.conj().T)

    # -- evolution ---------------------------------------------------------------
    def _embed(self, matrix: np.ndarray, targets: Sequence[int]) -> np.ndarray:
        """Expand a local gate matrix to the full Hilbert space."""
        from .unitary import embed_operator

        return embed_operator(matrix, targets, self.n_qubits)

    def apply(self, instruction: Instruction) -> "DensityMatrix":
        """Apply a unitary instruction: ``rho -> U rho U†``."""
        name = instruction.name
        if name in ("BARRIER", "MEASURE"):
            return self
        if name == "RESET":
            raise ExecutionError("RESET is not supported by the density-matrix simulator")
        full = self._embed(instruction.matrix(), instruction.qubits)
        full = full.astype(self._dtype, copy=False)
        self._rho = full @ self._rho @ full.conj().T
        return self

    def apply_circuit(
        self,
        circuit: CompositeInstruction,
        parameter_values: Mapping[str, float] | Sequence[float] | None = None,
        noise_model=None,
    ) -> "DensityMatrix":
        """Apply a circuit, interleaving noise channels when a model is given."""
        if circuit.n_qubits > self.n_qubits:
            raise ExecutionError(
                f"circuit uses {circuit.n_qubits} qubit(s) but the state has "
                f"only {self.n_qubits}"
            )
        if circuit.is_parameterized:
            if parameter_values is None:
                raise ExecutionError("circuit has unbound parameters")
            circuit = circuit.bind(parameter_values)
        for instruction in circuit:
            self.apply(instruction)
            if noise_model is not None and instruction.is_unitary:
                for bound in noise_model.channels_for(instruction):
                    self.apply_channel(bound, bound.qubits)
        return self

    def apply_channel(self, channel, targets: Sequence[int]) -> "DensityMatrix":
        """Apply a Kraus channel over ``targets``: ``rho -> sum_k K rho K†``."""
        kraus = channel.kraus_operators if hasattr(channel, "kraus_operators") else channel
        targets = tuple(targets)
        new_rho = np.zeros_like(self._rho)
        for op in kraus:
            op = np.asarray(op, dtype=complex)
            expected_dim = 2 ** len(targets)
            if op.shape == (expected_dim, expected_dim):
                full = self._embed(op, targets)
            elif op.shape == (2, 2) and len(targets) >= 1:
                # Single-qubit channel broadcast over each target qubit would
                # be ambiguous; require exactly one target.
                if len(targets) != 1:
                    raise ExecutionError(
                        "single-qubit Kraus operators require exactly one target qubit"
                    )
                full = self._embed(op, targets)
            else:
                raise ExecutionError(
                    f"Kraus operator shape {op.shape} does not match targets {targets}"
                )
            full = full.astype(self._dtype, copy=False)
            new_rho += full @ self._rho @ full.conj().T
        self._rho = new_rho
        return self

    # -- measurement ----------------------------------------------------------------
    def sample(
        self,
        shots: int,
        measured_qubits: Iterable[int] | None = None,
        rng: np.random.Generator | None = None,
    ) -> dict[str, int]:
        qubits = tuple(measured_qubits) if measured_qubits is not None else tuple(
            range(self.n_qubits)
        )
        return sample_counts(self.probabilities(), shots, qubits, self.n_qubits, rng)

    def expectation(self, observable) -> float:
        """Exact ``tr(rho H)`` through the same compiled form as the state vector."""
        from ..operators.compiled import compile_observable

        return compile_observable(observable, self.n_qubits).density_expectation(self._rho)

    def __repr__(self) -> str:
        return f"DensityMatrix(n_qubits={self.n_qubits})"
