"""Density-matrix backend with a configurable noise model (``"noisy-qpp"``).

The paper lists noisy simulation and physical back ends as future targets for
the multi-threaded runtime; this backend exercises exactly the same
accelerator interface (and therefore the same QPUManager / cloneability
machinery) while producing noisy counts, so the thread-safety layer can be
tested against a second, stateful backend.  Like the qpp accelerator it is
a thin adapter over the execution seam — here a
:class:`~repro.exec.backend.DensityBackend`, since density-matrix evolution
has no compiled-plan form.
"""

from __future__ import annotations

from typing import Mapping

from ..exceptions import AcceleratorError
from ..exec.backend import DensityBackend
from ..ir.composite import CompositeInstruction
from ..simulator.noise import NoiseModel, depolarizing_channel
from .accelerator import Accelerator, Cloneable
from .buffer import AcceleratorBuffer

__all__ = ["NoisyAccelerator"]


class NoisyAccelerator(Accelerator, Cloneable):
    """Density-matrix simulator with per-gate noise channels."""

    backend_name = "noisy-qpp"

    def __init__(
        self,
        options: Mapping[str, object] | None = None,
        noise_model: NoiseModel | None = None,
    ):
        super().__init__(options)
        if noise_model is None:
            probability = float(self.options.get("depolarizing-probability", 0.0) or 0.0)
            noise_model = NoiseModel()
            if probability > 0.0:
                noise_model.default_single_qubit = depolarizing_channel(probability)
                noise_model.default_two_qubit = depolarizing_channel(probability)
        self.noise_model = noise_model
        self._backend = DensityBackend(noise_model=self.noise_model)

    def clone(self) -> "NoisyAccelerator":
        return NoisyAccelerator(dict(self.options), self.noise_model)

    @property
    def supports_noise(self) -> bool:
        return True

    def max_qubits(self) -> int:
        return 13

    def execute(
        self,
        buffer: AcceleratorBuffer,
        circuit: CompositeInstruction,
        shots: int | None = None,
    ) -> AcceleratorBuffer:
        self._check_size(buffer, circuit)
        if circuit.is_parameterized:
            raise AcceleratorError(
                f"circuit {circuit.name!r} has unbound parameters"
            )
        shots = self._resolve_shots(shots)
        result = self._backend.execute(
            circuit,
            shots,
            n_qubits=buffer.size,
            seed=self._seed(),
            # Semantic (job-key) option: "single" evolves in complex64.
            precision=str(self.options.get("precision", "double")),
        )

        buffer.add_counts(result.counts)
        buffer.information.update(
            {
                "backend": self.name(),
                "shots": shots,
                "purity": result.extra["purity"],
                "precision": result.extra["precision"],
                "execution-time-seconds": result.seconds,
            }
        )
        return buffer
