"""Accelerator interface and the Cloneable mixin.

The paper's data-race analysis centres on ``xacc::getService<Accelerator>``:
services that are **not** cloneable are handed out as a single shared
instance, so concurrent kernels register their gates onto the same simulator
object and corrupt each other's circuits.  The fix is (i) making
accelerators :class:`Cloneable` so every ``get_accelerator`` call can return
a fresh instance, and (ii) mapping each user thread to its own instance via
the QPUManager (see :mod:`repro.core.qpu_manager`).

Backends implement :meth:`Accelerator.execute`, which consumes an IR circuit
and fills an :class:`~repro.runtime.buffer.AcceleratorBuffer` with
measurement counts.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from ..exceptions import AcceleratorError, ExecutionError
from ..ir.composite import CompositeInstruction
from .buffer import AcceleratorBuffer

__all__ = ["Accelerator", "Cloneable", "RETIRED_OPTIONS", "reject_retired_options"]

#: Backend options of the retired process-shard lane.  They are refused, not
#: ignored: a dropped option would hide what its caller asked for, and as
#: unknown options they would fragment every job key they appear in.
RETIRED_OPTIONS = frozenset(
    {
        "processes",
        "retry-max-attempts",
        "breaker-failure-threshold",
        "breaker-cooldown-seconds",
    }
)


def reject_retired_options(options: Mapping[str, object]) -> None:
    """Raise :class:`ExecutionError` naming every retired key in ``options``."""
    retired = sorted(RETIRED_OPTIONS.intersection(options))
    if retired:
        raise ExecutionError(
            f"backend option(s) {retired} were retired with the process-shard "
            "lane: every job runs in this process, so drop them"
        )


class Cloneable:
    """Marker mixin for services that may be instantiated per caller.

    Mirrors ``xacc::Cloneable``: the service registry returns a *new*
    instance of cloneable services on every lookup (when running in
    thread-safe mode), which removes the shared-instance data race the paper
    describes.
    """

    def clone(self):
        """Return a fresh instance configured like this one.

        The default implementation re-constructs the type with no arguments
        and copies the ``options`` mapping if present; services with richer
        state override this.
        """
        clone = type(self)()
        if hasattr(self, "options") and hasattr(clone, "options"):
            clone.options.update(self.options)  # type: ignore[attr-defined]
        return clone


class Accelerator:
    """Abstract quantum backend.

    Concrete backends provide :meth:`execute`; the base class implements
    option handling, batched execution and introspection shared by all of
    them.
    """

    #: Registry name of the backend (e.g. ``"qpp"``).
    backend_name = "abstract"

    def __init__(self, options: Mapping[str, object] | None = None):
        self.options: dict[str, object] = dict(options or {})
        reject_retired_options(self.options)
        self._initialized = False

    # -- lifecycle ----------------------------------------------------------------
    def initialize(self, options: Mapping[str, object] | None = None) -> None:
        """Prepare the backend; may be called once per instance."""
        if options:
            # Route through update_configuration so backends that react to
            # option changes (e.g. the qpp thread count) see them here too.
            self.update_configuration(options)
        self._initialized = True

    def update_configuration(self, options: Mapping[str, object]) -> None:
        """Update backend options after initialisation (XACC's ``updateConfiguration``)."""
        reject_retired_options(options)
        self.options.update(options)

    @property
    def is_initialized(self) -> bool:
        return self._initialized

    def name(self) -> str:
        """Registry name of this backend."""
        return self.backend_name

    # -- capabilities ----------------------------------------------------------------
    @property
    def is_remote(self) -> bool:
        """True for backends that submit to an external (possibly queued) service."""
        return False

    @property
    def supports_noise(self) -> bool:
        return False

    def max_qubits(self) -> int:
        """Largest register this backend accepts."""
        return 26

    # -- execution ---------------------------------------------------------------------
    def execute(
        self,
        buffer: AcceleratorBuffer,
        circuit: CompositeInstruction,
        shots: int | None = None,
    ) -> AcceleratorBuffer:
        """Run ``circuit`` and store measurement counts into ``buffer``."""
        raise NotImplementedError

    def execute_batch(
        self,
        buffer: AcceleratorBuffer,
        circuits: Sequence[CompositeInstruction],
        shots: int | None = None,
    ) -> list[dict[str, int]]:
        """Run several circuits against the same register.

        Returns the per-circuit histograms; the buffer accumulates the union
        and records per-circuit counts under ``information["batch"]``.
        """
        results: list[dict[str, int]] = []
        for circuit in circuits:
            scratch = AcceleratorBuffer(buffer.size, name=f"{buffer.name}_{circuit.name}")
            self.execute(scratch, circuit, shots=shots)
            counts = scratch.get_measurement_counts()
            results.append(counts)
            buffer.add_counts(counts)
        buffer.information.setdefault("batch", []).extend(  # type: ignore[union-attr]
            {"circuit": c.name, "counts": r} for c, r in zip(circuits, results)
        )
        return results

    # -- helpers ------------------------------------------------------------------------
    def _resolve_shots(self, shots: int | None) -> int:
        from ..config import get_config

        value = shots if shots is not None else int(self.options.get("shots", 0)) or get_config().shots
        if value <= 0:
            raise AcceleratorError(f"shots must be positive, got {value}")
        return value

    def _seed(self) -> int | None:
        """The sampling seed: the ``seed`` option, else the global config's."""
        from ..config import get_config

        seed = self.options.get("seed")
        return get_config().seed if seed is None else int(seed)  # type: ignore[arg-type]

    def _check_size(self, buffer: AcceleratorBuffer, circuit: CompositeInstruction) -> None:
        if circuit.n_qubits > buffer.size:
            raise AcceleratorError(
                f"circuit {circuit.name!r} needs {circuit.n_qubits} qubit(s) but the "
                f"buffer only has {buffer.size}"
            )
        if buffer.size > self.max_qubits():
            raise AcceleratorError(
                f"{self.name()} supports at most {self.max_qubits()} qubits, "
                f"requested {buffer.size}"
            )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(options={self.options!r})"
