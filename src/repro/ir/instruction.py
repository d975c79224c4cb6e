"""Base :class:`Instruction` type for the IR.

An instruction is a named operation acting on a tuple of qubit indices with
an optional tuple of classical parameters (gate angles).  Concrete gate
classes live in :mod:`repro.ir.gates`; circuits (composites of instructions)
live in :mod:`repro.ir.composite`.
"""

from __future__ import annotations

import sys
from typing import Iterable, Mapping, Sequence

import numpy as np

from ..exceptions import InvalidGateError
from .parameter import Parameter, ParameterExpression, ParameterValue, bind_value

__all__ = ["Instruction"]

#: One-qubit instructions on a qubit below this index share one ``(q,)``
#: tuple: a circuit keeps no qubit tuple of its own for them.
SHARED_QUBIT_TUPLES = 1024
_ONE_QUBIT = tuple((q,) for q in range(SHARED_QUBIT_TUPLES))


def _qubit_tuple(qubits: Iterable[int]) -> tuple[int, ...]:
    qubits = tuple(map(int, qubits))
    if len(qubits) == 1 and 0 <= qubits[0] < SHARED_QUBIT_TUPLES:
        return _ONE_QUBIT[qubits[0]]
    return qubits


class Instruction:
    """A single IR node.

    Instructions carry ``__slots__`` and no instance ``__dict__`` (a
    circuit keeps thousands of them); a subclass that adds state declares
    its own slots and extends :meth:`copy`.

    Attributes
    ----------
    name:
        Canonical upper-case mnemonic (``"H"``, ``"CX"``, ``"MEASURE"`` ...).
    qubits:
        Tuple of integer qubit indices the instruction acts on.
    parameters:
        Tuple of classical parameters (floats or symbolic
        :class:`~repro.ir.parameter.Parameter` expressions).
    """

    #: Number of qubits the instruction acts on; subclasses override.
    num_qubits: int = 1
    #: Number of classical parameters; subclasses override.
    num_parameters: int = 0
    #: Whether the instruction is a composite (circuit).
    is_composite: bool = False

    __slots__ = ("name", "qubits", "parameters")

    def __init__(
        self,
        name: str,
        qubits: Sequence[int],
        parameters: Sequence[ParameterValue] = (),
    ):
        # Interned: ``upper()`` would otherwise mint a fresh string per
        # instruction, a fifth of what a gate in a long circuit weighs.
        self.name = sys.intern(str(name).upper())
        self.qubits = _qubit_tuple(qubits)
        self.parameters = tuple(parameters)
        self._validate()

    # -- validation ---------------------------------------------------------
    def _validate(self) -> None:
        if any(q < 0 for q in self.qubits):
            raise InvalidGateError(
                f"{self.name}: qubit indices must be non-negative, got {self.qubits}"
            )
        if len(set(self.qubits)) != len(self.qubits):
            raise InvalidGateError(
                f"{self.name}: duplicate qubit indices {self.qubits}"
            )
        if self.num_qubits and len(self.qubits) != self.num_qubits:
            raise InvalidGateError(
                f"{self.name} expects {self.num_qubits} qubit(s), got {len(self.qubits)}"
            )
        if self.num_parameters and len(self.parameters) != self.num_parameters:
            raise InvalidGateError(
                f"{self.name} expects {self.num_parameters} parameter(s), "
                f"got {len(self.parameters)}"
            )

    # -- introspection -------------------------------------------------------
    @property
    def is_parameterized(self) -> bool:
        """True when at least one parameter is still symbolic."""
        return any(isinstance(p, (Parameter, ParameterExpression)) for p in self.parameters)

    @property
    def free_parameters(self) -> frozenset[Parameter]:
        """The set of unbound symbolic parameters used by this instruction."""
        free: set[Parameter] = set()
        for p in self.parameters:
            if isinstance(p, (Parameter, ParameterExpression)):
                free.update(p.parameters)
        return frozenset(free)

    @property
    def is_measurement(self) -> bool:
        return self.name == "MEASURE"

    @property
    def is_unitary(self) -> bool:
        """True for pure gates (excludes measure/reset/barrier)."""
        return self.name not in ("MEASURE", "RESET", "BARRIER")

    def bound_parameters(self, values: Mapping[str, float] | None = None) -> tuple[float, ...]:
        """Return concrete float parameters, binding symbols from ``values``."""
        return tuple(bind_value(p, values) for p in self.parameters)

    # -- matrix form ---------------------------------------------------------
    def matrix(self) -> np.ndarray:
        """Return the unitary matrix of the gate (little-endian qubit order).

        Subclasses representing unitary gates must implement this.  Symbolic
        parameters must be bound first (see :meth:`bind`).
        """
        raise InvalidGateError(f"instruction {self.name} has no matrix form")

    def bound_matrix(self, values: Mapping[str, float]) -> np.ndarray:
        """``self.bind(values).matrix()``, bit for bit, without the copy.

        A gate with a ``_matrix_of(*parameters)`` (the rotations) is handed
        the bound floats directly; any other instruction is bound and asked.
        """
        matrix_of = getattr(self, "_matrix_of", None)
        if matrix_of is None:
            return self.bind(values).matrix()
        return matrix_of(*self.bound_parameters(values))

    # -- rewriting ------------------------------------------------------------
    def bind(self, values: Mapping[str, float]) -> "Instruction":
        """Return a copy with all symbolic parameters replaced by floats."""
        if not self.is_parameterized:
            return self.copy()
        bound = [
            bind_value(p, values) if isinstance(p, (Parameter, ParameterExpression)) else p
            for p in self.parameters
        ]
        return self.with_parameters(bound)

    def with_qubits(self, qubits: Iterable[int]) -> "Instruction":
        """Return a copy acting on ``qubits`` (used when inlining circuits)."""
        clone = self.copy()
        clone.qubits = _qubit_tuple(qubits)
        clone._validate()
        return clone

    def with_parameters(self, parameters: Sequence[ParameterValue]) -> "Instruction":
        """Return a copy with the given parameters."""
        clone = self.copy()
        clone.parameters = tuple(parameters)
        clone._validate()
        return clone

    def copy(self) -> "Instruction":
        """Shallow copy preserving the concrete subclass.

        Each slot is assigned by name: ``bind`` copies every instruction of
        a circuit per binding, and a loop over ``__slots__`` is ~3x slower.
        """
        clone = object.__new__(type(self))
        clone.name = self.name
        clone.qubits = self.qubits
        clone.parameters = self.parameters
        return clone

    def inverse(self) -> "Instruction":
        """Return the inverse instruction.

        The default implementation only works for concrete (non-symbolic)
        unitary gates and produces a
        :class:`~repro.ir.gates.UnitaryGate` holding the conjugate
        transpose; named gates override this with their exact inverse.
        """
        from .gates import UnitaryGate  # local import to avoid a cycle

        if not self.is_unitary:
            raise InvalidGateError(f"{self.name} is not invertible")
        return UnitaryGate(np.conjugate(self.matrix()).T, self.qubits, name=f"{self.name}_DG")

    # -- text forms -----------------------------------------------------------
    def to_xasm(self) -> str:
        """Render as an XASM-style statement, e.g. ``CX(q[0], q[1]);``."""
        args = [f"q[{q}]" for q in self.qubits]
        args += [_format_param(p) for p in self.parameters]
        return f"{self.name}({', '.join(args)});"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instruction):
            return NotImplemented
        if self.name != other.name or self.qubits != other.qubits:
            return False
        if len(self.parameters) != len(other.parameters):
            return False
        for a, b in zip(self.parameters, other.parameters):
            if isinstance(a, (int, float)) and isinstance(b, (int, float)):
                if not np.isclose(float(a), float(b)):
                    return False
            elif a != b:
                return False
        return True

    def __hash__(self) -> int:  # pragma: no cover - instructions are rarely hashed
        return hash((self.name, self.qubits, tuple(repr(p) for p in self.parameters)))

    def __repr__(self) -> str:
        params = f", params={list(self.parameters)!r}" if self.parameters else ""
        return f"{type(self).__name__}(qubits={list(self.qubits)}{params})"


def _format_param(p: ParameterValue) -> str:
    if isinstance(p, (Parameter, ParameterExpression)):
        return repr(p)
    return f"{float(p):.10g}"
