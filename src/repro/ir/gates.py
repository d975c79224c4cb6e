"""Concrete gate definitions and the gate registry.

All matrices are expressed in the computational basis with **little-endian**
qubit ordering inside a gate: for a two-qubit gate acting on ``(q0, q1)``,
the basis ordering of the 4x4 matrix is ``|q1 q0>`` = ``00, 01, 10, 11`` with
``q0`` the least-significant bit.  The simulator's gate-application kernels
use the same convention, so matrices can be applied without reordering.

The registry (:data:`GATE_REGISTRY`) maps upper-case mnemonics (and common
aliases like ``CNOT``) to gate classes, which is what the XASM/OpenQASM
parsers and the ``@qpu`` tracing DSL use to build instructions by name.
"""

from __future__ import annotations

import cmath
import math
from typing import Mapping, Sequence

import numpy as np

from ..exceptions import InvalidGateError
from .instruction import Instruction
from .parameter import ParameterValue

__all__ = [
    "Gate",
    "GATE_REGISTRY",
    "create_gate",
    "Identity",
    "H",
    "X",
    "Y",
    "Z",
    "S",
    "Sdg",
    "T",
    "Tdg",
    "RX",
    "RY",
    "RZ",
    "U3",
    "CX",
    "CY",
    "CZ",
    "CH",
    "CRZ",
    "CPhase",
    "Swap",
    "ISwap",
    "CCX",
    "CSwap",
    "PermutationGate",
    "UnitaryGate",
    "Measure",
    "Reset",
    "Barrier",
]


class Gate(Instruction):
    """Base class for unitary gates (adds default name from the class).

    A gate whose matrix is a function of its parameters defines it once, as
    the static ``_matrix_of(*parameters)``; :meth:`matrix` and
    :meth:`~repro.ir.instruction.Instruction.bound_matrix` both call it.
    """

    __slots__ = ()

    def __init__(self, qubits: Sequence[int], parameters: Sequence[ParameterValue] = ()):
        super().__init__(type(self).__name__.upper(), qubits, parameters)

    def matrix(self) -> np.ndarray:
        matrix_of = getattr(self, "_matrix_of", None)
        if matrix_of is None:
            return super().matrix()
        return matrix_of(*self.bound_parameters())


# ---------------------------------------------------------------------------
# Single-qubit fixed gates
# ---------------------------------------------------------------------------

_SQRT2_INV = 1.0 / math.sqrt(2.0)


class Identity(Gate):
    """Single-qubit identity."""

    __slots__ = ()
    num_qubits = 1

    def __init__(self, qubits: Sequence[int], parameters: Sequence[ParameterValue] = ()):
        super().__init__(qubits, parameters)
        self.name = "I"

    def matrix(self) -> np.ndarray:
        return np.eye(2, dtype=complex)

    def inverse(self) -> Instruction:
        return self.copy()


class H(Gate):
    """Hadamard gate."""

    __slots__ = ()
    num_qubits = 1

    def matrix(self) -> np.ndarray:
        return np.array([[_SQRT2_INV, _SQRT2_INV], [_SQRT2_INV, -_SQRT2_INV]], dtype=complex)

    def inverse(self) -> Instruction:
        return self.copy()


class X(Gate):
    """Pauli-X (NOT) gate."""

    __slots__ = ()
    num_qubits = 1

    def matrix(self) -> np.ndarray:
        return np.array([[0, 1], [1, 0]], dtype=complex)

    def inverse(self) -> Instruction:
        return self.copy()


class Y(Gate):
    """Pauli-Y gate."""

    __slots__ = ()
    num_qubits = 1

    def matrix(self) -> np.ndarray:
        return np.array([[0, -1j], [1j, 0]], dtype=complex)

    def inverse(self) -> Instruction:
        return self.copy()


class Z(Gate):
    """Pauli-Z gate."""

    __slots__ = ()
    num_qubits = 1

    def matrix(self) -> np.ndarray:
        return np.array([[1, 0], [0, -1]], dtype=complex)

    def inverse(self) -> Instruction:
        return self.copy()


class S(Gate):
    """Phase gate (sqrt(Z))."""

    __slots__ = ()
    num_qubits = 1

    def matrix(self) -> np.ndarray:
        return np.array([[1, 0], [0, 1j]], dtype=complex)

    def inverse(self) -> Instruction:
        return Sdg(self.qubits)


class Sdg(Gate):
    """Adjoint of the S gate."""

    __slots__ = ()
    num_qubits = 1

    def matrix(self) -> np.ndarray:
        return np.array([[1, 0], [0, -1j]], dtype=complex)

    def inverse(self) -> Instruction:
        return S(self.qubits)


class T(Gate):
    """T gate (pi/8 phase)."""

    __slots__ = ()
    num_qubits = 1

    def matrix(self) -> np.ndarray:
        return np.array([[1, 0], [0, cmath.exp(1j * math.pi / 4)]], dtype=complex)

    def inverse(self) -> Instruction:
        return Tdg(self.qubits)


class Tdg(Gate):
    """Adjoint of the T gate."""

    __slots__ = ()
    num_qubits = 1

    def matrix(self) -> np.ndarray:
        return np.array([[1, 0], [0, cmath.exp(-1j * math.pi / 4)]], dtype=complex)

    def inverse(self) -> Instruction:
        return T(self.qubits)


# ---------------------------------------------------------------------------
# Single-qubit rotations
# ---------------------------------------------------------------------------


class RX(Gate):
    """Rotation about X: ``exp(-i theta X / 2)``."""

    __slots__ = ()
    num_qubits = 1
    num_parameters = 1

    @staticmethod
    def _matrix_of(theta: float) -> np.ndarray:
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        return np.array([c, -1j * s, -1j * s, c], dtype=complex).reshape(2, 2)

    def inverse(self) -> Instruction:
        return RX(self.qubits, [_negate(self.parameters[0])])


class RY(Gate):
    """Rotation about Y: ``exp(-i theta Y / 2)``."""

    __slots__ = ()
    num_qubits = 1
    num_parameters = 1

    @staticmethod
    def _matrix_of(theta: float) -> np.ndarray:
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        return np.array([c, -s, s, c], dtype=complex).reshape(2, 2)

    def inverse(self) -> Instruction:
        return RY(self.qubits, [_negate(self.parameters[0])])


class RZ(Gate):
    """Rotation about Z: ``exp(-i theta Z / 2)``."""

    __slots__ = ()
    num_qubits = 1
    num_parameters = 1

    @staticmethod
    def _matrix_of(theta: float) -> np.ndarray:
        return np.array(
            [[cmath.exp(-1j * theta / 2), 0], [0, cmath.exp(1j * theta / 2)]], dtype=complex
        )

    def inverse(self) -> Instruction:
        return RZ(self.qubits, [_negate(self.parameters[0])])


class U3(Gate):
    """General single-qubit gate ``U3(theta, phi, lambda)`` (OpenQASM u3)."""

    __slots__ = ()
    num_qubits = 1
    num_parameters = 3

    @staticmethod
    def _matrix_of(theta: float, phi: float, lam: float) -> np.ndarray:
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        return np.array(
            [
                [c, -cmath.exp(1j * lam) * s],
                [cmath.exp(1j * phi) * s, cmath.exp(1j * (phi + lam)) * c],
            ],
            dtype=complex,
        )

    def inverse(self) -> Instruction:
        theta, phi, lam = self.parameters
        return U3(self.qubits, [_negate(theta), _negate(lam), _negate(phi)])

    @staticmethod
    def from_matrix(matrix: np.ndarray, qubit: int) -> "U3":
        """Decompose a 2x2 unitary (up to global phase) into a U3 gate."""
        if matrix.shape != (2, 2):
            raise InvalidGateError("U3.from_matrix expects a 2x2 matrix")
        # Remove global phase so that matrix[0, 0] is real and non-negative.
        det = np.linalg.det(matrix)
        mat = matrix / np.sqrt(det)
        phase = np.angle(mat[0, 0])
        mat = mat * cmath.exp(-1j * phase)
        theta = 2 * math.atan2(abs(mat[1, 0]), abs(mat[0, 0]).real)
        if abs(mat[1, 0]) < 1e-12:
            phi = 0.0
            lam = np.angle(mat[1, 1])
        elif abs(mat[0, 0]) < 1e-12:
            phi = np.angle(mat[1, 0])
            lam = np.angle(-mat[0, 1])
        else:
            phi = np.angle(mat[1, 0])
            lam = np.angle(-mat[0, 1])
        return U3([qubit], [theta, phi, lam])


# ---------------------------------------------------------------------------
# Two-qubit gates.  Convention: qubits = (control, target) where applicable;
# matrix basis order is |q1 q0> with q0 = first listed qubit as LSB.
# ---------------------------------------------------------------------------


def _controlled(single: np.ndarray) -> np.ndarray:
    """Controlled-U with control = first qubit (LSB), target = second qubit.

    Basis order |q1 q0>: states where q0 (control) = 1 are columns/rows
    {1, 3}; the target amplitude block is acted on by ``single``.
    """
    mat = np.eye(4, dtype=complex)
    # |q1=0,q0=1> = index 1, |q1=1,q0=1> = index 3
    mat[np.ix_([1, 3], [1, 3])] = single
    return mat


class CX(Gate):
    """Controlled-X (CNOT); qubits = (control, target)."""

    __slots__ = ()
    num_qubits = 2

    def matrix(self) -> np.ndarray:
        return _controlled(X([0]).matrix())

    def inverse(self) -> Instruction:
        return self.copy()


class CY(Gate):
    """Controlled-Y; qubits = (control, target)."""

    __slots__ = ()
    num_qubits = 2

    def matrix(self) -> np.ndarray:
        return _controlled(Y([0]).matrix())

    def inverse(self) -> Instruction:
        return self.copy()


class CZ(Gate):
    """Controlled-Z; symmetric in its qubits."""

    __slots__ = ()
    num_qubits = 2

    def matrix(self) -> np.ndarray:
        return _controlled(Z([0]).matrix())

    def inverse(self) -> Instruction:
        return self.copy()


class CH(Gate):
    """Controlled-Hadamard; qubits = (control, target)."""

    __slots__ = ()
    num_qubits = 2

    def matrix(self) -> np.ndarray:
        return _controlled(H([0]).matrix())

    def inverse(self) -> Instruction:
        return self.copy()


class CRZ(Gate):
    """Controlled-RZ(theta); qubits = (control, target)."""

    __slots__ = ()
    num_qubits = 2
    num_parameters = 1

    @staticmethod
    def _matrix_of(theta: float) -> np.ndarray:
        return _controlled(RZ._matrix_of(theta))

    def inverse(self) -> Instruction:
        return CRZ(self.qubits, [_negate(self.parameters[0])])


class CPhase(Gate):
    """Controlled phase gate ``diag(1, 1, 1, e^{i theta})``; symmetric."""

    __slots__ = ()
    num_qubits = 2
    num_parameters = 1

    def __init__(self, qubits: Sequence[int], parameters: Sequence[ParameterValue] = ()):
        super().__init__(qubits, parameters)
        self.name = "CPHASE"

    @staticmethod
    def _matrix_of(theta: float) -> np.ndarray:
        mat = np.eye(4, dtype=complex)
        mat[3, 3] = cmath.exp(1j * theta)
        return mat

    def inverse(self) -> Instruction:
        return CPhase(self.qubits, [_negate(self.parameters[0])])


class Swap(Gate):
    """SWAP gate."""

    __slots__ = ()
    num_qubits = 2

    def __init__(self, qubits: Sequence[int], parameters: Sequence[ParameterValue] = ()):
        super().__init__(qubits, parameters)
        self.name = "SWAP"

    def matrix(self) -> np.ndarray:
        return np.array(
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
        )

    def inverse(self) -> Instruction:
        return self.copy()


class ISwap(Gate):
    """iSWAP gate."""

    __slots__ = ()
    num_qubits = 2

    def __init__(self, qubits: Sequence[int], parameters: Sequence[ParameterValue] = ()):
        super().__init__(qubits, parameters)
        self.name = "ISWAP"

    def matrix(self) -> np.ndarray:
        return np.array(
            [[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]], dtype=complex
        )


# ---------------------------------------------------------------------------
# Three-qubit gates
# ---------------------------------------------------------------------------


class CCX(Gate):
    """Toffoli gate; qubits = (control0, control1, target)."""

    __slots__ = ()
    num_qubits = 3

    def matrix(self) -> np.ndarray:
        # Basis order |q2 q1 q0>; controls are q0, q1 (first two listed).
        mat = np.eye(8, dtype=complex)
        # states with q0=1, q1=1: indices 3 (q2=0) and 7 (q2=1)
        mat[np.ix_([3, 7], [3, 7])] = X([0]).matrix()
        return mat

    def inverse(self) -> Instruction:
        return self.copy()


class CSwap(Gate):
    """Fredkin gate; qubits = (control, target0, target1)."""

    __slots__ = ()
    num_qubits = 3

    def __init__(self, qubits: Sequence[int], parameters: Sequence[ParameterValue] = ()):
        super().__init__(qubits, parameters)
        self.name = "CSWAP"

    def matrix(self) -> np.ndarray:
        mat = np.eye(8, dtype=complex)
        # control = q0 (LSB).  Swap q1 and q2 when q0 = 1:
        # |q2 q1 q0> with q0=1: 1(001) 3(011) 5(101) 7(111)
        # swap q1<->q2 exchanges 011 <-> 101, i.e. indices 3 and 5.
        mat[3, 3] = 0
        mat[5, 5] = 0
        mat[3, 5] = 1
        mat[5, 3] = 1
        return mat

    def inverse(self) -> Instruction:
        return self.copy()


# ---------------------------------------------------------------------------
# Matrix-defined gates (used by Shor's modular-arithmetic kernels)
# ---------------------------------------------------------------------------


class UnitaryGate(Instruction):
    """A gate defined directly by a unitary matrix over its qubits."""

    __slots__ = ("_matrix",)
    num_qubits = 0  # variable
    num_parameters = 0

    def __init__(self, matrix: np.ndarray, qubits: Sequence[int], name: str = "UNITARY"):
        matrix = np.asarray(matrix, dtype=complex)
        n = len(tuple(qubits))
        if matrix.shape != (2**n, 2**n):
            raise InvalidGateError(
                f"unitary matrix shape {matrix.shape} does not match {n} qubit(s)"
            )
        if not np.allclose(matrix @ matrix.conj().T, np.eye(2**n), atol=1e-9):
            raise InvalidGateError("matrix supplied to UnitaryGate is not unitary")
        self._matrix = matrix
        super().__init__(name, qubits)

    def _validate(self) -> None:
        if any(q < 0 for q in self.qubits):
            raise InvalidGateError("qubit indices must be non-negative")
        if len(set(self.qubits)) != len(self.qubits):
            raise InvalidGateError("duplicate qubit indices")

    def matrix(self) -> np.ndarray:
        return self._matrix

    def copy(self) -> "UnitaryGate":
        clone = super().copy()
        clone._matrix = self._matrix
        return clone

    def inverse(self) -> Instruction:
        return UnitaryGate(self._matrix.conj().T, self.qubits, name=f"{self.name}_DG")

    def to_xasm(self) -> str:
        args = ", ".join(f"q[{q}]" for q in self.qubits)
        return f"// matrix gate {self.name}({args});"


class PermutationGate(UnitaryGate):
    """A classical reversible permutation of basis states.

    Used to implement the controlled modular-multiplication unitaries in the
    Shor period-finding kernel: the permutation maps basis index ``x`` to
    ``perm[x]`` over the qubits it acts on.
    """

    __slots__ = ("permutation",)

    def __init__(self, permutation: Sequence[int], qubits: Sequence[int], name: str = "PERM"):
        perm = list(int(p) for p in permutation)
        dim = len(perm)
        n = len(tuple(qubits))
        if dim != 2**n:
            raise InvalidGateError(
                f"permutation length {dim} does not match {n} qubit(s)"
            )
        if sorted(perm) != list(range(dim)):
            raise InvalidGateError("permutation must be a bijection over basis states")
        matrix = np.zeros((dim, dim), dtype=complex)
        for src, dst in enumerate(perm):
            matrix[dst, src] = 1.0
        self.permutation = tuple(perm)
        # The 0/1 matrix of a bijection is unitary and has the right shape
        # by the two checks above, so UnitaryGate's M·M† product is skipped.
        self._matrix = matrix
        Instruction.__init__(self, name, qubits)

    def copy(self) -> "PermutationGate":
        clone = super().copy()
        clone.permutation = self.permutation
        return clone


# ---------------------------------------------------------------------------
# Non-unitary instructions
# ---------------------------------------------------------------------------


class Measure(Instruction):
    """Computational-basis measurement of a single qubit."""

    __slots__ = ()
    num_qubits = 1

    def __init__(self, qubits: Sequence[int], parameters: Sequence[ParameterValue] = ()):
        super().__init__("MEASURE", qubits, parameters)

    def inverse(self) -> Instruction:
        raise InvalidGateError("MEASURE is not invertible")


class Reset(Instruction):
    """Reset a qubit to |0>."""

    __slots__ = ()
    num_qubits = 1

    def __init__(self, qubits: Sequence[int], parameters: Sequence[ParameterValue] = ()):
        super().__init__("RESET", qubits, parameters)

    def inverse(self) -> Instruction:
        raise InvalidGateError("RESET is not invertible")


class Barrier(Instruction):
    """Scheduling barrier over an arbitrary set of qubits (no-op in simulation)."""

    __slots__ = ()
    num_qubits = 0  # variable

    def __init__(self, qubits: Sequence[int], parameters: Sequence[ParameterValue] = ()):
        super().__init__("BARRIER", qubits, parameters)

    def _validate(self) -> None:
        if any(q < 0 for q in self.qubits):
            raise InvalidGateError("qubit indices must be non-negative")

    def inverse(self) -> Instruction:
        return self.copy()


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

#: Maps canonical mnemonics and aliases to gate classes.
GATE_REGISTRY: Mapping[str, type] = {
    "I": Identity,
    "ID": Identity,
    "H": H,
    "X": X,
    "NOT": X,
    "Y": Y,
    "Z": Z,
    "S": S,
    "SDG": Sdg,
    "T": T,
    "TDG": Tdg,
    "RX": RX,
    "RY": RY,
    "RZ": RZ,
    "U": U3,
    "U3": U3,
    "CX": CX,
    "CNOT": CX,
    "CY": CY,
    "CZ": CZ,
    "CH": CH,
    "CRZ": CRZ,
    "CPHASE": CPhase,
    "CP": CPhase,
    "SWAP": Swap,
    "ISWAP": ISwap,
    "CCX": CCX,
    "TOFFOLI": CCX,
    "CCNOT": CCX,
    "CSWAP": CSwap,
    "FREDKIN": CSwap,
    "MEASURE": Measure,
    "MZ": Measure,
    "RESET": Reset,
    "BARRIER": Barrier,
}


def create_gate(
    name: str, qubits: Sequence[int], parameters: Sequence[ParameterValue] = ()
) -> Instruction:
    """Instantiate a gate by (case-insensitive) name from the registry.

    Raises :class:`InvalidGateError` for unknown names.
    """
    cls = GATE_REGISTRY.get(str(name).upper())
    if cls is None:
        raise InvalidGateError(f"unknown gate {name!r}")
    return cls(qubits, parameters)


def _negate(value: ParameterValue) -> ParameterValue:
    """Negate a parameter, keeping symbols symbolic."""
    if isinstance(value, (int, float)):
        return -float(value)
    return -value
