"""Pauli terms and weighted Pauli-sum operators.

A :class:`PauliTerm` is ``coefficient * P_{q0} P_{q1} ...`` where each ``P``
is X, Y or Z acting on a distinct qubit; a :class:`PauliOperator` is a sum of
terms.  Multiplication uses the single-qubit Pauli group algebra (tracking
the ±1, ±i phases), so arbitrary products of the factory operators
:func:`X`, :func:`Y`, :func:`Z` and scalars compose correctly.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from ..exceptions import IRError
from ..ir.composite import CompositeInstruction
from ..ir.gates import H as HGate
from ..ir.gates import RX as RXGate

__all__ = ["PauliTerm", "PauliOperator", "I", "X", "Y", "Z"]

_PAULI_LABELS = ("I", "X", "Y", "Z")

#: Single-qubit Pauli multiplication table: (a, b) -> (phase, result).
_MULTIPLICATION: dict[tuple[str, str], tuple[complex, str]] = {
    ("I", "I"): (1, "I"),
    ("I", "X"): (1, "X"),
    ("I", "Y"): (1, "Y"),
    ("I", "Z"): (1, "Z"),
    ("X", "I"): (1, "X"),
    ("Y", "I"): (1, "Y"),
    ("Z", "I"): (1, "Z"),
    ("X", "X"): (1, "I"),
    ("Y", "Y"): (1, "I"),
    ("Z", "Z"): (1, "I"),
    ("X", "Y"): (1j, "Z"),
    ("Y", "X"): (-1j, "Z"),
    ("Y", "Z"): (1j, "X"),
    ("Z", "Y"): (-1j, "X"),
    ("Z", "X"): (1j, "Y"),
    ("X", "Z"): (-1j, "Y"),
}

_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


class PauliTerm:
    """A single weighted Pauli product, e.g. ``-2.1433 * X0 X1``."""

    __slots__ = ("paulis", "coefficient")

    def __init__(self, paulis: Mapping[int, str] | None = None, coefficient: complex = 1.0):
        cleaned: dict[int, str] = {}
        for qubit, label in (paulis or {}).items():
            label = str(label).upper()
            if label not in _PAULI_LABELS:
                raise IRError(f"invalid Pauli label {label!r}")
            if label != "I":
                cleaned[int(qubit)] = label
        self.paulis: dict[int, str] = dict(sorted(cleaned.items()))
        self.coefficient = complex(coefficient)

    # -- structure -----------------------------------------------------------
    @property
    def is_identity(self) -> bool:
        return not self.paulis

    @property
    def qubits(self) -> tuple[int, ...]:
        return tuple(self.paulis.keys())

    @property
    def pauli_string(self) -> str:
        """Canonical text form like ``"X0 Y3"`` (``"I"`` for the identity)."""
        if self.is_identity:
            return "I"
        return " ".join(f"{label}{qubit}" for qubit, label in self.paulis.items())

    def weight(self) -> int:
        """Number of non-identity factors."""
        return len(self.paulis)

    def copy(self, coefficient: complex | None = None) -> "PauliTerm":
        return PauliTerm(dict(self.paulis), self.coefficient if coefficient is None else coefficient)

    # -- algebra ----------------------------------------------------------------
    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self.copy(self.coefficient * other)
        if isinstance(other, PauliTerm):
            phase = 1.0 + 0.0j
            result: dict[int, str] = dict(self.paulis)
            for qubit, label in other.paulis.items():
                left = result.get(qubit, "I")
                factor, product = _MULTIPLICATION[(left, label)]
                phase *= factor
                if product == "I":
                    result.pop(qubit, None)
                else:
                    result[qubit] = product
            return PauliTerm(result, self.coefficient * other.coefficient * phase)
        if isinstance(other, PauliOperator):
            return PauliOperator([self]) * other
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self.copy(self.coefficient * other)
        return NotImplemented

    def __neg__(self) -> "PauliTerm":
        return self.copy(-self.coefficient)

    def __add__(self, other):
        return PauliOperator([self]) + other

    def __radd__(self, other):
        return PauliOperator([self]) + other

    def __sub__(self, other):
        return PauliOperator([self]) - other

    def __rsub__(self, other):
        return (-self) + other

    # -- numerical forms -----------------------------------------------------------
    def to_matrix(self, n_qubits: int | None = None) -> np.ndarray:
        """Dense matrix over ``n_qubits`` (little-endian qubit ordering)."""
        n = n_qubits if n_qubits is not None else (max(self.paulis, default=-1) + 1)
        n = max(n, 1)
        if max(self.paulis, default=-1) >= n:
            raise IRError(
                f"term acts on qubit {max(self.paulis)} but n_qubits={n}"
            )
        if n > 14:
            raise IRError("to_matrix is limited to 14 qubits")
        # Build with Kronecker products; qubit 0 is the least significant
        # factor, so it appears last in the kron chain.
        matrix = np.array([[1.0 + 0.0j]])
        for qubit in range(n - 1, -1, -1):
            matrix = np.kron(matrix, _MATRICES[self.paulis.get(qubit, "I")])
        return self.coefficient * matrix

    def basis_rotation_circuit(self, n_qubits: int) -> CompositeInstruction:
        """Circuit rotating each factor's basis so Z-measurement reads it out.

        X factors get an ``H``; Y factors get ``RX(pi/2)`` (rotating Y into
        Z); Z factors need nothing.
        """
        circuit = CompositeInstruction(f"rot_{self.pauli_string}", n_qubits)
        for qubit, label in self.paulis.items():
            if label == "X":
                circuit.add(HGate([qubit]))
            elif label == "Y":
                circuit.add(RXGate([qubit], [np.pi / 2]))
        return circuit

    def commutes_with(self, other: "PauliTerm") -> bool:
        """True when the two Pauli products commute (global commutation)."""
        anticommuting = 0
        for qubit, label in self.paulis.items():
            other_label = other.paulis.get(qubit, "I")
            if other_label != "I" and other_label != label:
                anticommuting += 1
        return anticommuting % 2 == 0

    def qubit_wise_commutes_with(self, other: "PauliTerm") -> bool:
        """True when the factors agree on every shared qubit (QWC grouping)."""
        for qubit, label in self.paulis.items():
            other_label = other.paulis.get(qubit, "I")
            if other_label not in ("I", label):
                return False
        return True

    # -- comparison / display ----------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PauliTerm)
            and self.paulis == other.paulis
            and np.isclose(self.coefficient, other.coefficient)
        )

    def __hash__(self) -> int:
        # Equality compares coefficients with a tolerance, so only the Pauli
        # structure may enter the hash.
        return hash(tuple(self.paulis.items()))

    def __repr__(self) -> str:
        coeff = self.coefficient
        coeff_str = f"{coeff.real:g}" if abs(coeff.imag) < 1e-12 else f"({coeff:g})"
        return f"{coeff_str}*{self.pauli_string}" if not self.is_identity else f"{coeff_str}*I"


class PauliOperator:
    """A weighted sum of :class:`PauliTerm` objects (a qubit Hamiltonian)."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable[PauliTerm] = ()):
        combined: dict[tuple[tuple[int, str], ...], PauliTerm] = {}
        for term in terms:
            key = tuple(term.paulis.items())
            if key in combined:
                existing = combined[key]
                combined[key] = existing.copy(existing.coefficient + term.coefficient)
            else:
                combined[key] = term.copy()
        self._terms: tuple[PauliTerm, ...] = tuple(
            t for t in combined.values() if abs(t.coefficient) > 1e-14
        )

    # -- structure -------------------------------------------------------------------
    @property
    def terms(self) -> tuple[PauliTerm, ...]:
        return self._terms

    @property
    def n_terms(self) -> int:
        return len(self._terms)

    @property
    def n_qubits(self) -> int:
        """1 + highest qubit index appearing in any term (0 for pure scalars)."""
        highest = -1
        for term in self._terms:
            highest = max(highest, max(term.paulis, default=-1))
        return highest + 1

    @property
    def constant(self) -> complex:
        """Coefficient of the identity term."""
        for term in self._terms:
            if term.is_identity:
                return term.coefficient
        return 0.0 + 0.0j

    def non_identity_terms(self) -> tuple[PauliTerm, ...]:
        return tuple(t for t in self._terms if not t.is_identity)

    # -- algebra ------------------------------------------------------------------------
    def __add__(self, other):
        if isinstance(other, (int, float, complex)):
            other = PauliOperator([PauliTerm({}, other)])
        elif isinstance(other, PauliTerm):
            other = PauliOperator([other])
        if not isinstance(other, PauliOperator):
            return NotImplemented
        return PauliOperator(list(self._terms) + list(other._terms))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, float, complex)):
            return self + (-other)
        if isinstance(other, (PauliTerm, PauliOperator)):
            return self + (-1.0 * other if isinstance(other, PauliOperator) else -other)
        return NotImplemented

    def __rsub__(self, other):
        return (-1.0 * self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return PauliOperator([t.copy(t.coefficient * other) for t in self._terms])
        if isinstance(other, PauliTerm):
            other = PauliOperator([other])
        if not isinstance(other, PauliOperator):
            return NotImplemented
        products = []
        for left in self._terms:
            for right in other._terms:
                products.append(left * right)
        return PauliOperator(products)

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self * other
        return NotImplemented

    def __neg__(self) -> "PauliOperator":
        return self * -1.0

    # -- numerical forms -------------------------------------------------------------------
    def to_matrix(self, n_qubits: int | None = None) -> np.ndarray:
        n = n_qubits if n_qubits is not None else max(self.n_qubits, 1)
        total = np.zeros((1 << n, 1 << n), dtype=complex)
        for term in self._terms:
            total += term.to_matrix(n)
        return total

    def ground_state_energy(self, n_qubits: int | None = None) -> float:
        """Exact minimum eigenvalue (for verification on small Hamiltonians)."""
        matrix = self.to_matrix(n_qubits)
        return float(np.min(np.linalg.eigvalsh(matrix)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PauliOperator):
            return NotImplemented
        mine = {tuple(t.paulis.items()): t.coefficient for t in self._terms}
        theirs = {tuple(t.paulis.items()): t.coefficient for t in other._terms}
        if set(mine) != set(theirs):
            return False
        return all(np.isclose(mine[k], theirs[k]) for k in mine)

    def __hash__(self) -> int:
        # Structure only, as for PauliTerm: equality is tolerant on coefficients.
        return hash(frozenset(tuple(t.paulis.items()) for t in self._terms))

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        return " + ".join(repr(t) for t in self._terms)


# ---------------------------------------------------------------------------
# Factory functions (the QCOR-style X(0), Y(1), Z(2) surface)
# ---------------------------------------------------------------------------


def I(qubit: int = 0) -> PauliTerm:  # noqa: E743 - mirrors the QCOR API name
    """Identity term (the qubit argument is accepted for API symmetry)."""
    return PauliTerm({}, 1.0)


def X(qubit: int) -> PauliTerm:
    """Pauli X acting on ``qubit``."""
    return PauliTerm({qubit: "X"}, 1.0)


def Y(qubit: int) -> PauliTerm:
    """Pauli Y acting on ``qubit``."""
    return PauliTerm({qubit: "Y"}, 1.0)


def Z(qubit: int) -> PauliTerm:
    """Pauli Z acting on ``qubit``."""
    return PauliTerm({qubit: "Z"}, 1.0)
