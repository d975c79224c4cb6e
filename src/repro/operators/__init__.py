"""Pauli-operator algebra and expectation-value estimation.

QCOR builds Hamiltonians with expressions like::

    H = 5.907 - 2.1433 * X(0) * X(1) - 2.1433 * Y(0) * Y(1) + 0.21829 * Z(0) - 6.125 * Z(1)

This subpackage provides the same surface: :func:`X`, :func:`Y`, :func:`Z`
return single-qubit Pauli operators supporting ``*``, ``+``, ``-`` with each
other and with scalars, producing a :class:`PauliOperator` (a weighted sum of
:class:`PauliTerm` products).  Expectation values can be computed exactly
from a state vector or estimated from measurement counts.
"""

from .pauli import I, PauliOperator, PauliTerm, X, Y, Z
from .expectation import (
    expectation_from_counts,
    measurement_circuits,
    estimate_expectation,
)

__all__ = [
    "I",
    "X",
    "Y",
    "Z",
    "PauliTerm",
    "PauliOperator",
    "expectation_from_counts",
    "measurement_circuits",
    "estimate_expectation",
]
