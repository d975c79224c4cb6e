"""Compiled Pauli observables: exact expectations in one pass per flip mask.

A Pauli product ``P`` maps a basis state ``|x>`` to
``i^ny (-1)^{|x & zy|} |x ^ m>``, where the *flip mask* ``m`` holds its X/Y
qubits, ``zy`` its Z/Y qubits and ``ny`` counts its Ys.  Hence::

    <psi|P|psi> = sum_x conj(psi[x ^ m]) psi[x] i^ny (-1)^{|x & zy|}
    tr(rho P)   = sum_x rho[x, x ^ m]           i^ny (-1)^{|x & zy|}

:func:`compile_observable` groups an operator's terms by flip mask once:

* every Z-only term (``m = 0``) folds into one real diagonal ``w``, so they
  all cost a single ``dot(|psi|^2, w)``;
* each distinct non-zero mask becomes one group with weights
  ``W_m(x) = sum_k Re(c_k) i^ny_k (-1)^{|x & zy_k|}``, a tensor that
  broadcasts against the ``(2,)*n`` view of the state and spans only the
  group's Z/Y qubits.  ``psi[x ^ m]`` is an axis-flip view of that reshape,
  so a group is one pass over the state with no index table.

Because ``W_m(x ^ m) = conj(W_m(x))`` for real coefficients, the terms at
``x`` and ``x ^ m`` are complex conjugates and a group sums only the half of
the state whose highest flipped qubit is 0, doubling the real part.

The result is ``sum_k Re(c_k) <P_k>`` plus the identity term's real part —
the same semantics as measuring each term in its rotated basis.
:meth:`CompiledObservable.apply` forms ``H|psi>`` for that same ``H`` from
the same groups (the adjoint gradient's starting state).  Compiled
forms are immutable and memoised per (exact content, width) in this process;
they never travel with a pickled observable.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..exceptions import ExecutionError
from .pauli import PauliOperator, PauliTerm

__all__ = ["CompiledObservable", "compile_observable"]

#: ``i^ny`` for ``ny mod 4``.
_PHASES = (1.0, 1j, -1.0, -1j)


def _sign_tensor(axes: list[int], n_qubits: int) -> np.ndarray:
    """``(-1)^{|x & zy|}`` as a tensor with extent 2 on ``axes`` and 1 elsewhere."""
    sign = np.ones((1,) * n_qubits)
    for axis in axes:
        shape = [1] * n_qubits
        shape[axis] = 2
        sign = sign * np.array([1.0, -1.0]).reshape(shape)
    return sign


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class CompiledObservable:
    """An observable grouped by flip mask for one register width.

    Holds at most one real state-sized vector (the Z-only diagonal) plus,
    per flip mask, its index views and a weight tensor over that group's
    Z/Y qubits.  Immutable once built, so threads share it freely.
    """

    __slots__ = ("n_qubits", "constant", "diagonal", "groups")

    def __init__(self, content: tuple, n_qubits: int):
        n = n_qubits
        self.n_qubits = n
        self.constant = 0.0
        diagonal = None
        by_mask: dict[int, np.ndarray] = {}
        for paulis, coefficient in content:
            if not paulis:
                self.constant += coefficient.real
                continue
            if not 0 <= paulis[0][0] <= paulis[-1][0] < n:
                raise ExecutionError(
                    f"observable acts on qubits {[q for q, _ in paulis]} but the "
                    f"state has only {n} qubit(s)"
                )
            # Axis n-1-q of the (2,)*n view is qubit q (little-endian index).
            mask = sum(1 << q for q, label in paulis if label != "Z")
            zy = [n - 1 - q for q, label in paulis if label != "X"]
            ny = sum(label == "Y" for _, label in paulis)
            term = coefficient.real * _PHASES[ny % 4] * _sign_tensor(zy, n)
            if mask == 0:
                diagonal = term.real if diagonal is None else diagonal + term.real
            else:
                by_mask[mask] = by_mask[mask] + term if mask in by_mask else term
        self.diagonal = (
            None if diagonal is None
            else _frozen(np.broadcast_to(diagonal, (2,) * n).reshape(-1).copy())
        )
        groups = []
        for mask, weights in by_mask.items():
            if not np.any(weights.imag):
                weights = weights.real
            flipped = [n - 1 - q for q in range(n) if mask >> q & 1]
            # The highest flipped qubit is the lowest flipped axis.
            pivot = flipped[-1]
            lower = tuple(0 if axis == pivot else slice(None) for axis in range(n))
            upper = tuple(
                1 if axis == pivot else slice(None, None, -1) if axis in flipped
                else slice(None)
                for axis in range(n)
            )
            flip = tuple(
                slice(None, None, -1) if axis in flipped else slice(None)
                for axis in range(n)
            )
            half = weights[lower]
            half = half.item() if half.size == 1 else _frozen(half)
            groups.append((mask, lower, upper, half, _frozen(weights), flip))
        self.groups = tuple(groups)

    def expectation(self, amplitudes: np.ndarray) -> float:
        """``<psi|H|psi>`` for a flat state vector of this width."""
        psi = amplitudes.reshape((2,) * self.n_qubits)
        total = self.constant
        if self.diagonal is not None:
            flat = amplitudes.reshape(-1)
            total += np.vdot(flat, flat * self.diagonal).real
        for _, lower, upper, half, _, _ in self.groups:
            if isinstance(half, np.ndarray):
                total += 2.0 * np.vdot(psi[upper], psi[lower] * half).real
            else:
                total += 2.0 * (half * np.vdot(psi[upper], psi[lower])).real
        return float(total)

    def apply(self, amplitudes: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``H|psi>`` as a flat array: into ``out`` (which must not alias
        ``amplitudes``) when given, else a new one.

        ``(P_m psi)[y] = W_m(y ^ m) psi[y ^ m]``, so each flip-mask group is
        one weighted product read back through its axis-flip view.
        """
        flat = amplitudes.reshape(-1)
        if out is None:
            out = np.empty_like(flat)
        if self.diagonal is None:
            np.multiply(flat, self.constant, out=out)
        else:
            np.multiply(flat, self.diagonal, out=out)
            if self.constant:
                out += self.constant * flat
        shape = (2,) * self.n_qubits
        psi, target = flat.reshape(shape), out.reshape(shape)
        for _, _, _, _, weights, flip in self.groups:
            target += (psi * weights)[flip]
        return out

    def density_expectation(self, rho: np.ndarray) -> float:
        """``tr(rho H)`` for a ``2^n x 2^n`` density matrix of this width."""
        total = self.constant
        if self.diagonal is not None:
            total += float(np.dot(np.diagonal(rho).real, self.diagonal))
        index = np.arange(rho.shape[0])
        shape = (2,) * self.n_qubits
        for mask, _, _, _, weights, _ in self.groups:
            total += np.sum(rho[index, index ^ mask].reshape(shape) * weights).real
        return float(total)


@lru_cache(maxsize=16)
def _compile(content: tuple, n_qubits: int) -> CompiledObservable:
    # Two threads missing on one key may both build; each result is an
    # equal, immutable object, so whichever the cache keeps is correct.
    return CompiledObservable(content, n_qubits)


def compile_observable(observable, n_qubits: int) -> CompiledObservable:
    """The memoised :class:`CompiledObservable` of ``observable`` at ``n_qubits``.

    The memo key is the exact term content (Pauli strings and coefficients
    compared bit for bit), never the tolerant ``PauliOperator.__eq__``.
    """
    if isinstance(observable, PauliTerm):
        terms = (observable,)
    elif isinstance(observable, PauliOperator):
        terms = observable.terms
    else:
        raise ExecutionError(
            f"expected a PauliOperator/PauliTerm, got {type(observable).__name__}"
        )
    content = tuple((tuple(t.paulis.items()), t.coefficient) for t in terms)
    return _compile(content, int(n_qubits))
