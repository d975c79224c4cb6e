"""Adjoint-method gradients: every ``dE/dθ`` from one backward pass.

For ``E(θ) = <ψ|H|ψ>`` with ``|ψ> = U_N ... U_1 |0>``, the adjoint method
(Jones & Gacon, *Efficient calculation of gradients in classical
simulations of variational quantum algorithms*, 2020) starts from the
forward state ``ψ`` and ``λ = H|ψ>`` and walks the gates backwards,
un-applying each one on both.  Just after a rotation
``U(θ) = exp(-i θ G / 2)`` with ``G`` = X, Y or Z,
``dE/dθ = 2 Re <λ|∂U ψ_before> = Im <λ|G|ψ>``: one inner product per
parameter, where the parameter-shift rule replays the circuit twice.

The two agree exactly only where parameter-shift with ``s = π/2`` is exact:
every free parameter enters one RX / RY / RZ, bare (no ``2*t``).
:func:`adjoint_refusal` says why a circuit falls outside that; such
circuits keep the parameter-shift sweep.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from ..ir.composite import CompositeInstruction
from ..ir.gates import RX, RY, RZ
from ..ir.parameter import Parameter

__all__ = ["adjoint_gradient", "adjoint_refusal"]

#: The rotations the backward pass differentiates, by IR name.
_ROTATIONS = {"RX": RX, "RY": RY, "RZ": RZ}


def adjoint_refusal(circuit: CompositeInstruction) -> str | None:
    """Why the adjoint method cannot differentiate ``circuit`` (``None``: it can)."""
    return circuit.memoised("adjoint_refusal", lambda: _refusal(circuit))


def _refusal(circuit: CompositeInstruction) -> str | None:
    if not circuit.is_parameterized:
        return "no free parameters"
    seen: set[str] = set()
    for inst in circuit:
        if inst.name == "RESET":
            return "reset"
        if not inst.is_parameterized:
            continue
        if inst.name not in _ROTATIONS:
            return f"parameter in {inst.name}"
        (theta,) = inst.parameters
        if not isinstance(theta, Parameter):
            return "parameter expression"
        if theta.name in seen:
            return "repeated parameter"
        seen.add(theta.name)
    return None


def adjoint_gradient(
    circuit: CompositeInstruction,
    values: Mapping[str, float],
    names: Sequence[str],
    psi: np.ndarray,
    lam: np.ndarray,
) -> np.ndarray:
    """``dE/dθ`` for each of ``names``, from the forward state ``psi`` and
    ``lam = H psi`` of ``circuit`` bound to ``values``.

    ``circuit`` must pass :func:`adjoint_refusal`.  Both states are copied
    into one ``(2, 2^n)`` array, so every gate is un-applied on both by one
    kernel call.
    """
    n_qubits = psi.size.bit_length() - 1
    program = circuit.memoised(
        f"adjoint_program_{n_qubits}", lambda: _backward_program(circuit, n_qubits)
    )
    index = {name: i for i, name in enumerate(names)}
    grad = np.zeros(len(names))
    pair = np.stack((psi, lam))
    tensor = pair.reshape((2,) * (n_qubits + 1))
    for rotation, payload, qubit, order in program:
        if rotation is None:
            matrix = payload
        else:
            grad[index[payload]] = _generator_overlap(rotation, pair, qubit)
            if order is None:
                break
            matrix = _ROTATIONS[rotation]._matrix_of(-values[payload])
        moved = tensor.transpose(order)
        k = matrix.shape[0]
        moved[...] = (matrix @ moved.reshape(k, -1)).reshape(moved.shape)
    return grad


def _backward_program(circuit: CompositeInstruction, n_qubits: int) -> list[tuple]:
    """The backward pass as ``(rotation, payload, qubit, order)`` steps, last
    gate first, ending at the first rotation (the gates before it never reach
    an inner product, and it is not un-applied: ``order`` is ``None``).

    A rotation's payload is its parameter's name; any other gate's is its
    adjoint matrix.  ``order`` transposes the ``(2,) * (n + 1)`` view of
    both states so the gate's qubits lead, its first qubit last (the
    matrix's least significant bit); axis 0 stacks the states, so qubit
    ``q`` is axis ``n - q``.
    """
    gates = [inst for inst in circuit if inst.is_unitary]
    first = next(i for i, inst in enumerate(gates) if inst.is_parameterized)
    program = []
    for inst in reversed(gates[first:]):
        leading = [n_qubits - q for q in reversed(inst.qubits)]
        order = tuple(leading + [a for a in range(n_qubits + 1) if a not in leading])
        if inst.is_parameterized:
            program.append((inst.name, inst.parameters[0].name, inst.qubits[0], order))
        else:
            program.append((None, inst.matrix().conj().T, inst.qubits[0], order))
    rotation, name, qubit, _ = program[-1]
    program[-1] = (rotation, name, qubit, None)
    return program


def _generator_overlap(name: str, pair: np.ndarray, qubit: int) -> float:
    """``Im <λ|G|ψ>`` for the rotation's generator ``G`` on ``qubit``."""
    view = pair.reshape(2, -1, 2, 1 << qubit)
    psi0, psi1 = view[0, :, 0], view[0, :, 1]
    lam0, lam1 = view[1, :, 0], view[1, :, 1]
    if name == "RZ":
        return float((np.vdot(lam0, psi0) - np.vdot(lam1, psi1)).imag)
    if name == "RX":
        return float((np.vdot(lam0, psi1) + np.vdot(lam1, psi0)).imag)
    # Y = [[0, -i], [i, 0]]: Im(i w) = Re(w).
    return float((np.vdot(lam1, psi0) - np.vdot(lam0, psi1)).real)
