"""Output checks, run outside the timed region.

Every result's histogram must sum to its shot count (the clients check that
as they consume results).  The deep checks here run on the stratified
sample each block sets aside: exact probabilities come from the gate-by-gate
reference ``StateVector.apply_circuit`` — a different code path from the
compiled plans the program executes.
"""

from __future__ import annotations

import math

import numpy as np

from repro import QuantumJobService
from repro.exec import LocalBackend
from repro.simulator.plan_cache import PlanCache
from repro.simulator.statevector import StateVector

#: Widest register the dense reference evolves; wider jobs (the Clifford
#: ones) are checked by support only.
MAX_REFERENCE_QUBITS = 20
#: Marginal the total-variation check is taken over (first measured qubits):
#: 2**4 = 16 bins stay well populated at every shot count the workloads use.
TV_QUBITS = 4
#: An observed bitstring needs at least this exact probability.
SUPPORT_FLOOR = 1e-12
GRADIENT_TOLERANCE = 1e-6
FINITE_DIFFERENCE_STEP = 1e-4


def tv_bound(shots: int, bins: int) -> float:
    """Total-variation distance a correct ``shots``-sample may reach.

    ``sqrt(bins / (2 pi shots))`` bounds the expected distance of an
    empirical distribution from its source; by McDiarmid's inequality the
    distance exceeds its mean by ``sqrt(10 / shots)`` with probability at
    most ``exp(-20)`` — about two in a billion checks.
    """
    return math.sqrt(bins / (2.0 * math.pi * shots)) + math.sqrt(10.0 / shots)


def exact_probabilities(circuit) -> np.ndarray:
    """Exact distribution over the measured qubits, from the gate-by-gate
    reference.  Entry ``k`` is the outcome whose bit ``i`` is the value of
    the ``i``-th measured qubit in ascending order (a histogram key read
    left to right)."""
    state = StateVector(circuit.n_qubits)
    state.apply_circuit(circuit.without_measurements())
    full = state.probabilities()
    measured = sorted(circuit.measured_qubits()) or list(range(circuit.n_qubits))
    basis = np.arange(full.size)
    reduced = np.zeros(full.size, dtype=np.int64)
    for position, qubit in enumerate(measured):
        reduced |= ((basis >> qubit) & 1) << position
    return np.bincount(reduced, weights=full, minlength=1 << len(measured))


def _index(bitstring: str) -> int:
    """Outcome index of a histogram key (character ``i`` is bit ``i``)."""
    return sum(1 << position for position, bit in enumerate(bitstring) if bit == "1")


def check_counts(job, counts) -> list[str]:
    """Problems with one histogram; an empty list means it passed."""
    problems = []
    total = sum(counts.values())
    if total != job.shots:
        problems.append(f"{job.kind}: {total} counts for {job.shots} shots")
    if job.support is not None:
        stray = sorted(set(counts) - set(job.support))
        if stray:
            problems.append(f"{job.kind}: outcomes outside the exact support: {stray[:3]}")
    circuit = job.reference if job.reference is not None else job.circuit
    if circuit.n_qubits > MAX_REFERENCE_QUBITS:
        return problems
    exact = exact_probabilities(circuit)
    impossible = [b for b in counts if exact[_index(b)] < SUPPORT_FLOOR]
    if impossible:
        problems.append(f"{job.kind}: outcomes of zero exact probability: {impossible[:3]}")
    bins = min(1 << TV_QUBITS, exact.size)
    marginal = np.bincount(np.arange(exact.size) % bins, weights=exact, minlength=bins)
    observed = np.zeros(bins)
    for bitstring, count in counts.items():
        observed[_index(bitstring) % bins] += count
    distance = 0.5 * float(np.abs(observed / max(total, 1) - marginal).sum())
    if distance > tv_bound(job.shots, bins):
        problems.append(
            f"{job.kind}: total-variation distance {distance:.3f} exceeds "
            f"{tv_bound(job.shots, bins):.3f} at {job.shots} shots"
        )
    return problems


def check_sweep_row(job, counts) -> list[str]:
    """A sweep row must equal the bound circuit submitted alone, bit for bit."""
    with QuantumJobService(workers=1, name="e2e-oracle") as service:
        alone = dict(service.submit(job.circuit, shots=job.shots).result(timeout=120).counts)
    if alone != counts:
        return [f"{job.kind}: sweep row differs from the bound circuit submitted alone"]
    return []


def check_gradient(job, payload) -> list[str]:
    """The parameter-shift gradient must match central differences."""
    backend = LocalBackend(plan_cache=PlanCache())
    theta, observable = payload["theta"], payload["observable"]
    try:
        points = []
        for index in range(theta.size):
            for sign in (+1.0, -1.0):
                shifted = theta.copy()
                shifted[index] += sign * FINITE_DIFFERENCE_STEP
                points.append([float(v) for v in shifted])
        values = backend.expectation_sweep(job.circuit, observable, points)
    finally:
        backend.close()
    central = (np.array(values[0::2]) - np.array(values[1::2])) / (2 * FINITE_DIFFERENCE_STEP)
    error = float(np.max(np.abs(central - payload["gradient"])))
    if error > GRADIENT_TOLERANCE:
        return [f"gradient: off central differences by {error:.2e}"]
    return []


def check_sample(job, payload) -> list[str]:
    """Deep-check one (job, payload) pair a block set aside."""
    if job.kind == "gradient":
        return check_gradient(job, payload)
    problems = check_counts(job, payload)
    if job.kind == "sweep_row":
        problems += check_sweep_row(job, payload)
    return problems
