"""Measurement sampling into count histograms.

The output format mirrors the paper's Listing 2 (``"00": 513, "11": 511``):
keys are bitstrings whose character ``i`` is the measured value of qubit
``i`` (qubit 0 leftmost), restricted to the measured qubits in ascending
qubit order.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..exceptions import ExecutionError
from .gate_application import _local_index_map

__all__ = ["sample_counts", "counts_from_statevector", "format_bitstring", "sample_chunks"]


def format_bitstring(index: int, qubits: tuple[int, ...]) -> str:
    """Format the basis ``index`` restricted to ``qubits`` (first qubit leftmost)."""
    return "".join("1" if (index >> q) & 1 else "0" for q in qubits)


def _marginal(
    probabilities: np.ndarray, qubits: tuple[int, ...], n_qubits: int
) -> tuple[np.ndarray, np.ndarray]:
    """Marginal onto ``qubits`` (bin bit ``i`` = ``qubits[i]``): the ascending
    bins with positive probability and their unnormalised sums."""
    probabilities = np.asarray(probabilities, dtype=float).reshape(-1)
    if probabilities.size != (1 << n_qubits):
        raise ExecutionError(
            f"probability vector of length {probabilities.size} does not match "
            f"{n_qubits} qubit(s)"
        )
    for qubit in qubits:
        if not 0 <= qubit < n_qubits:
            raise ExecutionError(f"measured qubit {qubit} out of range")
    if qubits == tuple(range(n_qubits)):
        sums = probabilities  # identity index map: one term per bin, exact
    else:
        # Memoised on (size, qubits) and shared with the diagonal gate kernel
        # (trajectory sampling hits this once per shot).
        reduced = _local_index_map(probabilities.size, qubits)
        sums = np.bincount(reduced, weights=probabilities, minlength=1 << len(qubits))
    # Everything but p <= 0: a NaN bin survives to fail the total check.
    bins = np.flatnonzero(~(sums <= 0.0))
    return bins, sums[bins]


def _keyed(bins: np.ndarray, values: np.ndarray, width: int) -> dict:
    """``{bitstring: value}`` per bin; character ``i`` is bit ``i`` of the bin."""
    return {format(b, f"0{width}b")[::-1]: v for b, v in zip(bins.tolist(), values.tolist())}


def sample_chunks(
    probabilities: np.ndarray,
    chunks: Sequence[int],
    measured_qubits: Iterable[int],
    n_qubits: int,
    rngs: Sequence[np.random.Generator],
) -> dict[str, int]:
    """Draw ``chunks[i]`` shots on ``rngs[i]`` and histogram the total: one
    multinomial per chunk over the measured qubits' *marginal*, computed once
    (O(2^n) vectorised); keys are built only for outcomes that were drawn."""
    qubits = tuple(sorted(set(int(q) for q in measured_qubits)))
    if not qubits:
        raise ExecutionError("at least one qubit must be measured")
    bins, probs = _marginal(probabilities, qubits, n_qubits)
    # Float drift can push |amplitude|^2 a few ulp below 0 (dropped with the
    # zero bins) or the total away from 1; multinomial rejects even one-ulp
    # violations, so renormalise unconditionally.
    total = probs.sum()
    if total <= 0.0 or not np.isfinite(total):
        raise ExecutionError(f"probability vector sums to {total}, cannot sample")
    probs = probs / total
    # Division can still leave sum(probs[:-1]) > 1 by an ulp; let the last
    # bin absorb the residual exactly.
    probs[-1] = max(0.0, 1.0 - probs[:-1].sum())
    draws = sum(rng.multinomial(shots, probs) for shots, rng in zip(chunks, rngs))
    hit = np.flatnonzero(draws)
    return _keyed(bins[hit], draws[hit], len(qubits))


def sample_counts(
    probabilities: np.ndarray,
    shots: int,
    measured_qubits: Iterable[int],
    n_qubits: int,
    rng: np.random.Generator | None = None,
) -> dict[str, int]:
    """Draw ``shots`` samples from ``probabilities`` and histogram them."""
    if shots <= 0:
        raise ExecutionError(f"shots must be positive, got {shots}")
    rngs = (rng or np.random.default_rng(),)
    return sample_chunks(probabilities, (shots,), measured_qubits, n_qubits, rngs)


def counts_from_statevector(
    state, shots: int, measured_qubits: Iterable[int] | None = None, rng=None
) -> dict[str, int]:
    """Convenience wrapper sampling directly from a :class:`StateVector`."""
    qubits = (
        tuple(measured_qubits) if measured_qubits is not None else tuple(range(state.n_qubits))
    )
    return sample_counts(state.probabilities(), shots, qubits, state.n_qubits, rng)
