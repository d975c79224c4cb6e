"""Reference sampler: the dict-building implementation the sparse sampler replaced.

Kept as the oracle :mod:`repro.simulator.sampling` is tested against — it
formats a bitstring key for every one of the 2^k marginal bins before
drawing, and draws inverse-CDF shots with a Python running sum and
``bisect``, so it is O(2^k) Python and only fit for tests.  The production
sampler must reproduce its fixed-seed histograms exactly, at
:data:`~repro.simulator.sampling.SAMPLING_STREAM` 4 (bins at or below
:data:`~repro.simulator.sampling.SUPPORT_FLOOR` are not in the support, and
a job's whole shot budget is one draw on one generator, so one call here is
one job).
"""

from __future__ import annotations

import bisect
from typing import Iterable

import numpy as np

from ..exceptions import ExecutionError
from ..simulator.sampling import INVERSE_CDF_MIN_BINS, SUPPORT_FLOOR

__all__ = ["reference_marginal_probabilities", "reference_sample_counts"]


def reference_marginal_probabilities(
    probabilities: np.ndarray, qubits: tuple[int, ...], n_qubits: int
) -> dict[str, float]:
    """Marginalise a full probability vector onto ``qubits``.

    Vectorised: builds the reduced index for every basis state at once and
    accumulates with ``np.bincount``.
    """
    probabilities = np.asarray(probabilities, dtype=float).reshape(-1)
    if probabilities.size != (1 << n_qubits):
        raise ExecutionError(
            f"probability vector of length {probabilities.size} does not match "
            f"{n_qubits} qubit(s)"
        )
    for qubit in qubits:
        if not 0 <= qubit < n_qubits:
            raise ExecutionError(f"measured qubit {qubit} out of range")
    # The reduced-index map only depends on (size, qubits); share the memoised
    # map used by the diagonal gate kernel instead of rebuilding two full
    # 2^n arrays per call (trajectory sampling hits this once per shot).
    from ..simulator.gate_application import _local_index_map

    reduced = _local_index_map(probabilities.size, tuple(qubits))
    sums = np.bincount(reduced, weights=probabilities, minlength=1 << len(qubits))
    result: dict[str, float] = {}
    for local_index, p in enumerate(sums):
        if p <= SUPPORT_FLOOR:
            continue
        bits = "".join("1" if (local_index >> i) & 1 else "0" for i in range(len(qubits)))
        result[bits] = float(p)
    return result


def reference_sample_counts(
    probabilities: np.ndarray,
    shots: int,
    measured_qubits: Iterable[int],
    n_qubits: int,
    rng: np.random.Generator | None = None,
) -> dict[str, int]:
    """Draw ``shots`` samples from ``probabilities`` and histogram them.

    Sampling is done over the *marginal* distribution of the measured qubits:
    with fewer shots than positive bins (and at least
    ``INVERSE_CDF_MIN_BINS`` of them) each shot is one ``rng.random()``
    scaled by the running total and bisected into the running sums; else
    one multinomial draw.
    """
    if shots <= 0:
        raise ExecutionError(f"shots must be positive, got {shots}")
    qubits = tuple(sorted(set(int(q) for q in measured_qubits)))
    if not qubits:
        raise ExecutionError("at least one qubit must be measured")
    rng = rng or np.random.default_rng()
    marginals = reference_marginal_probabilities(probabilities, qubits, n_qubits)
    keys = list(marginals.keys())
    probs = np.array([marginals[k] for k in keys], dtype=float)
    # Float drift can push |amplitude|^2 a few ulp outside [0, 1] (or the
    # total away from 1 after long gate sequences); multinomial rejects even
    # one-ulp violations, so clip and renormalise unconditionally.
    probs = np.clip(probs, 0.0, None)
    total = probs.sum()
    if total <= 0.0 or not np.isfinite(total):
        raise ExecutionError(f"probability vector sums to {total}, cannot sample")
    if shots < len(keys) and len(keys) >= INVERSE_CDF_MIN_BINS:
        running, cdf = 0.0, []
        for p in probs.tolist():
            running += p
            cdf.append(running)
        hits = [0] * len(keys)
        for u in rng.random(shots).tolist():
            hits[bisect.bisect_right(cdf, u * running)] += 1
        return {key: count for key, count in zip(keys, hits) if count > 0}
    probs = probs / total
    # Division can still leave sum(probs[:-1]) > 1 by an ulp; let the last
    # bin absorb the residual exactly.
    probs[-1] = max(0.0, 1.0 - probs[:-1].sum())
    draws = rng.multinomial(shots, probs)
    return {key: int(count) for key, count in zip(keys, draws) if count > 0}
