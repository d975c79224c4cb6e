"""Measurement sampling into count histograms.

The output format mirrors the paper's Listing 2 (``"00": 513, "11": 511``):
keys are bitstrings whose character ``i`` is the measured value of qubit
``i`` (qubit 0 leftmost), restricted to the measured qubits in ascending
qubit order.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable

import numpy as np

from ..exceptions import ExecutionError
from .gate_application import _local_index_map

__all__ = [
    "OneShotSampler",
    "SAMPLING_STREAM",
    "SUPPORT_FLOOR",
    "sample_counts",
    "counts_from_statevector",
    "format_bitstring",
    "format_packed_keys",
    "job_rng",
    "keyed_bin_counts",
    "merge_counts",
]

#: Version of the fixed-seed sampling stream — what a seed draws.  Bumped by
#: any change that moves a fixed-seed histogram; job keys do not include it,
#: and every test holding recorded digests asserts the stream they hold
#: under.  Three tiers of agreement hold:
#:
#: * **bit-exact** — every lane replaying one plan (serial, chunked threads,
#:   sweep rows) evolves the same amplitudes bit for bit;
#: * **fixed-seed-stable** — one plan and one seed give the same counts on
#:   every lane and at every ``threads`` setting: a job
#:   draws from one generator (:func:`job_rng`), its whole shot budget in
#:   one draw chosen by a rule of (shots, positive bins) alone;
#: * **distributional** — fused vs unfused plans of one circuit, and one
#:   backend vs another (dense, density, tableau), agree only in law.
#:
#: Stream 1 drew every shot chunk with ``Generator.multinomial``.  Stream 2
#: draws a chunk by inverse CDF where :func:`_inverse_cdf_wins` says so.
#: Stream 3 is stream 2 minus the bins at or below :data:`SUPPORT_FLOOR`:
#: they are not in the support, so exact cancellation that one plan's
#: arithmetic leaves as a ~1e-33 residue no longer shifts a ``multinomial``
#: stream.  Stream 4 drops the shot chunks: a job is one draw on one
#: generator, the stream one thread or one pinned shard drew at stream 3,
#: so only multi-chunk histograms moved.
SAMPLING_STREAM = 4

#: A marginal bin at or below this probability is not in the support:
#: ``(1e-12)**2``, the amplitude tier fused and unfused plans agree to (an
#: exact cancellation's residue in a windowed plan is ~2e-33 at most seen).
SUPPORT_FLOOR = 1e-24

#: Fewest positive marginal bins at which a draw of fewer shots than
#: bins is made by inverse CDF (one ``random`` per shot, located in the
#: marginal's running sum) instead of ``multinomial`` (one sequential
#: binomial per positive bin).  One draw, inverse ÷ multinomial
#: wall time, median of 5 (``BENCH_execution_plan.json``
#: ``sampling_crossover``, bins 2^1..2^17 x shots 2^0..2^13: 2-core Intel
#: Xeon @ 2.10 GHz VM, numpy 2.4.6, Python 3.11.7;
#: ``bench_execution_plan.py`` re-takes it on any host):
#:
#: =======  ====  ====  ====  ====  ====
#: bins     1     64    512   1024  4096  shots
#: =======  ====  ====  ====  ====  ====
#: 128      1.13  1.50  1.41  2.07  3.95
#: 256      1.47  1.37  1.36  2.13  2.40
#: 512      0.74  0.99  1.34  1.42  2.32
#: 1024     0.96  0.65  0.74  0.88  1.71
#: 4096     0.26  0.29  0.47  0.52  0.96
#: 65536    0.17  0.09  0.13  0.15  0.22
#: 131072   0.12  0.10  0.11  0.10  0.14
#: =======  ====  ====  ====  ====  ====
#:
#: Below 512 bins ``multinomial`` wins at every shot count (a 1-shot
#: trajectory draw over 256 bins included); from 512 bins inverse CDF wins
#: wherever shots < bins.  Across all 238 cells the rule's pick is at most
#: 1.16x slower than the faster draw (1.12x in the run before).  2^17 bins,
#: 512 shots: 0.68 ms vs 6.1 ms.
INVERSE_CDF_MIN_BINS = 1 << 9


def _inverse_cdf_wins(shots: int, bins: int) -> bool:
    """Whether a ``shots``-shot draw over ``bins`` positive bins is made by
    inverse CDF: fewer shots than bins, and bins past the measured floor."""
    return shots < bins and bins >= INVERSE_CDF_MIN_BINS


def format_bitstring(index: int, qubits: tuple[int, ...]) -> str:
    """Format the basis ``index`` restricted to ``qubits`` (first qubit leftmost)."""
    return "".join("1" if (index >> q) & 1 else "0" for q in qubits)


def format_packed_keys(packed: np.ndarray, width: int, bitorder: str = "big") -> list[str]:
    """One ``'0'``/``'1'`` key per row of ``packed`` (uint8 rows of packed
    bits): character ``i`` is the row's bit ``i`` in ``bitorder``.

    One vectorised pass writes every key as ASCII with a space after it,
    one ``decode`` and one ``split`` cut them; each temporary is dropped
    before the next is made, so at most two row-sized copies are live.
    """
    text = np.unpackbits(packed, axis=1, count=width + 1, bitorder=bitorder)
    text += ord("0")
    text[:, width] = ord(" ")
    text = text.tobytes()
    text = text.decode("ascii")
    return text.split()


def _marginal(
    probabilities: np.ndarray, qubits: tuple[int, ...], n_qubits: int
) -> tuple[np.ndarray, np.ndarray]:
    """Marginal onto ``qubits`` (bin bit ``i`` = ``qubits[i]``): the ascending
    bins with probability above :data:`SUPPORT_FLOOR` and their
    unnormalised sums."""
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
        # (trajectory sampling hits this once per branch).
        reduced = _local_index_map(probabilities.size, qubits)
        sums = np.bincount(reduced, weights=probabilities, minlength=1 << len(qubits))
    # Everything but p <= floor: a NaN bin survives to fail the total check.
    positive = ~(sums <= SUPPORT_FLOOR)
    if positive.all():  # the usual dense state: no index pass, no gather
        return np.arange(sums.size), sums
    bins = np.flatnonzero(positive)
    return bins, sums[bins]


#: Widest histogram whose keys come from one memoised table per width
#: (:func:`_key_table`: at 12 qubits 4 096 shared strings, ~0.3 MB once per
#: process) instead of fresh strings per histogram.  A caller that keeps
#: many histograms then holds one ``str`` per (width, bin) — the e2e
#: harness keeps every block's sampled rows, so without it ``vqe_sweep``
#: ``peak_rss_mb`` grew with throughput: 89.6–92.1 MB with fresh keys,
#: 79.5–83.6 MB with the table; 82.4 → 71.4 MB in one process over 200
#: blocks.  Building a 12-qubit, 900-bin histogram's keys: 161 → 85 µs
#: (2-core Intel Xeon @ 2.10 GHz VM, numpy 2.4.6).  Wider histograms and
#: the tableau format their keys with :func:`format_packed_keys`; the
#: strings are equal either way.
KEY_TABLE_MAX_WIDTH = 12


@functools.lru_cache(maxsize=None)
def _key_table(width: int) -> np.ndarray:
    """Every ``width``-bit key, indexed by bin, as an object array."""
    bins = np.arange(1 << width, dtype="<u8").view(np.uint8).reshape(-1, 8)
    table = np.empty(1 << width, dtype=object)
    table[:] = format_packed_keys(bins, width, "little")
    return table


def _keyed(bins: np.ndarray, values: np.ndarray, width: int) -> dict:
    """``{bitstring: value}`` per bin; character ``i`` is bit ``i`` of the bin."""
    if width <= KEY_TABLE_MAX_WIDTH:
        keys = _key_table(width)[bins].tolist()
    else:
        little = bins.astype("<u8").view(np.uint8).reshape(-1, 8)
        keys = format_packed_keys(little, width, "little")
    return dict(zip(keys, values.tolist()))


def _normalised(probs: np.ndarray, total: float) -> np.ndarray:
    """The vector every ``multinomial`` draw over a marginal is given."""
    # ``multinomial`` rejects probabilities off by even one ulp: normalise,
    # then let the last bin absorb the residual exactly.
    probs = probs / total
    probs[-1] = max(0.0, 1.0 - probs[:-1].sum())
    return probs


def _inverse_cdf_draw(
    probs: np.ndarray, shots: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """``(hit bins, counts)``, ascending: ``rng.random(shots)``, scaled by
    the marginal's total and located in its running sum."""
    cdf = np.cumsum(probs)
    uniforms = rng.random(shots)
    # Sorted keys let ``searchsorted`` narrow each search from the last hit.
    uniforms.sort()
    uniforms *= cdf[-1]
    return np.unique(np.searchsorted(cdf, uniforms, side="right"), return_counts=True)


def _support(
    probabilities: np.ndarray, measured_qubits: Iterable[int], n_qubits: int
) -> tuple[tuple[int, ...], np.ndarray, np.ndarray, float]:
    """``(qubits, bins, probs, total)``: the sorted measured qubits, their
    marginal's positive bins with unnormalised sums, and the sums' total."""
    qubits = tuple(sorted(set(int(q) for q in measured_qubits)))
    if not qubits:
        raise ExecutionError("at least one qubit must be measured")
    bins, probs = _marginal(probabilities, qubits, n_qubits)
    # Float drift can push |amplitude|^2 a few ulp below 0: those bins are
    # dropped with the sub-floor ones.
    total = probs.sum()
    if total <= 0.0 or not math.isfinite(total):
        raise ExecutionError(f"probability vector sums to {total}, cannot sample")
    return qubits, bins, probs, total


class OneShotSampler:
    """A marginal prepared once for many one-shot draws.

    :meth:`draw` consumes ``rng`` exactly as ``sample_counts(probabilities,
    1, …)`` would and returns the drawn bin: one ``multinomial(1, p)`` over
    the normalised vector :func:`sample_counts` builds, or, where
    :func:`_inverse_cdf_wins` holds for one shot, one ``random`` located in
    the running sum.
    """

    __slots__ = ("bins", "table", "inverse", "nbytes")

    def __init__(
        self, probabilities: np.ndarray, measured_qubits: Iterable[int], n_qubits: int
    ):
        qubits, bins, probs, total = _support(probabilities, measured_qubits, n_qubits)
        # Every bin positive: a drawn index is its bin, so no index table.
        self.bins = None if bins.size == 1 << len(qubits) else bins
        self.inverse = _inverse_cdf_wins(1, bins.size)
        self.table = np.cumsum(probs) if self.inverse else _normalised(probs, total)
        #: Bytes this sampler keeps (its draw table and bin index).
        self.nbytes = self.table.nbytes + (0 if self.bins is None else bins.nbytes)

    def draw(self, rng: np.random.Generator) -> int:
        table = self.table
        if self.inverse:
            # ``_inverse_cdf_draw`` for one uniform: sorting it is a no-op.
            uniform = rng.random(1)
            uniform *= table[-1]
            index = int(np.searchsorted(table, uniform, side="right")[0])
        else:
            index = int(rng.multinomial(1, table).argmax())
        return index if self.bins is None else int(self.bins[index])


def job_rng(seed: int | None) -> np.random.Generator:
    """The one generator a job draws from: ``SeedSequence(seed).spawn(1)[0]``
    (fresh entropy for ``None``).  Every lane — engine, sweep row —
    derives it the same way, so a seed fixes a job's counts everywhere."""
    return np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])


def merge_counts(histograms: Iterable[dict[str, int]]) -> dict[str, int]:
    """Sum count histograms, keys in first-seen order."""
    merged: dict[str, int] = {}
    for histogram in histograms:
        for key, value in histogram.items():
            merged[key] = merged.get(key, 0) + int(value)
    return merged


def keyed_bin_counts(counts: dict[int, int], width: int) -> dict[str, int]:
    """``{bitstring: count}`` for ``{bin: count}``, keys in its order."""
    return _keyed(
        np.fromiter(counts, dtype=np.int64, count=len(counts)),
        np.fromiter(counts.values(), dtype=np.int64, count=len(counts)),
        width,
    )


def sample_counts(
    probabilities: np.ndarray,
    shots: int,
    measured_qubits: Iterable[int],
    n_qubits: int,
    rng: np.random.Generator | None = None,
) -> dict[str, int]:
    """Draw ``shots`` samples from ``probabilities`` and histogram them.

    The measured qubits' *marginal* is computed once (O(2^n) vectorised)
    and the whole shot budget is one draw on ``rng``: by inverse CDF where
    :func:`_inverse_cdf_wins` (O(shots · log bins)), else by one
    ``multinomial`` over the marginal.  Keys are built only for outcomes
    that were drawn.
    """
    if shots <= 0:
        raise ExecutionError(f"shots must be positive, got {shots}")
    rng = rng or np.random.default_rng()
    qubits, bins, probs, total = _support(probabilities, measured_qubits, n_qubits)
    if _inverse_cdf_wins(shots, bins.size):
        hit, counts = _inverse_cdf_draw(probs, shots, rng)
        return _keyed(bins[hit], counts, len(qubits))
    counts = rng.multinomial(shots, _normalised(probs, total))
    hit = np.flatnonzero(counts)
    return _keyed(bins[hit], counts[hit], len(qubits))


def counts_from_statevector(
    state, shots: int, measured_qubits: Iterable[int] | None = None, rng=None
) -> dict[str, int]:
    """Convenience wrapper sampling directly from a :class:`StateVector`."""
    qubits = (
        tuple(measured_qubits) if measured_qubits is not None else tuple(range(state.n_qubits))
    )
    return sample_counts(state.probabilities(), shots, qubits, state.n_qubits, rng)
