"""Stabilizer (CHP tableau) execution behind the common backend protocol.

Every other lane in the repo replays a dense statevector, so cost grows as
O(2^n) regardless of how well the replay parallelises.  Clifford circuits
— bell/GHZ chains, error-correction cycles, randomized benchmarking — admit
the Aaronson–Gottesman tableau representation instead: the state is the
abelian group stabilising it, tracked as 2n binary Pauli rows, and every
Clifford gate is an O(n) column update.  A 500-qubit GHZ circuit is a few
thousand bit-vector ops, not a 2^500-amplitude impossibility.

Layout (CHP convention): rows ``0..n-1`` are destabilizers, rows
``n..2n-1`` stabilizers; row ``i`` encodes the Pauli
``(-1)^{r_i} · ∏_q W_q`` with ``W`` read off the ``(x, z)`` bit pair —
``(0,0)=I, (1,0)=X, (1,1)=Y, (0,1)=Z``.

**Everything is bit-packed** (``np.packbits``, big-endian).  The tableau is
stored along the axis gates run on and bit-transposed for the operations
that run along the other:

* *Gates run on qubit planes.*  ``x[q]`` / ``z[q]`` hold qubit ``q``'s bit
  of all 2n rows in ``2n/8`` bytes, and the rows' constant signs are one
  more such vector.  A gate XORs a handful of planes; a whole *moment* of
  same-kind gates on disjoint qubits (see
  :mod:`repro.ir.transforms.clifford`) is the same handful of numpy calls
  on a ``(k, 2n/8)`` block — one update per moment, not five per gate.
* *Measurements run on Pauli rows.*  Collapsing a qubit multiplies rows
  together, so :class:`_PauliRows` is the transposed view: each row's
  ``n`` bits packed into 64-bit words, phase carries taken from popcounts
  of packed ANDs.  A mid-circuit ``measure``/``reset`` transposes,
  measures qubit after qubit and writes the collapsed rows back; terminal
  sampling transposes the stabilizer rows once and measures nothing (see
  below).

A byte-per-bit tableau streamed ``(k, n)`` blocks through every row
product (the whole cost of a wide job); packed rows are ≤ 64 bytes at 500
qubits and a job becomes a few thousand ~µs numpy calls.

The one departure from textbook CHP is the **symbolic phase matrix**: each
row's phase is an affine form over GF(2) in fresh random bits
``(1, u₁..u_R)`` minted by random-outcome measurements and resets, not a
single bit.  Unitary gates only ever flip the constant column; measurement
outcomes come out as affine forms in the ``u``'s.

**Terminal sampling is one GF(2) elimination, not one measurement per
qubit.**  The joint outcome ``m`` of the measured qubits is uniform over
the affine space cut out by the ``±Z``-products in the stabilizer group
that live on measured qubits (``a·m = b`` for each, ``b`` its phase).
:meth:`StabilizerTableau.terminal_forms` finds them by a phase-free
elimination of the stabilizers' ``X`` part — its rank many pivots, one for
a GHZ state — takes their phases in one segmented pass, and reduces
``[a | b]`` with plain XORs (``Z``-products carry no ``i`` factors).  The
forms it returns are *canonical*: each measured qubit, in ascending order,
is either free given the qubits before it — and takes the next fresh
``u`` — or the unique affine function of earlier free bits and earlier
``u``'s.  Measuring qubit after qubit (CHP, Aaronson & Gottesman 2004)
yields the same forms bit for bit, so the batched computation keeps every
fixed-seed histogram; whole measurement records in one pass is how Stim
(Gidney 2021) samples too.  The draw is then a single GF(2) matrix product
over ``shots`` uniform draws of the ``u`` vector — evaluated on packed rows
eight random bits at a time, and histogrammed by sorting the packed rows —
and circuits whose outcomes involve no ``u`` (deterministic outcomes)
yield the exact single bitstring the dense lanes produce, bit for bit,
independent of the sampler seed.

**One tableau job at a time per process.**  Such a job is interpreter
bound at every width admission lets through: two of them on two broker
workers do not overlap, they hand the GIL back and forth at every numpy
call and both finish later than they would back to back (measured on the
byte-per-bit tableau: two clients got 0.75x the throughput of one, at
+50 % CPU per op).
:meth:`StabilizerBackend.execute` therefore evolves and samples under the
process's one execution gate (:func:`repro.exec.backend.execution_gate` —
the lock dense kernels in the hand-off band take too, so a tableau job and
such a dense job also exclude each other), taken in short slices so a queued
job still honours its deadline.  This is what the GIL already enforces,
minus the hand-offs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from ..cancellation import active_cancel_token
from ..exceptions import ExecutionError
from ..ir.composite import CompositeInstruction
from ..ir.transforms.clifford import (
    FIRST_TWO_QUBIT_OP,
    TABLEAU_OPS,
    CliffordClassification,
    classify_clifford,
)
from ..obs.trace import get_tracer
from ..testing import faults
from ..simulator.execution_plan import DEFAULT_PRECISION
from ..simulator.sampling import format_packed_keys
from .backend import ExecutionBackend, Params, _resolve_width, execution_gate
from .result import ExecutionResult

__all__ = ["StabilizerTableau", "StabilizerBackend", "estimate_tableau_bytes"]


def _packed_bytes(n_bits: int) -> int:
    return (n_bits + 7) >> 3


def _word_bytes(n_bits: int) -> int:
    """Bytes of ``n_bits`` packed and padded to whole 64-bit words."""
    return ((n_bits + 63) >> 6) << 3


def estimate_tableau_bytes(n_qubits: int, shots: int = 0) -> int:
    """Peak bytes for a tableau execution: O(n²) bits, not O(2^n) amplitudes.

    Follows the packed layout.  The tableau: the ``x``/``z`` qubit planes
    and their row view (2n·n bits each, rows padded to 64-bit words; the
    stabilizer rows and elimination system of terminal sampling fit in it), the
    packed affine phases (a constant column plus at most one random column
    per measured qubit) with a gathered copy, and the byte-per-bit
    ``(n, 2n)`` scratch a transpose unpacks through.  Sampling: the
    ``shots × R`` uniform draws (a byte each, ``R ≤ n``) and their packed
    form, the ``shots × ⌈n/8⌉`` packed sample rows with the sort's copies,
    the 256-row lookup table, and the histogram — at most ``shots``
    distinct ``n``-character keys, formatted through an unpacked copy.
    The admission controller uses this instead of the amplitude estimate
    when the classifier routes a job to the tableau.
    """
    n = max(1, int(n_qubits))
    shots = max(0, int(shots))
    rows = 2 * n
    planes = 2 * n * _packed_bytes(rows)
    row_view = 2 * rows * _word_bytes(n)
    phase = 2 * rows * _packed_bytes(n + 1)
    transpose = 2 * rows * n
    draws = shots * (n + _packed_bytes(n))
    sample_rows = (4 * shots + 256) * _packed_bytes(n)
    distinct = min(shots, 1 << min(n, 62))
    histogram = distinct * (3 * n + 64)
    return planes + row_view + phase + transpose + draws + sample_rows + histogram


_BYTE_POPCOUNT = np.array([bin(byte).count("1") for byte in range(256)], dtype=np.uint8)


def _popcount_bytes(block: np.ndarray) -> np.ndarray:
    """Set bits per row of a ``(…, bytes)`` uint8 block, by table lookup."""
    return _BYTE_POPCOUNT[block].sum(axis=-1, dtype=np.int64)


def _popcount_words(block: np.ndarray) -> np.ndarray:
    """Set bits per row of a contiguous uint8 block of whole 64-bit words."""
    return np.bitwise_count(block.view(np.uint64)).sum(axis=-1, dtype=np.int64)


#: ``np.bitwise_count`` arrived in numpy 2.0; the project supports 1.24.
_popcount = _popcount_words if hasattr(np, "bitwise_count") else _popcount_bytes


def _transpose_bits(
    packed: np.ndarray, n_bits: int, out_bytes: int, start: int = 0
) -> np.ndarray:
    """Bit-transpose bits ``start..n_bits-1`` of ``(r, ≥n_bits/8)`` packed
    rows into ``(n_bits - start, out_bytes)``."""
    skip = start & ~7
    bits = np.unpackbits(packed[:, skip >> 3 :], axis=1, count=n_bits - skip)[:, start - skip :]
    out = np.zeros((n_bits - start, out_bytes), dtype=np.uint8)
    # packbits along a transposed view is ~5x slower than on a copy.
    out[:, : _packed_bytes(packed.shape[0])] = np.packbits(np.ascontiguousarray(bits.T), axis=1)
    return out


def _product_phases(
    x: np.ndarray, z: np.ndarray, phase: np.ndarray, rows: np.ndarray, starts
) -> tuple[np.ndarray, np.ndarray]:
    """Packed affine phases and ``z`` parts of ordered row products.

    ``rows`` lists row indices one product after another and ``starts``
    where each product begins.  Per product this is the exponent of
    :meth:`_PauliRows._rowsum` over the whole product: the ``Y`` factors of
    every row, a sign for each ``Z`` left of an ``X`` (one exclusive
    cumulative XOR, restarted at each product, finds them all), the ``Y``
    factors of the result.  All callers multiply pairwise-commuting rows,
    so every product is Hermitian and its exponent even.
    """
    starts = np.asarray(starts)
    xs, zs = x[rows], z[rows]
    z_before = np.bitwise_xor.accumulate(zs, axis=0)
    z_before ^= zs
    z_before ^= np.repeat(z_before[starts], np.diff(starts, append=len(rows)), axis=0)
    x_all = np.bitwise_xor.reduceat(xs, starts, axis=0)
    z_all = np.bitwise_xor.reduceat(zs, starts, axis=0)
    exponent = np.add.reduceat(
        _popcount(xs & zs) + 2 * _popcount(xs & z_before), starts
    ) - _popcount(x_all & z_all)
    phases = np.bitwise_xor.reduceat(phase[rows], starts, axis=0)
    phases[:, 0] ^= (exponent % 4 // 2 << 7).astype(np.uint8)
    return phases, z_all


def _eliminate(rows: np.ndarray, span: int) -> np.ndarray:
    """Gauss–Jordan elimination over GF(2) on packed ``rows``, in place.

    Pivots are taken in the first ``span`` bytes; the bytes past them are
    carried along.  Each row in turn, once the rows above have been
    reduced, pivots on its lowest set column, which is then cleared from
    every other row: a pivot row's lowest column stays its pivot, so the
    result is *the* reduced row echelon form of the row space.  Rows
    empty on the span are skipped at no cost, so the work is one XOR pass
    per pivot (the rank).  Returns each row's pivot column, ``-1`` for the
    rows left empty on the span.  The row length must be whole 64-bit words.
    """
    words = rows.view(np.uint64)
    pivots = np.full(len(rows), -1)
    for row in np.flatnonzero(rows[:, :span].any(axis=1)).tolist():
        nonzero = rows[row, :span].nonzero()[0]
        if not nonzero.size:
            continue
        byte = int(nonzero[0])
        value = int(rows[row, byte])
        column = rows[:, byte] & (1 << value.bit_length() - 1)
        column[row] = 0
        targets = column.nonzero()[0]
        if targets.size:
            words[targets] ^= words[row]
        pivots[row] = 8 * byte + 8 - value.bit_length()
    return pivots


def _histogram(
    forms: np.ndarray, shots: int, rng: np.random.Generator | None
) -> dict[str, int]:
    """Histogram ``shots`` uniform draws of the ``u``'s through ``forms``.

    The forms are :meth:`StabilizerTableau.terminal_forms`; the draw is one
    ``rng.integers`` call over every ``u`` column, so a canonical form fixes
    the fixed-seed histogram.
    """
    if shots <= 0:
        raise ExecutionError(f"shots must be positive, got {shots}")
    n_measured = len(forms)
    constant = np.packbits(forms[:, 0])
    coeffs = forms[:, 1:]
    if not coeffs.any():
        # Deterministic outcomes: the single bitstring every dense lane
        # produces at any seed — bitwise identical by construction.
        return {format_packed_keys(constant[None, :], n_measured)[0]: int(shots)}
    rng = rng or np.random.default_rng()
    draws = rng.integers(0, 2, size=(shots, coeffs.shape[1]), dtype=np.uint8)
    # draws · coeffsᵀ + constant over GF(2), on packed sample rows: XOR
    # in, for each draw, the measured bits its random variable flips.
    # Eight variables at a time — a 256-entry table of their XOR
    # combinations, indexed by the draws' packed byte.
    flips = np.packbits(coeffs.T, axis=1)
    draw_bytes = np.packbits(draws, axis=1, bitorder="little")
    samples = np.tile(constant, (shots, 1))
    table = np.zeros((256, flips.shape[1]), dtype=np.uint8)
    for group in range(draw_bytes.shape[1]):
        for i, row in enumerate(flips[8 * group : 8 * group + 8]):
            np.bitwise_xor(table[: 1 << i], row, out=table[1 << i : 2 << i])
        samples ^= table[draw_bytes[:, group]]
    # Big-endian packing sorts like the bit strings themselves.
    row_type = np.dtype((np.void, samples.shape[1]))
    values, counts = np.unique(samples.view(row_type).ravel(), return_counts=True)
    keys = format_packed_keys(values.view(np.uint8).reshape(len(values), -1), n_measured)
    return dict(zip(keys, counts.tolist()))


@dataclass(slots=True)
class _PauliRows:
    """The tableau read row by row: what measurements multiply together.

    ``x``/``z`` are ``(2n, words)`` with each row's qubits packed (zero
    padded to whole 64-bit words); ``phase`` holds the affine forms packed
    along ``(1, u₁..u_R, spare…)`` — ``width`` columns in use, the spare
    ones for the random bits this view's measurements will mint.
    """

    n: int
    x: np.ndarray
    z: np.ndarray
    phase: np.ndarray
    width: int

    def _rowsum(self, targets: np.ndarray, i: int) -> None:
        """Row ``t`` := row ``i`` · row ``t`` for every target at once.

        Writing a row as ``(-1)^r ∏ i^{xz} X^x Z^z``, the product of rows
        ``1·2`` is ``i^e`` times the row ``(x₁⊕x₂, z₁⊕z₂)`` with
        ``e = |x₁z₁| + |x₂z₂| + 2|z₁x₂| - |(x₁⊕x₂)(z₁⊕z₂)|``: the ``Y``
        factors going in, one sign per ``Z`` hopping over an ``X``, the
        ``Y`` factors coming out.  ``e`` is Aaronson–Gottesman's ``Σg``
        (mod 4) as three popcounts of packed ANDs; Hermitian products have
        ``e`` even and the phase carry is half of it.
        """
        x1, z1 = self.x[i], self.z[i]
        x2, z2 = self.x[targets], self.z[targets]
        x3, z3 = x2 ^ x1, z2 ^ z1
        exponent = (
            int(_popcount(x1 & z1))
            + _popcount(x2 & z2)
            + 2 * _popcount(x2 & z1)
            - _popcount(x3 & z3)
        )
        used = _packed_bytes(self.width)
        phase = self.phase[targets, :used] ^ self.phase[i, :used]
        phase[:, 0] ^= (exponent % 4 // 2 << 7).astype(np.uint8)
        self.phase[targets, :used] = phase
        self.x[targets] = x3
        self.z[targets] = z3

    def measure(self, q: int) -> np.ndarray:
        """Collapse qubit ``q``; the outcome as a packed affine form.

        The pivot is the first stabilizer that anticommutes with ``Z_q``.
        A random outcome mints the next ``u`` column and returns exactly
        that coordinate; a deterministic outcome returns the accumulated
        phase of the stabilizer product fixing ``Z_q``.
        """
        n = self.n
        byte, bit = q >> 3, 0x80 >> (q & 7)
        hits = np.flatnonzero(self.x[:, byte] & bit)
        first_stabilizer = int(np.searchsorted(hits, n))
        if first_stabilizer < hits.size:
            p = int(hits[first_stabilizer])
            targets = np.delete(hits, first_stabilizer)
            if targets.size:
                self._rowsum(targets, p)
            self.x[p - n] = self.x[p]
            self.z[p - n] = self.z[p]
            self.phase[p - n] = self.phase[p]
            column = self.width
            self.width += 1
            self.x[p] = 0
            self.z[p] = 0
            self.z[p, byte] = bit
            self.phase[p] = 0
            self.phase[p, column >> 3] = 0x80 >> (column & 7)
            return self.phase[p].copy()
        # Deterministic outcome: Z_q ∈ ±S; the product of the stabilizers
        # selected by the destabilizers that anticommute with Z_q has the
        # measured bit as its phase.
        if not hits.size:
            return np.zeros(self.phase.shape[1], dtype=np.uint8)
        return _product_phases(self.x, self.z, self.phase, hits + n, [0])[0][0]


class StabilizerTableau:
    """A 2n-row binary Pauli tableau with symbolic (affine) phases.

    Gate methods take one qubit, or an integer array of pairwise-distinct
    qubits (for two-qubit gates: two equal-length arrays, all entries
    distinct) — a moment — and apply the gate to each in one vectorised
    update.  Every right-hand side is computed before it is stored, so the
    same lines serve a lone qubit's plane views and a moment's gathered
    copies.
    """

    def __init__(self, n_qubits: int):
        if n_qubits < 1:
            raise ExecutionError(f"tableau width must be positive, got {n_qubits}")
        self.n = n = int(n_qubits)
        identity = np.eye(n, dtype=np.uint8)
        blank = np.zeros((n, n), dtype=np.uint8)
        #: Qubit planes: bit ``r`` of ``x[q]`` is row ``r``'s X component on
        #: ``q``.  Destabilizer ``i`` = X_i, stabilizer ``i`` = Z_i.
        self.x = np.packbits(np.hstack([identity, blank]), axis=1)
        self.z = np.packbits(np.hstack([blank, identity]), axis=1)
        #: The rows' constant phase bits, packed like a plane.
        self.sign = np.zeros(_packed_bytes(2 * n), dtype=np.uint8)
        #: Rows' affine phases packed along ``(1, u₁..u_R)``.  Column 0 is
        #: kept in ``sign`` while gates run and is zero here.
        self.affine = np.zeros((2 * n, 1), dtype=np.uint8)
        #: Random bits minted so far by measurements and resets.
        self.n_random_bits = 0

    # -- gates (phase flips touch only the constant column) -------------------
    def _flip(self, planes: np.ndarray) -> None:
        self.sign ^= planes if planes.ndim == 1 else np.bitwise_xor.reduce(planes, axis=0)

    def h(self, q) -> None:
        x, z = self.x[q], self.z[q]
        self._flip(x & z)
        swap = x ^ z
        self.x[q] = x ^ swap
        self.z[q] = z ^ swap

    def s(self, q) -> None:
        x, z = self.x[q], self.z[q]
        self._flip(x & z)
        self.z[q] = z ^ x

    def sdg(self, q) -> None:
        x, z = self.x[q], self.z[q]
        self._flip(x & ~z)
        self.z[q] = z ^ x

    def x_gate(self, q) -> None:
        self._flip(self.z[q])

    def y_gate(self, q) -> None:
        self._flip(self.x[q] ^ self.z[q])

    def z_gate(self, q) -> None:
        self._flip(self.x[q])

    def cx(self, control, target) -> None:
        xa, za = self.x[control], self.z[control]
        xb, zb = self.x[target], self.z[target]
        self._flip(xa & zb & ~(xb ^ za))
        self.x[target] = xb ^ xa
        self.z[control] = za ^ zb

    def cz(self, a, b) -> None:
        xa, za, xb, zb = self.x[a], self.z[a], self.x[b], self.z[b]
        self._flip(xa & xb & (za ^ zb))
        self.z[a] = za ^ xb
        self.z[b] = zb ^ xa

    def swap(self, a, b) -> None:
        for planes in (self.x, self.z):
            delta = planes[a] ^ planes[b]
            planes[a] ^= delta
            planes[b] ^= delta

    # -- the row view ----------------------------------------------------------
    def _rows(self, spare: int = 0) -> _PauliRows:
        """Transpose into Pauli rows with room to mint ``spare`` random bits."""
        n = self.n
        width = 1 + self.n_random_bits
        phase = np.zeros((2 * n, _packed_bytes(width + spare)), dtype=np.uint8)
        phase[:, : self.affine.shape[1]] = self.affine
        phase[:, 0] |= np.unpackbits(self.sign, count=2 * n) << 7
        words = _word_bytes(n)
        return _PauliRows(
            n,
            _transpose_bits(self.x, 2 * n, words),
            _transpose_bits(self.z, 2 * n, words),
            phase,
            width,
        )

    def _adopt(self, rows: _PauliRows) -> None:
        """Write a (collapsed) row view back into the planes."""
        n = self.n
        self.x = _transpose_bits(rows.x, n, _packed_bytes(2 * n))
        self.z = _transpose_bits(rows.z, n, _packed_bytes(2 * n))
        self.sign = np.packbits(rows.phase[:, 0] >> 7)
        self.affine = rows.phase[:, : _packed_bytes(rows.width)].copy()
        self.affine[:, 0] &= 0x7F
        self.n_random_bits = rows.width - 1

    # -- symbolic measurement --------------------------------------------------
    def _collapse(self, qubits, reset: bool) -> list[np.ndarray]:
        qubits = [int(q) for q in np.atleast_1d(qubits)]
        for q in qubits:
            if not 0 <= q < self.n:
                raise ExecutionError(f"measured qubit {q} out of range")
        rows = self._rows(spare=len(qubits))
        forms = []
        for q in qubits:
            form = rows.measure(q)
            if reset:
                # The conditional X^m is exact even for symbolic ``m``: X on
                # ``q`` flips each row's phase by its ``z`` column, so the
                # affine form ``m`` is XORed into every row with it set.
                flipped = np.flatnonzero(rows.z[:, q >> 3] & (0x80 >> (q & 7)))
                rows.phase[flipped] ^= form
            forms.append(form)
        self._adopt(rows)
        return forms

    def measure(self, q: int) -> np.ndarray:
        """Measure qubit ``q`` (collapsing) and return the outcome.

        The outcome is an affine form over ``(1, u₁..u_R)``: a boolean
        vector of the current phase width whose GF(2) inner product with a
        concrete assignment of the ``u``'s gives the measured bit.
        """
        (form,) = self._collapse(q, reset=False)
        return np.unpackbits(form, count=1 + self.n_random_bits).astype(bool)

    def reset(self, q) -> None:
        """Measure each qubit in turn, then conditionally flip it back to |0⟩."""
        self._collapse(q, reset=True)

    # -- terminal sampling -----------------------------------------------------
    def terminal_forms(self, measured_qubits: Iterable[int]) -> np.ndarray:
        """The joint outcome of measuring ``measured_qubits``, as affine forms.

        Row ``i`` is the ``i``-th measured qubit (ascending, duplicates
        dropped) as a 0/1 vector over ``(1, u₁..u_R, u_{R+1}..)``: the
        earlier random bits, then one fresh bit per free qubit.  The forms
        are canonical (see the module docstring), so they are the ones
        measuring qubit after qubit yields.  Four steps on the stabilizer
        rows, with no measurement made:

        1. A phase-free elimination (:func:`_eliminate`) of their ``X``
           part (and their ``Z`` part on unmeasured qubits), identity
           columns recording each row's combination of stabilizers.  The rows it leaves empty are
           ``±Z``-products on measured qubits: the constraints ``a·m = b``
           the outcomes ``m`` obey, with ``b`` their phase.  The work is
           the rank — one pivot for a GHZ state, not one per qubit.
        2. The phases ``b`` of those products, in one segmented pass
           (:func:`_product_phases`).
        3. A phase-free reduced row echelon form of ``[a | b]`` with each
           row led by its highest measured qubit — ``Z``-products multiply
           without ``i`` factors, so rows just XOR.  Its pivots are the
           determined qubits, each row the determined qubit's form.
        4. The remaining (free) qubits take fresh bits in ascending order.
        """
        qubits = sorted(set(int(q) for q in measured_qubits))
        if not qubits:
            raise ExecutionError("at least one qubit must be measured")
        if not 0 <= qubits[0] <= qubits[-1] < self.n:
            raise ExecutionError(f"measured qubits {tuple(qubits)} out of range")
        n, k = self.n, len(qubits)
        width = 1 + self.n_random_bits
        words = _word_bytes(n)
        x = _transpose_bits(self.x, 2 * n, words, start=n)
        z = _transpose_bits(self.z, 2 * n, words, start=n)
        phase = self.affine[n:].copy()
        phase[:, 0] |= np.unpackbits(self.sign, count=2 * n)[n:] << 7
        # 1. Eliminate the X part; ``identity`` tracks the combinations.
        parts = [x]
        if k < n:
            unmeasured = np.ones(8 * words, dtype=np.uint8)
            unmeasured[qubits] = 0
            parts.append(z & np.packbits(unmeasured))
        span = len(parts) * words
        diagonal = np.arange(n)
        identity = np.zeros((n, words), dtype=np.uint8)
        identity[diagonal, diagonal >> 3] = 0x80 >> (diagonal & 7)
        system = np.hstack(parts + [identity])
        combos = system[_eliminate(system, span) < 0, span:]
        # 2. The constraints' phases, ≲2n gathered rows per pass so the
        #    temporaries stay O(n²) bits.
        ends = np.cumsum(_popcount(combos))
        phases, z_parts = [], []
        for chunk in np.split(combos, np.flatnonzero(np.diff(ends // (2 * n))) + 1):
            product, member = np.nonzero(np.unpackbits(chunk, axis=1, count=n))
            starts = np.flatnonzero(np.diff(product, prepend=-1))
            chunk_phase, chunk_z = _product_phases(x, z, phase, member, starts)
            phases.append(chunk_phase)
            z_parts.append(chunk_z)
        # 3. RREF of [a | b], the measured qubits' columns in descending
        #    order so that a row's lowest column is its highest qubit.
        descending = np.unpackbits(np.vstack(z_parts), axis=1, count=n)[:, qubits[::-1]]
        a_bytes = _word_bytes(k)
        constraints = np.zeros((len(combos), a_bytes + _word_bytes(width)), dtype=np.uint8)
        constraints[:, : _packed_bytes(k)] = np.packbits(descending, axis=1)
        constraints[:, a_bytes : a_bytes + phase.shape[1]] = np.vstack(phases)
        determined = k - 1 - _eliminate(constraints, a_bytes)
        free = np.delete(np.arange(k), determined)
        ascending = np.unpackbits(constraints[:, :a_bytes], axis=1, count=k)[:, ::-1]
        forms = np.zeros((k, width + free.size), dtype=np.uint8)
        forms[determined, :width] = np.unpackbits(constraints[:, a_bytes:], axis=1, count=width)
        forms[determined, width:] = ascending[:, free]
        # 4. A fresh random bit for each free qubit, in ascending order.
        forms[free, width + np.arange(free.size)] = 1
        return forms

    def sample(
        self,
        shots: int,
        measured_qubits: Iterable[int],
        rng: np.random.Generator | None = None,
    ) -> dict[str, int]:
        """Histogram ``shots`` joint samples of ``measured_qubits``.

        Matches :func:`repro.simulator.sampling.sample_counts` format:
        measured qubits sorted ascending, character ``i`` of a key is the
        value of the ``i``-th measured qubit, keys in lexicographic order.
        :meth:`terminal_forms` gives the exact joint distribution as
        correlated affine forms in shared ``u``'s; one GF(2) product over
        uniform ``u`` draws then produces every shot at once.
        """
        return _histogram(self.terminal_forms(measured_qubits), shots, rng)

    # -- exact expectations ----------------------------------------------------
    def expectation_sign(self, paulis: Mapping[int, str]) -> float:
        """⟨P⟩ for a Pauli product ``P`` — exactly -1, 0 or +1.

        A pure stabilizer state's group is maximal abelian: ``P`` has
        non-zero expectation iff it commutes with every stabilizer, in
        which case ``P ∈ ±S`` and the sign is the phase of the stabilizer
        product selected by the destabilizers anticommuting with ``P``.
        """
        n = self.n
        rows = self._rows()
        xp = np.zeros(8 * rows.x.shape[1], dtype=np.uint8)
        zp = np.zeros_like(xp)
        for qubit, label in paulis.items():
            if not 0 <= qubit < n:
                raise ExecutionError(f"observable qubit {qubit} out of range")
            if label in ("X", "Y"):
                xp[qubit] = 1
            if label in ("Z", "Y"):
                zp[qubit] = 1
        # A row anticommutes with P iff their symplectic product is odd.
        anticommutes = _popcount((rows.x & np.packbits(zp)) ^ (rows.z & np.packbits(xp))) & 1
        if anticommutes[n:].any():
            return 0.0
        selected = np.flatnonzero(anticommutes[:n]) + n
        if not selected.size:
            # P commutes with every generator yet selects no stabilizer:
            # only the identity does that (⟨I⟩ = 1 handled by the caller).
            return 1.0
        phase = _product_phases(rows.x, rows.z, rows.phase, selected, [0])[0]
        return -1.0 if phase[0, 0] & 0x80 else 1.0


class StabilizerBackend(ExecutionBackend):
    """Tableau execution behind :class:`ExecutionBackend`.

    ``compile`` returns the cached :class:`CliffordClassification` (the
    lowered moment program *is* the executable artefact — there is no
    amplitude plan form).  Non-Clifford circuits fail loudly with the
    classifier's obstruction: routing layers are expected to consult
    :func:`classify_clifford` first, so reaching this error means an
    explicit ``method: "stabilizer"`` request on an ineligible circuit.

    ``precision`` is accepted for protocol uniformity and ignored — the
    tableau is exact over GF(2) at every tier, so the knob cannot change
    the sampling law here.
    """

    backend_name = "stabilizer"

    def compile(
        self,
        circuit: CompositeInstruction,
        n_qubits: int | None = None,
        *,
        optimize: bool = True,
        chunk_threshold: int | None = None,
        precision: str = DEFAULT_PRECISION,
    ) -> CliffordClassification:
        return classify_clifford(circuit)

    def _classified(self, circuit: CompositeInstruction) -> CliffordClassification:
        classification = classify_clifford(circuit)
        if not classification.is_clifford:
            raise ExecutionError(
                "the stabilizer backend requires a Clifford circuit: "
                f"{classification.reason}"
            )
        return classification

    @staticmethod
    def _evolve(tableau: StabilizerTableau, program: CliffordClassification) -> None:
        # Indexed by opcode; the Pauli gates are spelt ``x_gate`` etc. because
        # ``x`` / ``z`` name the planes.
        apply = [
            getattr(tableau, f"{kind}_gate" if kind in ("x", "y", "z") else kind)
            for kind in TABLEAU_OPS
        ]
        for code, first, second in program.moments():
            if code < FIRST_TWO_QUBIT_OP:
                apply[code](first)
            else:
                apply[code](first, second)

    def execute(
        self,
        circuit: CompositeInstruction,
        shots: int,
        *,
        n_qubits: int | None = None,
        seed: int | None = None,
        params: Params = None,
        optimize: bool = True,
        chunk_threshold: int | None = None,
        precision: str = DEFAULT_PRECISION,
    ) -> ExecutionResult:
        tracer = get_tracer()
        token = active_cancel_token()
        if token is not None:
            # Pre-evolution boundary, mirroring every other lane: a job
            # past its deadline must not pay for classification.
            token.check()
        faults.fire("stabilizer.execute")
        if params is not None:
            circuit = circuit.bind(params)
        elif circuit.is_parameterized:
            raise ExecutionError(
                f"circuit {circuit.name!r} has unbound parameters; provide params"
            )
        started = time.perf_counter()
        with tracer.span("classify", attrs={"circuit": circuit.name}):
            classification = self._classified(circuit)
        width = _resolve_width(circuit, n_qubits)
        measured = classification.measured_qubits or tuple(range(width))
        rng = np.random.default_rng(seed)
        queued = time.perf_counter()
        with execution_gate(token):
            # ``seconds`` reports this job's work, not its wait for another's.
            started += time.perf_counter() - queued
            with tracer.span(
                "tableau", attrs={"n_qubits": width, "n_ops": classification.n_ops}
            ):
                tableau = StabilizerTableau(width)
                self._evolve(tableau, classification)
            if token is not None:
                # Post-evolution boundary: sampling is the other large phase.
                token.check()
            with tracer.span("sample", attrs={"shots": shots}) as span:
                forms = tableau.terminal_forms(measured)
                span.set_attribute("random_bits", forms.shape[1] - 1)
                counts = _histogram(forms, shots, rng)
        elapsed = time.perf_counter() - started
        return ExecutionResult(
            counts=counts,
            shots=shots,
            n_qubits=width,
            backend=self.backend_name,
            seconds=elapsed,
            depth=classification.depth,
            n_gates=classification.n_gates,
            extra={"n_random_bits": tableau.n_random_bits},
        )

    def expectation(
        self,
        circuit: CompositeInstruction,
        observable,
        *,
        n_qubits: int | None = None,
        params: Params = None,
        optimize: bool = True,
        chunk_threshold: int | None = None,
        precision: str = DEFAULT_PRECISION,
    ) -> float:
        from ..operators.pauli import PauliOperator, PauliTerm

        if isinstance(observable, PauliTerm):
            observable = PauliOperator([observable])
        if not isinstance(observable, PauliOperator):
            raise ExecutionError(
                f"expected a PauliOperator/PauliTerm, got {type(observable).__name__}"
            )
        if params is not None:
            circuit = circuit.bind(params)
        elif circuit.is_parameterized:
            raise ExecutionError(
                f"circuit {circuit.name!r} has unbound parameters; provide params"
            )
        classification = self._classified(circuit)
        if classification.has_reset:
            raise ExecutionError(
                "exact expectations are undefined for circuits with mid-circuit resets"
            )
        width = _resolve_width(circuit, n_qubits)
        tableau = StabilizerTableau(width)
        self._evolve(tableau, classification)
        total = 0.0
        for term in observable.terms:
            if term.is_identity:
                total += term.coefficient.real
                continue
            total += term.coefficient.real * tableau.expectation_sign(term.paulis)
        return float(total)

    def __repr__(self) -> str:
        return "StabilizerBackend()"
