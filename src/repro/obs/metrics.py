"""Fixed-bucket latency histograms with quantile estimation.

Prometheus-style cumulative-friendly histograms: a fixed tuple of
upper-bound buckets (seconds), an implicit ``+Inf`` overflow bucket, and a
running sum.  Fixed buckets keep :meth:`LatencyHistogram.observe` O(log n)
and allocation-free, so the broker can record every execution without a
measurable cost; quantiles are estimated by linear interpolation inside
the bucket containing the target rank, exactly as a Prometheus
``histogram_quantile`` would.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "HistogramSnapshot",
    "LatencyHistogram",
]

# Log-spaced from 10µs to 60s: wide enough for a cache-hit fast path at the
# bottom and a 20+ qubit chunked replay at the top.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    10e-6,
    25e-6,
    50e-6,
    100e-6,
    250e-6,
    500e-6,
    1e-3,
    2.5e-3,
    5e-3,
    10e-3,
    25e-3,
    50e-3,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
    60.0,
)


@dataclass(frozen=True)
class HistogramSnapshot:
    """Immutable point-in-time view of a :class:`LatencyHistogram`.

    ``counts`` has ``len(bounds) + 1`` entries; the last is the ``+Inf``
    overflow bucket.
    """

    bounds: tuple[float, ...]
    counts: tuple[int, ...]
    count: int
    total_seconds: float
    min_seconds: float = 0.0
    max_seconds: float = 0.0

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile in seconds (linear within the bucket)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cumulative = 0
        for i, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            lo = self.bounds[i - 1] if i > 0 else 0.0
            if i < len(self.bounds):
                hi = self.bounds[i]
            else:
                # Overflow bucket: no upper bound to interpolate toward;
                # report the largest value actually observed.
                hi = max(self.max_seconds, lo)
            if cumulative + bucket_count >= rank:
                within = max(0.0, rank - cumulative)
                estimate = lo + (hi - lo) * (within / bucket_count)
                return min(max(estimate, self.min_seconds), self.max_seconds or estimate)
            cumulative += bucket_count
        return self.max_seconds

    @property
    def p50_seconds(self) -> float:
        return self.quantile(0.50)

    @property
    def p95_seconds(self) -> float:
        return self.quantile(0.95)

    @property
    def p99_seconds(self) -> float:
        return self.quantile(0.99)

    def cumulative_counts(self) -> tuple[int, ...]:
        """Prometheus-style cumulative bucket counts (last == ``count``)."""
        total = 0
        out = []
        for c in self.counts:
            total += c
            out.append(total)
        return tuple(out)


class LatencyHistogram:
    """Thread-safe fixed-bucket histogram of durations in seconds."""

    __slots__ = ("_bounds", "_counts", "_count", "_total", "_min", "_max", "_lock")

    def __init__(self, bounds: Iterable[float] = DEFAULT_LATENCY_BUCKETS):
        bounds = tuple(sorted(float(b) for b in bounds))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b <= 0 for b in bounds):
            raise ValueError("bucket bounds must be positive")
        self._bounds = bounds
        self._counts = [0] * (len(bounds) + 1)
        self._count = 0
        self._total = 0.0
        self._min = 0.0
        self._max = 0.0
        self._lock = threading.Lock()

    @property
    def bounds(self) -> tuple[float, ...]:
        return self._bounds

    def observe(self, seconds: float) -> None:
        seconds = max(0.0, float(seconds))
        index = bisect_left(self._bounds, seconds)
        with self._lock:
            self._counts[index] += 1
            if self._count == 0:
                self._min = seconds
                self._max = seconds
            else:
                if seconds < self._min:
                    self._min = seconds
                if seconds > self._max:
                    self._max = seconds
            self._count += 1
            self._total += seconds

    def merge(self, other: "LatencyHistogram | HistogramSnapshot") -> None:
        """Fold another histogram (same bounds) into this one."""
        if isinstance(other, LatencyHistogram):
            other = other.snapshot()
        if other.bounds != self._bounds:
            raise ValueError("cannot merge histograms with different bucket bounds")
        if other.count == 0:
            return
        with self._lock:
            for i, c in enumerate(other.counts):
                self._counts[i] += c
            if self._count == 0:
                self._min = other.min_seconds
                self._max = other.max_seconds
            else:
                self._min = min(self._min, other.min_seconds)
                self._max = max(self._max, other.max_seconds)
            self._count += other.count
            self._total += other.total_seconds

    def snapshot(self) -> HistogramSnapshot:
        with self._lock:
            return HistogramSnapshot(
                bounds=self._bounds,
                counts=tuple(self._counts),
                count=self._count,
                total_seconds=self._total,
                min_seconds=self._min,
                max_seconds=self._max,
            )

    def __len__(self) -> int:
        with self._lock:
            return self._count
