"""Bounded LRU result cache with shot-count reconciliation.

Entries are keyed by the canonical job key (:mod:`repro.service.keys`), so a
cached histogram represents *all* executions of one (circuit, backend,
config) identity regardless of shot count.  Reconciliation against a
request's shot count happens in two directions:

* the cache holds **at least** as many shots as requested → the stored
  histogram is *subsampled* without replacement (hypergeometric draw) down
  to the requested total, so the served counts are statistically exactly
  what a fresh run of that size would produce given the recorded outcomes;
* the cache holds **fewer** shots than requested → the broker runs only the
  missing shots (a *top-up*) and merges them into the entry via
  :func:`repro.simulator.sampling.merge_counts`.

The cache never hands out mutable internal state: entry histograms are
read-only mapping views shared by every caller.

An entry also keeps its histogram in *array form* — the lexicographically
sorted keys and an ``int64`` count array, built once on the entry's first
subsample (an entry that is never read back never pays for it) — so a hit
sorts nothing and touches only the bins it drew.  The hit path
(:meth:`CachedResult.subsample`) and the public :func:`subsample_counts` go
through one draw routine, :func:`_draw`; they differ only in where the
array form comes from.  Each entry knows its own payload size, and the
cache keeps the running total :meth:`ResultCache.memory_bytes` reports.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Callable, Mapping

import numpy as np

from ..exceptions import ExecutionError
from ..simulator.sampling import merge_counts

__all__ = ["CacheStats", "CachedResult", "ResultCache", "subsample_counts"]


def _array_form(counts: Mapping[str, int]) -> tuple[list[str], np.ndarray]:
    """``counts`` as (lexicographically sorted keys, their counts as int64)."""
    keys = sorted(counts)
    return keys, np.fromiter(map(counts.__getitem__, keys), np.int64, len(keys))


def _draw(
    counts: Mapping[str, int],
    total: int,
    shots: int,
    rng: np.random.Generator | None,
    array_form: Callable[[], tuple[list[str], np.ndarray]],
) -> dict[str, int]:
    """``shots`` of the ``total`` observations in ``counts``, without replacement."""
    if shots > total:
        raise ExecutionError(
            f"cannot subsample {shots} shots from a {total}-shot histogram"
        )
    if shots == total:
        return dict(counts)
    rng = rng if rng is not None else np.random.default_rng()
    keys, colors = array_form()
    draws = rng.multivariate_hypergeometric(colors, shots)
    drawn = np.flatnonzero(draws)
    return dict(zip(map(keys.__getitem__, drawn.tolist()), draws[drawn].tolist()))


def subsample_counts(
    counts: Mapping[str, int], shots: int, rng: np.random.Generator | None = None
) -> dict[str, int]:
    """Draw ``shots`` observations from ``counts`` without replacement.

    Equivalent to picking ``shots`` of the recorded outcomes uniformly at
    random (a multivariate hypergeometric draw), which is exactly the
    distribution of a prefix of the original run.  ``shots`` equal to the
    histogram total returns a plain copy.
    """
    return _draw(counts, sum(counts.values()), shots, rng, lambda: _array_form(counts))


@dataclass(frozen=True)
class CacheStats:
    """Immutable counter snapshot."""

    hits: int = 0
    partial_hits: int = 0
    misses: int = 0
    insertions: int = 0
    top_ups: int = 0
    evictions: int = 0
    size: int = 0
    capacity: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.partial_hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups fully served from the cache."""
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0


@dataclass(frozen=True)
class CachedResult:
    """One stored histogram: counts plus provenance.

    ``counts`` is a read-only view — entries are shared with every caller
    that looked the key up, so handing out a mutable dict would let one
    client corrupt what another is served.
    """

    counts: Mapping[str, int]
    shots: int
    backend: str
    #: Payload bytes: one per key character plus a machine word per count.
    nbytes: int = field(init=False, compare=False)

    def __post_init__(self) -> None:
        size = sum(map(len, self.counts)) + 8 * len(self.counts)
        object.__setattr__(self, "nbytes", size)

    @cached_property
    def _arrays(self) -> tuple[list[str], np.ndarray]:
        # Threads racing on a new entry each build the same pair.
        return _array_form(self.counts)

    def subsample(
        self, shots: int, rng: np.random.Generator | None = None
    ) -> dict[str, int]:
        """:func:`subsample_counts` of this entry, without re-sorting it."""
        return _draw(self.counts, self.shots, shots, rng, lambda: self._arrays)


class ResultCache:
    """Thread-safe bounded LRU cache of measurement histograms."""

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ExecutionError(f"cache capacity must be at least 1, got {capacity}")
        self.capacity = int(capacity)
        self._entries: "OrderedDict[str, CachedResult]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._partial_hits = 0
        self._misses = 0
        self._insertions = 0
        self._top_ups = 0
        self._evictions = 0
        #: Sum of ``nbytes`` over the live entries.
        self._bytes = 0

    # -- lookup ------------------------------------------------------------------
    def lookup(self, key: str, shots: int) -> CachedResult | None:
        """Return the entry for ``key`` and record hit/partial/miss stats.

        A *hit* means the entry can fully serve ``shots`` (possibly after
        subsampling); a *partial hit* means the entry exists but holds fewer
        shots, so the caller must top it up; a *miss* returns ``None``.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            if entry.shots >= shots:
                self._hits += 1
            else:
                self._partial_hits += 1
            return entry

    def peek(self, key: str) -> CachedResult | None:
        """Return the entry without touching stats or LRU order."""
        with self._lock:
            return self._entries.get(key)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # -- mutation ------------------------------------------------------------------
    def _put(self, key: str, entry: CachedResult) -> None:
        """Make ``entry`` the most recent one for ``key``; evict LRU overflow.

        Caller holds the lock.  Every path that adds or drops an entry moves
        the running byte total with it.
        """
        replaced = self._entries.pop(key, None)
        if replaced is not None:
            self._bytes -= replaced.nbytes
        self._entries[key] = entry
        self._bytes += entry.nbytes
        while len(self._entries) > self.capacity:
            _, evicted = self._entries.popitem(last=False)
            self._bytes -= evicted.nbytes
            self._evictions += 1

    def store(self, key: str, counts: Mapping[str, int], backend: str) -> CachedResult:
        """Insert (or replace) the histogram for ``key``; evicts LRU overflow."""
        entry = CachedResult(
            MappingProxyType(dict(counts)), sum(counts.values()), backend
        )
        with self._lock:
            self._put(key, entry)
            self._insertions += 1
        return entry

    def top_up(
        self, key: str, extra_counts: Mapping[str, int], backend: str
    ) -> CachedResult:
        """Merge a top-up run into the entry for ``key`` (creating it if evicted)."""
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                merged = merge_counts([existing.counts, extra_counts])
                self._top_ups += 1
            else:
                merged = dict(extra_counts)
                self._insertions += 1
            entry = CachedResult(
                MappingProxyType(merged), sum(merged.values()), backend
            )
            self._put(key, entry)
        return entry

    def memory_bytes(self) -> int:
        """Approximate resident bytes of all cached histograms.

        Counts the bitstring keys (one byte per character) and one machine
        word per count — the payload that grows with outcome diversity.
        Container overhead is deliberately ignored: admission control needs
        a stable, cheap estimate, not a profiler.  It polls this on every
        budgeted admit, so the total is kept as entries come and go rather
        than walked under the lock every hit needs.
        """
        with self._lock:
            return self._bytes

    def invalidate(self, key: str) -> bool:
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is not None:
                self._bytes -= entry.nbytes
            return entry is not None

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    # -- stats ------------------------------------------------------------------------
    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                partial_hits=self._partial_hits,
                misses=self._misses,
                insertions=self._insertions,
                top_ups=self._top_ups,
                evictions=self._evictions,
                size=len(self._entries),
                capacity=self.capacity,
            )
