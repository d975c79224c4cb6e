"""Unit tests for the job broker's canonical keys and result cache."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.bell import bell_circuit
from repro.algorithms.ghz import ghz_circuit
from repro.exceptions import ExecutionError
from repro.service.cache import CachedResult, ResultCache, subsample_counts
from repro.service.keys import (
    _NON_SEMANTIC_OPTIONS,
    circuit_content_hash,
    config_fingerprint,
    job_key,
)

#: (option, values it is toggled through, semantic?).  Every non-semantic
#: member is listed, so adding one to ``_NON_SEMANTIC_OPTIONS`` is covered
#: without touching this table; ``batch-diagonals`` is a compile-level
#: argument, not a job option, and ``adaptive-lane`` / ``shm-states`` are
#: retired options, so each fragments keys like any unknown one.
_KEY_TOGGLES = [
    (name, (0, 1, 2, 64, True, False, "x"), False) for name in sorted(_NON_SEMANTIC_OPTIONS)
] + [
    ("optimize", (True, False), True),
    ("precision", ("double", "single"), True),
    ("method", ("statevector", "stabilizer"), True),
    ("batch-diagonals", (True, False), True),
    ("adaptive-lane", (True, False), True),
    ("shm-states", (1, 4), True),
]


class TestKeySoundness:
    @pytest.mark.parametrize(
        "option,values,semantic", _KEY_TOGGLES, ids=[row[0] for row in _KEY_TOGGLES]
    )
    @pytest.mark.parametrize("base", [{}, {"optimize": True, "p1": 0.01}])
    def test_toggling_an_option_moves_the_key_iff_semantic(
        self, option, values, semantic, base
    ):
        circuit = ghz_circuit(3)
        keys = [job_key(circuit, "qpp", {**base, option: value}) for value in values]
        if semantic:
            assert len(set(keys)) == len(values)
        else:
            assert set(keys) == {job_key(circuit, "qpp", base)}


class TestJobKeys:
    def test_same_circuit_same_key(self):
        assert job_key(bell_circuit(2), "qpp") == job_key(bell_circuit(2), "qpp")

    def test_circuit_name_does_not_fragment_keys(self):
        a = bell_circuit(2)
        b = bell_circuit(2)
        b.name = "a_totally_different_name"
        assert circuit_content_hash(a) == circuit_content_hash(b)

    def test_different_instructions_different_key(self):
        assert job_key(bell_circuit(2), "qpp") != job_key(ghz_circuit(3), "qpp")

    def test_backend_fragment_keys(self):
        assert job_key(bell_circuit(2), "qpp") != job_key(bell_circuit(2), "noisy-qpp")

    def test_non_semantic_options_ignored(self):
        # Thread count changes speed, not measurement distributions.
        assert config_fingerprint("qpp", {"threads": 4}) == config_fingerprint(
            "qpp", {"threads": 8}
        )
        assert config_fingerprint("qpp", {"threads": 4}) == config_fingerprint("qpp")

    def test_plan_tuning_options_are_non_semantic(self):
        # Chunked replay is bitwise identical: it may not fragment the cache.
        assert config_fingerprint("qpp", {"chunk-threshold": 2}) == config_fingerprint("qpp")
        assert config_fingerprint(
            "qpp", {"chunk-threshold": 64, "threads": 2}
        ) == config_fingerprint("qpp")

    def test_semantic_options_fragment_keys(self):
        assert config_fingerprint("noisy-qpp", {"p1": 0.01}) != config_fingerprint(
            "noisy-qpp", {"p1": 0.05}
        )

    def test_backend_name_case_insensitive(self):
        assert config_fingerprint("QPP") == config_fingerprint("qpp")


class TestSubsampleCounts:
    def test_preserves_total_and_support(self):
        counts = {"00": 600, "11": 400}
        sub = subsample_counts(counts, 100, np.random.default_rng(7))
        assert sum(sub.values()) == 100
        assert set(sub) <= set(counts)

    def test_full_total_returns_copy(self):
        counts = {"00": 10, "11": 6}
        sub = subsample_counts(counts, 16)
        assert sub == counts
        assert sub is not counts

    def test_oversample_rejected(self):
        with pytest.raises(ExecutionError):
            subsample_counts({"0": 5}, 6)

    def test_deterministic_for_same_rng_seed(self):
        counts = {"00": 512, "01": 128, "11": 384}
        first = subsample_counts(counts, 200, np.random.default_rng(42))
        second = subsample_counts(counts, 200, np.random.default_rng(42))
        assert first == second

    def test_never_exceeds_per_bin_counts(self):
        counts = {"0": 3, "1": 997}
        sub = subsample_counts(counts, 500, np.random.default_rng(0))
        assert sub.get("0", 0) <= 3


class TestResultCache:
    def test_miss_then_hit_stats(self):
        cache = ResultCache(capacity=4)
        assert cache.lookup("k", 100) is None
        cache.store("k", {"00": 60, "11": 40}, backend="qpp")
        entry = cache.lookup("k", 100)
        assert isinstance(entry, CachedResult)
        assert entry.shots == 100
        stats = cache.stats()
        assert (stats.misses, stats.hits, stats.partial_hits) == (1, 1, 0)
        assert stats.hit_rate == 0.5

    def test_partial_hit_when_fewer_shots_cached(self):
        cache = ResultCache(capacity=4)
        cache.store("k", {"0": 50}, backend="qpp")
        entry = cache.lookup("k", 200)
        assert entry is not None and entry.shots == 50
        assert cache.stats().partial_hits == 1

    def test_top_up_merges_counts(self):
        cache = ResultCache(capacity=4)
        cache.store("k", {"00": 30, "11": 20}, backend="qpp")
        merged = cache.top_up("k", {"00": 5, "01": 10}, backend="qpp")
        assert merged.counts == {"00": 35, "11": 20, "01": 10}
        assert merged.shots == 65
        assert cache.stats().top_ups == 1

    def test_top_up_of_evicted_key_inserts(self):
        cache = ResultCache(capacity=4)
        merged = cache.top_up("fresh", {"0": 8}, backend="qpp")
        assert merged.shots == 8
        assert cache.stats().top_ups == 0

    def test_lru_eviction_order(self):
        cache = ResultCache(capacity=2)
        cache.store("a", {"0": 1}, backend="qpp")
        cache.store("b", {"0": 1}, backend="qpp")
        cache.lookup("a", 1)  # refresh "a" so "b" is the LRU victim
        cache.store("c", {"0": 1}, backend="qpp")
        assert "a" in cache and "c" in cache
        assert "b" not in cache
        assert cache.stats().evictions == 1

    def test_peek_does_not_touch_stats_or_order(self):
        cache = ResultCache(capacity=2)
        cache.store("a", {"0": 1}, backend="qpp")
        cache.store("b", {"0": 1}, backend="qpp")
        cache.peek("a")  # not a refresh: "a" stays the LRU victim
        cache.store("c", {"0": 1}, backend="qpp")
        assert "a" not in cache
        assert cache.stats().lookups == 0

    def test_invalidate_and_clear(self):
        cache = ResultCache(capacity=4)
        cache.store("a", {"0": 1}, backend="qpp")
        assert cache.invalidate("a")
        assert not cache.invalidate("a")
        cache.store("b", {"0": 1}, backend="qpp")
        cache.clear()
        assert len(cache) == 0

    def test_memory_bytes_tracks_the_walked_total(self):
        """The running total equals a walk over the live entries after any
        mix of inserts, replacements, top-ups, evictions and removals."""
        rng = np.random.default_rng(20261001)
        cache = ResultCache(capacity=5)

        def histogram():
            width = int(rng.integers(1, 9))
            keys = {format(int(k), f"0{width}b") for k in rng.integers(0, 2**width, 12)}
            return {key: int(rng.integers(1, 50)) for key in keys}

        for _ in range(400):
            key = f"k{int(rng.integers(0, 9))}"
            op = rng.integers(0, 10)
            if op < 4:
                cache.store(key, histogram(), backend="qpp")
            elif op < 7:
                cache.top_up(key, histogram(), backend="qpp")
            elif op < 9:
                cache.invalidate(key)
            else:
                cache.clear()
            walked = sum(
                len(bitstring) + 8
                for k in list(cache._entries)
                for bitstring in cache.peek(k).counts
            )
            assert cache.memory_bytes() == walked
        assert cache.stats().evictions > 0 and cache.stats().top_ups > 0

    def test_capacity_validated(self):
        with pytest.raises(ExecutionError):
            ResultCache(capacity=0)
