"""Histograms served from the result cache, pinned bit for bit.

The digests in ``GOLDEN`` were recorded at commit 164e1b8, before cache
hits were served from array-form entries and a per-thread re-armed
generator: sha256 over the ordered ``(key, count)`` items of full hits,
subsampled hits, repeated hits of one key, a top-up and sweep member hits.
A different draw order, a different random stream or a different dict order
each moves a digest.  The shared draw routine is also checked against the
four-line ``subsample_counts`` that commit shipped, and the hit path against
a work bound that commit fails.
"""

from __future__ import annotations

import builtins
import hashlib
import json
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import set_config
from repro.exceptions import ExecutionError
from repro.ir.builder import CircuitBuilder
from repro.ir.parameter import Parameter
from repro.service import QuantumJobService, ResultCache, subsample_counts
from repro.simulator.sampling import SAMPLING_STREAM

SEEDS = (1234, 0)
SHOTS = 2048


def digest(counts) -> str:
    items = json.dumps(list(counts.items()), separators=(",", ":"))
    return hashlib.sha256(items.encode()).hexdigest()[:16]


def dense_circuit(n_qubits: int = 8):
    """A non-Clifford circuit whose histogram populates most outcomes."""
    builder = CircuitBuilder(n_qubits, name="hit_identity")
    for layer in range(3):
        for qubit in range(n_qubits):
            builder.ry(qubit, 0.37 * (qubit + 1) + 0.91 * layer)
        for qubit in range(n_qubits - 1):
            builder.cx(qubit, qubit + 1)
    return builder.measure_all().build()


def ansatz(n_qubits: int = 4):
    builder = CircuitBuilder(n_qubits, name="hit_identity_ansatz")
    for qubit in range(n_qubits):
        builder.ry(qubit, Parameter(f"t{qubit}"))
    for qubit in range(n_qubits - 1):
        builder.cx(qubit, qubit + 1)
    return builder.measure_all().build()


BINDINGS = ([0.1, 0.2, 0.3, 0.4], [1.1, 0.7, 0.3, 2.0], [0.5, 0.5, 0.5, 0.5])


def scenario(seed: int) -> dict[str, str]:
    """Every way the cache serves a histogram, as ``{step: digest}``."""
    set_config(seed=seed, omp_num_threads=2)
    served: dict[str, str] = {}
    with QuantumJobService(workers=2, name=f"hit-identity-{seed}") as service:
        circuit = dense_circuit()

        def hit(shots: int) -> str:
            result = service.submit(circuit, shots=shots).result(timeout=30)
            assert result.from_cache and sum(result.counts.values()) == shots
            return digest(result.counts)

        fresh = service.submit(circuit, shots=SHOTS).result(timeout=30)
        assert not fresh.from_cache
        served["fresh"] = digest(fresh.counts)
        served["full"] = hit(SHOTS)
        for shots in (1, 256, 1000, SHOTS - 1):
            served[f"sub{shots}"] = hit(shots)
        # Repeated hits of one key read the same stream from its start.
        assert hit(256) == hit(256) == served["sub256"]
        # A second client thread is served what the first one is.
        other: dict[str, str] = {}
        thread = threading.Thread(target=lambda: other.update(sub256=hit(256), full=hit(SHOTS)))
        thread.start()
        thread.join(timeout=30)
        assert other == {"sub256": served["sub256"], "full": served["full"]}

        topped = service.submit(circuit, shots=3000).result(timeout=30)
        assert not topped.from_cache and service.metrics().cache.top_ups == 1
        served["top_up"] = digest(topped.counts)
        served["top_up_full"] = hit(3000)
        served["top_up_sub1000"] = hit(1000)

        template = ansatz()
        rows = service.submit_sweep(template, BINDINGS, shots=512).result(timeout=30)
        for row in rows:
            served[f"sweep_fresh{row.index}"] = digest(row.counts)
        again = service.submit_sweep(template, BINDINGS[1:], shots=200).result(timeout=30)
        assert all(row.from_cache for row in again)
        for row in again:
            served[f"sweep_member{row.index}"] = digest(row.counts)
    return served


GOLDEN: dict[int, dict[str, str]] = {
    1234: {
        "fresh": "30eb965dd4c7527a",
        "full": "30eb965dd4c7527a",
        "sub1": "36adf3cf99a96475",
        "sub256": "a60575a9802fa03e",
        "sub1000": "ac37651385e55b5d",
        "sub2047": "36f80990f2c60ace",
        "top_up": "1439727b9c35de16",
        "top_up_full": "1439727b9c35de16",
        "top_up_sub1000": "9fcebbe10b51f218",
        "sweep_fresh0": "69594a09c66018e8",
        "sweep_fresh1": "dd6f8bbbcf8f469d",
        "sweep_fresh2": "e6a437bdb2eb4507",
        "sweep_member0": "5a282f33a8098f75",
        "sweep_member1": "9d9130d038bbfdbf",
    },
    0: {
        "fresh": "7987f04a29cf1044",
        "full": "7987f04a29cf1044",
        "sub1": "e995edc93bf775a5",
        "sub256": "4240cddda23b8a25",
        "sub1000": "bcf6c721b9ac28b7",
        "sub2047": "a11c8bde6f6f9484",
        "top_up": "21d8fe82add552c5",
        "top_up_full": "21d8fe82add552c5",
        "top_up_sub1000": "a5c7b6836dbb3bfd",
        "sweep_fresh0": "da6dd07709c44925",
        "sweep_fresh1": "e65214356bfea52b",
        "sweep_fresh2": "ed8c0056abc3f24e",
        "sweep_member0": "9ff75a2b29bcb5ef",
        "sweep_member1": "00905e6026ae27ec",
    },
}


@pytest.mark.parametrize("seed", SEEDS)
def test_served_histograms_match_the_recorded_digests(seed):
    # Recorded at stream 1 on two threads; re-recorded once at stream 4.
    assert SAMPLING_STREAM == 4
    assert scenario(seed) == GOLDEN[seed]


# -- the one draw routine ------------------------------------------------------------


def reference_subsample(counts, shots, rng):
    """``subsample_counts`` as shipped at 164e1b8 (after its typed error)."""
    total = sum(counts.values())
    if shots == total:
        return dict(counts)
    bitstrings = sorted(counts)
    draws = rng.multivariate_hypergeometric([counts[b] for b in bitstrings], shots)
    return {b: int(d) for b, d in zip(bitstrings, draws) if d > 0}


histograms = st.one_of(
    st.dictionaries(st.text("01", min_size=1, max_size=6), st.integers(1, 500), min_size=1),
    st.dictionaries(st.text("01", min_size=1, max_size=6), st.just(1), min_size=1),
    st.dictionaries(st.just("0"), st.integers(1, 5000), min_size=1),
)


@settings(max_examples=200, deadline=None)
@given(histograms, st.data(), st.integers(0, 2**32 - 1))
def test_draw_routine_equals_the_parent_subsample(counts, data, seed):
    total = sum(counts.values())
    shots = data.draw(st.one_of(st.just(total), st.integers(0, total)))
    expected = reference_subsample(counts, shots, np.random.default_rng(seed))
    public = subsample_counts(counts, shots, np.random.default_rng(seed))
    assert list(public.items()) == list(expected.items())
    assert all(type(v) is int for v in public.values())
    # The cache's array-form entry goes through the same routine.
    entry = ResultCache().store("k", counts, "qpp")
    for _ in range(2):  # second draw reads the memoised array form
        hit = entry.subsample(shots, np.random.default_rng(seed))
        assert list(hit.items()) == list(expected.items())
    assert public is not counts and hit is not entry.counts


def test_too_many_shots_error_text_is_unchanged():
    message = "cannot subsample 6 shots from a 5-shot histogram"
    with pytest.raises(ExecutionError, match=message):
        subsample_counts({"0": 5}, 6)
    with pytest.raises(ExecutionError, match=message):
        ResultCache().store("k", {"0": 5}, "qpp").subsample(6)


# -- work bound ------------------------------------------------------------------------


def test_hits_neither_serialise_the_circuit_nor_sort_the_histogram(monkeypatch):
    """2 000 hits on one cached 12-qubit entry: zero ``json.dumps`` calls and
    zero ``sorted`` calls over the histogram (164e1b8: 4 000 and 2 000)."""
    set_config(seed=1234, omp_num_threads=2)
    circuit = dense_circuit(12)
    with QuantumJobService(workers=1, name="hit-work-bound") as service:
        service.submit(circuit, shots=SHOTS).result(timeout=60)
        first = service.submit(circuit, shots=256).result(timeout=30)  # builds the array form
        n_bins = len(service.cache.peek(first.key).counts)
        assert first.from_cache and n_bins > 256

        calls = {"dumps": 0, "sorted": 0}
        real_dumps, real_sorted = json.dumps, builtins.sorted

        def counting_dumps(*args, **kwargs):
            calls["dumps"] += 1
            return real_dumps(*args, **kwargs)

        def counting_sorted(iterable, *args, **kwargs):
            iterable = list(iterable)
            calls["sorted"] += len(iterable) == n_bins
            return real_sorted(iterable, *args, **kwargs)

        monkeypatch.setattr(json, "dumps", counting_dumps)
        monkeypatch.setattr(builtins, "sorted", counting_sorted)
        for _ in range(2000):
            result = service.submit(circuit, shots=256).result(timeout=30)
        monkeypatch.undo()
        assert result.from_cache and result.counts == first.counts
        assert calls == {"dumps": 0, "sorted": 0}
