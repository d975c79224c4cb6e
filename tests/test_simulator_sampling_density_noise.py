"""Tests for sampling, the density-matrix simulator and noise channels."""

import importlib.util
import inspect
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms.bell import bell_circuit
from repro.algorithms.qft import qft_circuit
from repro.exceptions import ExecutionError, NoiseModelError
from repro.exec import LocalBackend, ShardedExecutor
from repro.ir.builder import CircuitBuilder
from repro.ir.gates import CX, H, X
from repro.simulator.density import DensityMatrix
from repro.simulator.noise import (
    KrausChannel,
    NoiseModel,
    amplitude_damping_channel,
    bit_flip_channel,
    depolarizing_channel,
    phase_flip_channel,
)
from repro.simulator.sampling import (
    INVERSE_CDF_MIN_BINS,
    SAMPLING_STREAM,
    _inverse_cdf_wins,
    _keyed,
    _marginal,
    format_bitstring,
    format_packed_keys,
    job_rng,
    sample_counts,
)
from repro.simulator import execution_plan
from repro.simulator.parallel_engine import ParallelSimulationEngine
from repro.simulator.plan_cache import PlanCache
from repro.simulator.statevector import StateVector
from repro.testing import reference_marginal_probabilities, reference_sample_counts


def sampled_marginal(probs, qubits, n_qubits):
    """The marginal ``sample_counts`` draws from, keyed like its counts."""
    return _keyed(*_marginal(probs, tuple(qubits), n_qubits), len(qubits))


def _load_e2e_oracle():
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "oracle.py"
    spec = importlib.util.spec_from_file_location("e2e_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tv_bound = _load_e2e_oracle().tv_bound


class TestSampling:
    def test_format_bitstring(self):
        assert format_bitstring(0b101, (0, 1, 2)) == "101"
        assert format_bitstring(0b101, (2, 0)) == "11"

    def test_marginals_sum_to_one(self):
        probs = np.full(8, 1 / 8)
        marginals = sampled_marginal(probs, (0, 2), 3)
        assert sum(marginals.values()) == pytest.approx(1.0)
        assert set(marginals) == {"00", "01", "10", "11"}

    def test_marginals_of_correlated_state(self):
        probs = np.zeros(4)
        probs[0] = probs[3] = 0.5
        marginals = sampled_marginal(probs, (0,), 2)
        assert marginals == pytest.approx({"0": 0.5, "1": 0.5})

    def test_sample_counts_total_matches_shots(self):
        probs = np.array([0.25, 0.25, 0.25, 0.25])
        counts = sample_counts(probs, 1000, (0, 1), 2, np.random.default_rng(0))
        assert sum(counts.values()) == 1000

    def test_deterministic_distribution(self):
        probs = np.zeros(4)
        probs[2] = 1.0  # |q1=1, q0=0>
        counts = sample_counts(probs, 50, (0, 1), 2, np.random.default_rng(0))
        assert counts == {"01": 50}

    def test_zero_shots_rejected(self):
        with pytest.raises(ExecutionError):
            sample_counts(np.array([1.0, 0.0]), 0, (0,), 1)

    def test_no_measured_qubits_rejected(self):
        with pytest.raises(ExecutionError):
            sample_counts(np.array([1.0, 0.0]), 10, (), 1)

    def test_reproducible_with_seeded_rng(self):
        probs = np.full(4, 0.25)
        a = sample_counts(probs, 100, (0, 1), 2, np.random.default_rng(42))
        b = sample_counts(probs, 100, (0, 1), 2, np.random.default_rng(42))
        assert a == b


@st.composite
def sampling_cases(draw):
    """(probabilities, measured qubits, n_qubits, shots, seed) covering zero and
    negative-drift bins, single-bin support, totals an ulp off 1 and awkward
    qubit lists."""
    n_qubits = draw(st.integers(min_value=1, max_value=6))
    dim = 1 << n_qubits
    if draw(st.booleans()):
        weights = np.zeros(dim)
        weights[draw(st.integers(min_value=0, max_value=dim - 1))] = 1.0
    else:
        raw = draw(
            st.lists(
                # zero bins, bins drifted a hair below zero, ordinary bins
                st.one_of(
                    st.sampled_from([0.0, -1e-18]), st.floats(min_value=1e-12, max_value=1.0)
                ),
                min_size=dim,
                max_size=dim,
            ).filter(lambda xs: sum(xs) > 0.0)
        )
        weights = np.array(raw) / np.sum(raw)
    # Push the total an ulp-scale step below / above 1 (float drift after
    # long gate sequences), or leave it alone.
    weights = weights * draw(st.sampled_from([1.0 - 2**-52, 1.0, 1.0 + 2**-51]))
    if draw(st.booleans()):
        qubits = list(range(n_qubits))  # identity index map
    else:
        qubits = draw(  # unsorted, duplicates allowed
            st.lists(st.integers(min_value=0, max_value=n_qubits - 1), min_size=1, max_size=8)
        )
    shots = draw(st.integers(min_value=1, max_value=4096))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return weights, qubits, n_qubits, shots, seed


@st.composite
def wide_sampling_cases(draw):
    """Cases with 2^9..2^11 marginal bins, so draws land on both sides of
    the inverse-CDF rule: zero and negative-drift bins, awkward qubit lists."""
    n_qubits = draw(st.integers(min_value=9, max_value=11))
    state_rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    weights = state_rng.random(1 << n_qubits) ** draw(st.sampled_from([1, 8]))
    holes = state_rng.random(weights.size) < draw(st.sampled_from([0.0, 0.05, 0.5]))
    weights[holes] = state_rng.choice([0.0, -1e-18], size=int(holes.sum()))
    weights = weights / weights.sum() * draw(st.sampled_from([1.0 - 2**-52, 1.0, 1.0 + 2**-51]))
    if draw(st.booleans()):
        qubits = list(range(n_qubits))
    else:
        qubits = draw(st.permutations(range(n_qubits)))[: draw(st.integers(9, n_qubits))]
        qubits += qubits[:2]  # duplicates are dropped
    shots = draw(st.integers(min_value=1, max_value=3000))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return weights, qubits, n_qubits, shots, seed


class _Refusing:
    """A generator proxy whose ``blocked`` draw method raises."""

    def __init__(self, rng, blocked):
        self._rng, self._blocked = rng, blocked

    def __getattr__(self, name):
        if name == self._blocked:
            raise AssertionError(f"{name} drawn")
        return getattr(self._rng, name)


class TestSamplerMatchesReference:
    """The sparse sampler against the dict-building oracle it replaced."""

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.one_of(sampling_cases(), wide_sampling_cases()))
    def test_fixed_seed_counts_equal_the_oracle(self, case):
        probs, qubits, n_qubits, shots, seed = case
        new = sample_counts(probs, shots, qubits, n_qubits, np.random.default_rng(seed))
        old = reference_sample_counts(probs, shots, qubits, n_qubits, np.random.default_rng(seed))
        assert new == old
        assert sampled_marginal(probs, qubits, n_qubits) == (
            reference_marginal_probabilities(probs, tuple(qubits), n_qubits)
        )

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_bins_are_rejected_not_dropped(self, bad):
        probs = np.array([0.5, bad, 0.25, 0.25])
        for sampler in (sample_counts, reference_sample_counts):
            with pytest.raises(ExecutionError, match="cannot sample"):
                sampler(probs, 10, (0, 1), 2, np.random.default_rng(0))

    def test_all_zero_vector_rejected(self):
        with pytest.raises(ExecutionError, match="cannot sample"):
            sample_counts(np.zeros(4), 10, (0, 1), 2, np.random.default_rng(0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, "zero"])
    @pytest.mark.parametrize("shots", [10, 4096])
    def test_bad_vectors_are_rejected_on_both_sides_of_the_rule(self, bad, shots):
        probs = np.full(1024, 1 / 1024)
        if bad == "zero":
            probs[:] = 0.0
        else:
            probs[3] = bad
        for sampler in (sample_counts, reference_sample_counts):
            with pytest.raises(ExecutionError, match="cannot sample"):
                sampler(probs, shots, range(10), 10, np.random.default_rng(0))

    @pytest.mark.parametrize("shots", [10, 4096])
    def test_sub_ulp_negative_bins_are_dropped(self, shots):
        probs = np.full(1024, 1 / 1000)
        probs[::41] = -1e-18
        counts = sample_counts(probs, shots, range(10), 10, np.random.default_rng(5))
        dropped = {format_bitstring(b, tuple(range(10))) for b in range(0, 1024, 41)}
        assert sum(counts.values()) == shots and not dropped & set(counts)

    @pytest.mark.parametrize("position", [0, 517, 1023])
    def test_a_sub_ulp_bin_leaves_inverse_cdf_counts_unchanged(self, position):
        """One more positive bin of 1e-30 cannot move an inverse-CDF draw
        (a ``multinomial`` stream shifts with the bin count)."""
        probs = np.random.default_rng(9).random(1024)
        probs[position] = 0.0
        probs /= probs.sum()
        assert _inverse_cdf_wins(300, 1023) and _inverse_cdf_wins(300, 1024)
        before = sample_counts(probs, 300, range(10), 10, np.random.default_rng(17))
        probs[position] = 1e-30
        after = sample_counts(probs, 300, range(10), 10, np.random.default_rng(17))
        assert after == before

    @pytest.mark.parametrize("position", [0, 6, 11])
    def test_a_sub_floor_bin_leaves_multinomial_counts_unchanged(self, position):
        """One more bin of 1e-34 — the residue a windowed plan's GEMM leaves
        where gate-for-gate arithmetic cancels exactly — is not in the
        support, so it cannot shift a ``multinomial`` stream (at stream 2 it
        cost one more binomial draw and moved every bin after it)."""
        probs = np.random.default_rng(9).random(16)
        probs[position] = 0.0
        probs /= probs.sum()
        assert not _inverse_cdf_wins(1000, 16)
        before = sample_counts(probs, 1000, range(4), 4, np.random.default_rng(17))
        probs[position] = 1e-34
        after = sample_counts(probs, 1000, range(4), 4, np.random.default_rng(17))
        assert after == before
        oracle = reference_sample_counts(probs, 1000, range(4), 4, np.random.default_rng(17))
        assert oracle == before

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_engine_draw_equals_the_oracle_on_a_large_state(self, threads):
        """The benchmark's large_state shape: 2^16 bins, one draw whatever
        the thread count."""
        n_qubits, shots, seed = 16, 1000, 21
        state = StateVector(n_qubits)
        state.data[:] = 1.0 / math.sqrt(1 << n_qubits)
        expected = reference_sample_counts(
            state.probabilities(), shots, range(n_qubits), n_qubits, job_rng(seed)
        )
        with ParallelSimulationEngine(num_threads=threads) as engine:
            assert engine.sample_parallel(state, shots, seed=seed) == expected
            assert engine._pool is None  # draws run on the calling thread


def _qft10_circuit():
    circuit = CircuitBuilder(10, name="qft10-golden").h(0).cx(0, 5).ry(2, 0.7).build()
    for instruction in qft_circuit(10):
        circuit.add(instruction)
    for instruction in CircuitBuilder(10).measure(7).measure(2).measure(9).measure(0).build():
        circuit.add(instruction)
    return circuit


def _reset_circuit():
    return (
        CircuitBuilder(3, name="reset-golden")
        .h(0).cx(0, 1).reset(0).ry(0, math.pi / 3).cx(0, 2)
        .measure(0).measure(1).measure(2)
        .build()
    )


#: name -> (circuit, shots, seed, counts), recorded at the commit before
#: the sparse sampler (dict-building sampler, per-plan scratch) on one
#: thread.  At stream 4 every thread count draws them.
_GOLDEN = {
    "bell": (bell_circuit(2), 1024, 11, {"00": 536, "11": 488}),
    "qft10": (
        _qft10_circuit(), 512, 12,
        {"0000": 26, "0001": 30, "0010": 29, "0011": 31, "0100": 32, "0101": 36,
         "0110": 31, "0111": 34, "1000": 35, "1001": 36, "1010": 33, "1011": 31,
         "1100": 39, "1101": 25, "1110": 35, "1111": 29},
    ),
    "reset": (_reset_circuit(), 96, 13, {"000": 44, "010": 35, "101": 7, "111": 10}),
}


class TestGoldenHistograms:
    @pytest.mark.parametrize("name", sorted(_GOLDEN))
    @pytest.mark.parametrize("threads", [1, 2])
    def test_local_backend(self, name, threads):
        # Recorded at stream 1; the 2-thread rows moved once, at stream 4.
        assert SAMPLING_STREAM == 4
        circuit, shots, seed, expected = _GOLDEN[name]
        with LocalBackend(engine=ParallelSimulationEngine(num_threads=threads)) as backend:
            assert dict(backend.execute(circuit, shots, seed=seed).counts) == expected

    def test_two_shards(self):
        with ShardedExecutor(2, name="golden-shard") as sharded:
            for circuit, shots, seed, expected in _GOLDEN.values():
                assert dict(sharded.execute(circuit, shots, seed=seed).counts) == expected


class TestInverseCdfRule:
    """Which draw a job takes, and that both draw the marginal's law."""

    def test_few_shots_on_many_bins_never_call_multinomial(self):
        """Work bound the parent fails: it pays 2^16 binomials for 512 shots."""
        probs = np.full(1 << 16, 1.0 / (1 << 16))
        rng = _Refusing(np.random.default_rng(0), "multinomial")
        counts = sample_counts(probs, 512, range(16), 16, rng)
        assert sum(counts.values()) == 512

    def test_many_shots_on_few_bins_keep_multinomial(self):
        probs = np.array([0.1, 0.2, 0.3, 0.4])
        rng = _Refusing(np.random.default_rng(0), "random")
        counts = sample_counts(probs, 4096, (0, 1), 2, rng)
        assert sum(counts.values()) == 4096 and len(counts) == 4

    @pytest.mark.parametrize("shots", [1024, 1023])
    def test_each_side_of_the_rule_equals_the_oracle(self, shots):
        probs = np.random.default_rng(4).random(1024)
        probs /= probs.sum()
        assert _inverse_cdf_wins(shots, 1024) == (shots < 1024)
        expected = reference_sample_counts(probs, shots, range(10), 10, job_rng(8))
        assert sample_counts(probs, shots, range(10), 10, job_rng(8)) == expected

    def test_the_rule_reads_only_shots_and_positive_bins(self):
        assert not _inverse_cdf_wins(1, INVERSE_CDF_MIN_BINS - 1)
        assert _inverse_cdf_wins(1, INVERSE_CDF_MIN_BINS)
        assert _inverse_cdf_wins(INVERSE_CDF_MIN_BINS - 1, INVERSE_CDF_MIN_BINS)
        assert not _inverse_cdf_wins(INVERSE_CDF_MIN_BINS, INVERSE_CDF_MIN_BINS)

    @pytest.mark.parametrize(
        "n_qubits, qubits, shots, inverse",
        [
            (12, tuple(range(12)), 1500, True),
            (12, (11, 0, 3, 5, 6, 8, 9, 10, 1, 2), 900, True),  # partial: 1024 bins
            (12, (1, 4, 7, 10), 3000, False),
            (9, tuple(range(9)), 6000, False),
        ],
    )
    def test_total_variation_stays_within_the_e2e_bound(
        self, n_qubits, qubits, shots, inverse
    ):
        state_rng = np.random.default_rng(n_qubits * 10 + 1)
        probs = state_rng.random(1 << n_qubits) ** 6  # skewed: a wrong bin shows
        probs /= probs.sum()
        exact = reference_marginal_probabilities(probs, tuple(sorted(qubits)), n_qubits)
        assert _inverse_cdf_wins(shots, len(exact)) == inverse
        counts = sample_counts(probs, shots, qubits, n_qubits, job_rng(3))
        assert sum(counts.values()) == shots and set(counts) <= set(exact)
        tv = 0.5 * sum(abs(counts.get(key, 0) / shots - p) for key, p in exact.items())
        assert tv <= tv_bound(shots, len(exact))


class TestKeyFormatter:
    @pytest.mark.parametrize("width", range(1, 31))
    def test_integer_bins_match_format(self, width):
        bins = np.unique(np.random.default_rng(width).integers(0, 1 << width, size=200))
        expected = [format(b, f"0{width}b")[::-1] for b in bins.tolist()]
        assert list(_keyed(bins, bins, width)) == expected

    @pytest.mark.parametrize("n_bits", [1, 7, 8, 9, 63, 64, 65, 200, 400])
    def test_packed_tableau_rows_match_the_per_row_text(self, n_bits):
        """Big-endian rows, padding bits set: the text the tableau sampler
        built row by row before it shared this helper."""
        packed = np.random.default_rng(n_bits).integers(
            0, 256, size=(50, (n_bits + 7) // 8), dtype=np.uint8
        )
        bits = np.unpackbits(packed, axis=1, count=n_bits)
        expected = ["".join(str(bit) for bit in row) for row in bits.tolist()]
        assert format_packed_keys(packed, n_bits) == expected

    def test_no_rows_no_keys(self):
        assert format_packed_keys(np.zeros((0, 1), dtype=np.uint8), 5) == []
        assert _keyed(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), 5) == {}


class TestWorkBounds:
    def test_sampling_a_wide_uniform_state_builds_no_per_bin_objects(self):
        n_qubits = 18
        probs = np.full(1 << n_qubits, 1.0 / (1 << n_qubits))
        qubits = tuple(range(n_qubits))
        sample_counts(probs, 8, qubits, n_qubits, np.random.default_rng(0))  # warm imports
        tracemalloc.start()
        try:
            counts = sample_counts(probs, 8, qubits, n_qubits, np.random.default_rng(1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(counts.values()) == 8 and len(counts) <= 8
        # A handful of 2 MiB vectorised temporaries; one Python key per bin
        # (the dict-building sampler) is tens of MB here.
        assert peak < 12 * 2**20

    def test_never_repeated_plans_share_one_scratch_buffer(self):
        n_qubits, jobs = 12, 300
        lines, first = inspect.getsourcelines(execution_plan.ExecutionPlan._scratch)
        scratch_lines = range(first, first + len(lines))
        cache = PlanCache(capacity=jobs)
        backend = LocalBackend(engine=ParallelSimulationEngine(num_threads=1), plan_cache=cache)
        tracemalloc.start()
        try:
            for job in range(jobs):
                builder = CircuitBuilder(n_qubits, name=f"cold-{job}").h(0).rx(1, 0.01 * (job + 1))
                for qubit in range(n_qubits - 1):
                    builder.cx(qubit, qubit + 1)
                backend.execute(builder.measure(0).build(), 8, seed=job)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
            backend.close()
        assert len(cache) == jobs  # every plan is still alive
        live_bytes = sum(
            stat.size
            for stat in snapshot.filter_traces(
                [tracemalloc.Filter(True, execution_plan.__file__)]
            ).statistics("lineno")
            if stat.traceback[0].lineno in scratch_lines
        )
        state_bytes = (1 << n_qubits) * np.dtype(complex).itemsize
        assert live_bytes < 2 * state_bytes


class TestDensityMatrix:
    def test_initial_state_pure(self):
        rho = DensityMatrix(2)
        assert rho.trace() == pytest.approx(1.0)
        assert rho.purity() == pytest.approx(1.0)

    def test_unitary_evolution_matches_statevector(self):
        circuit = CircuitBuilder(2).h(0).cx(0, 1).t(1).build()
        rho = DensityMatrix(2)
        rho.apply_circuit(circuit)
        sv = StateVector(2)
        sv.apply_circuit(circuit)
        assert np.allclose(rho.probabilities(), sv.probabilities(), atol=1e-10)

    def test_from_statevector(self):
        sv = StateVector(1)
        sv.apply(H([0]))
        rho = DensityMatrix.from_statevector(sv)
        assert rho.purity() == pytest.approx(1.0)
        assert rho.probabilities() == pytest.approx([0.5, 0.5])

    def test_sampling(self):
        rho = DensityMatrix(2)
        rho.apply(H([0]))
        rho.apply(CX([0, 1]))
        counts = rho.sample(500, rng=np.random.default_rng(3))
        assert set(counts) == {"00", "11"}

    def test_expectation(self):
        from repro.operators.pauli import Z

        rho = DensityMatrix(1)
        rho.apply(X([0]))
        assert rho.expectation(Z(0)) == pytest.approx(-1.0)

    def test_size_guard(self):
        with pytest.raises(ExecutionError):
            DensityMatrix(14)

    def test_invalid_data_rejected(self):
        with pytest.raises(ExecutionError):
            DensityMatrix(1, data=np.array([[1.0, 0.0], [0.0, 1.0]]))  # trace 2


class TestNoiseChannels:
    @pytest.mark.parametrize(
        "factory,p",
        [
            (depolarizing_channel, 0.1),
            (bit_flip_channel, 0.2),
            (phase_flip_channel, 0.3),
            (amplitude_damping_channel, 0.25),
        ],
    )
    def test_channels_are_trace_preserving(self, factory, p):
        channel = factory(p)
        total = sum(op.conj().T @ op for op in channel.kraus_operators)
        assert np.allclose(total, np.eye(2), atol=1e-10)

    def test_invalid_probability_rejected(self):
        with pytest.raises(NoiseModelError):
            depolarizing_channel(1.5)
        with pytest.raises(NoiseModelError):
            bit_flip_channel(-0.1)

    def test_non_cptp_kraus_rejected(self):
        with pytest.raises(NoiseModelError):
            KrausChannel("bad", (np.eye(2) * 2,))

    def test_bit_flip_flips_population(self):
        rho = DensityMatrix(1)
        rho.apply_channel(bit_flip_channel(0.3), [0])
        assert rho.probabilities() == pytest.approx([0.7, 0.3])

    def test_depolarizing_reduces_purity(self):
        rho = DensityMatrix(1)
        rho.apply(H([0]))
        before = rho.purity()
        rho.apply_channel(depolarizing_channel(0.2), [0])
        assert rho.purity() < before

    def test_amplitude_damping_decays_excited_state(self):
        rho = DensityMatrix(1)
        rho.apply(X([0]))
        rho.apply_channel(amplitude_damping_channel(0.4), [0])
        assert rho.probabilities() == pytest.approx([0.4, 0.6])


class TestNoiseModel:
    def test_default_channel_applied_per_gate(self):
        model = NoiseModel(default_single_qubit=bit_flip_channel(0.5))
        circuit = CircuitBuilder(1).x(0).build()
        rho = DensityMatrix(1)
        rho.apply_circuit(circuit, noise_model=model)
        # X then 50% bit flip -> 50/50.
        assert rho.probabilities() == pytest.approx([0.5, 0.5])

    def test_per_gate_channel_overrides_default(self):
        model = NoiseModel(default_single_qubit=bit_flip_channel(0.0))
        model.add_channel("X", bit_flip_channel(1.0))
        circuit = CircuitBuilder(1).x(0).build()
        rho = DensityMatrix(1)
        rho.apply_circuit(circuit, noise_model=model)
        # X then a certain flip back -> ground state.
        assert rho.probabilities() == pytest.approx([1.0, 0.0])

    def test_single_qubit_channel_broadcast_over_two_qubit_gate(self):
        model = NoiseModel(default_two_qubit=depolarizing_channel(0.1))
        bound = model.channels_for(CX([0, 1]))
        assert len(bound) == 2
        assert {b.qubits for b in bound} == {(0,), (1,)}

    def test_trivial_model(self):
        assert NoiseModel().is_trivial
        assert not NoiseModel(default_single_qubit=bit_flip_channel(0.1)).is_trivial
