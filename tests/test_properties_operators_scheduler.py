"""Property-based tests for the Pauli algebra, sampling and the scheduler."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.operators.pauli import PauliOperator, PauliTerm
from repro.parallel.contention import ContentionModel
from repro.parallel.scheduler import SimTask, TaskScheduler
from repro.simulator.parallel_engine import merge_counts, split_shots
from repro.simulator.sampling import _keyed, _marginal

_SETTINGS = settings(
    max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def pauli_terms(draw, max_qubits: int = 4):
    n_factors = draw(st.integers(min_value=0, max_value=max_qubits))
    qubits = draw(
        st.lists(
            st.integers(min_value=0, max_value=max_qubits - 1),
            min_size=n_factors,
            max_size=n_factors,
            unique=True,
        )
    )
    labels = [draw(st.sampled_from(["X", "Y", "Z"])) for _ in qubits]
    coefficient = draw(
        st.floats(min_value=-5, max_value=5, allow_nan=False).filter(lambda c: abs(c) > 1e-6)
    )
    return PauliTerm(dict(zip(qubits, labels)), coefficient)


class TestPauliAlgebraProperties:
    @_SETTINGS
    @given(pauli_terms(), pauli_terms())
    def test_term_product_matches_matrix_product(self, a, b):
        n = 4
        product = a * b
        assert np.allclose(
            product.to_matrix(n), a.to_matrix(n) @ b.to_matrix(n), atol=1e-9
        )

    @_SETTINGS
    @given(pauli_terms(), pauli_terms())
    def test_commutation_predicate_matches_matrices(self, a, b):
        n = 4
        commutator = a.to_matrix(n) @ b.to_matrix(n) - b.to_matrix(n) @ a.to_matrix(n)
        # Scale the tolerance by the coefficient product: two ~1e-6
        # coefficients shrink a genuine non-zero commutator (entries
        # 2*|c_a*c_b|) below any fixed atol, which would wrongly read as
        # "commutes".  Relative to the scale, zero and non-zero are
        # cleanly separated.
        scale = abs(a.coefficient) * abs(b.coefficient)
        assert a.commutes_with(b) == np.allclose(commutator, 0, atol=1e-9 * scale)

    @_SETTINGS
    @given(st.lists(pauli_terms(), min_size=1, max_size=5))
    def test_operator_sum_matches_matrix_sum(self, terms):
        n = 4
        operator = PauliOperator(terms)
        expected = sum(t.to_matrix(n) for t in terms)
        assert np.allclose(operator.to_matrix(n), expected, atol=1e-9)

    @_SETTINGS
    @given(st.lists(pauli_terms(), min_size=1, max_size=4))
    def test_real_weighted_operators_are_hermitian(self, terms):
        operator = PauliOperator(terms)
        matrix = operator.to_matrix(4)
        assert np.allclose(matrix, matrix.conj().T, atol=1e-9)


class TestSamplingProperties:
    @_SETTINGS
    @given(
        st.integers(min_value=1, max_value=10_000),
        st.integers(min_value=1, max_value=32),
    )
    def test_split_shots_partitions_exactly(self, shots, workers):
        chunks = split_shots(shots, workers)
        assert sum(chunks) == shots
        assert all(c > 0 for c in chunks)
        assert max(chunks) - min(chunks) <= 1

    @_SETTINGS
    @given(st.lists(st.dictionaries(st.sampled_from(["00", "01", "10", "11"]),
                                    st.integers(min_value=0, max_value=100)),
                    min_size=0, max_size=6))
    def test_merge_counts_preserves_totals(self, histograms):
        merged = merge_counts(histograms)
        assert sum(merged.values()) == sum(sum(h.values()) for h in histograms)

    @_SETTINGS
    @given(st.integers(min_value=1, max_value=5), st.data())
    def test_marginals_always_sum_to_one(self, n_qubits, data):
        raw = data.draw(
            st.lists(
                st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
                min_size=1 << n_qubits,
                max_size=1 << n_qubits,
            ).filter(lambda xs: sum(xs) > 1e-9)
        )
        probs = np.array(raw) / np.sum(raw)
        qubits = tuple(
            data.draw(
                st.lists(
                    st.integers(min_value=0, max_value=n_qubits - 1),
                    min_size=1,
                    max_size=n_qubits,
                    unique=True,
                )
            )
        )
        # The marginal sample_chunks draws from.
        marginals = _keyed(*_marginal(probs, qubits, n_qubits), len(qubits))
        assert sum(marginals.values()) == pytest.approx(1.0, abs=1e-9)


@st.composite
def sim_tasks(draw, index: int):
    parallel = draw(st.floats(min_value=0.0, max_value=500.0, allow_nan=False))
    serial = draw(st.floats(min_value=0.1, max_value=100.0, allow_nan=False))
    locked = draw(st.floats(min_value=0.0, max_value=50.0, allow_nan=False))
    threads = draw(st.integers(min_value=1, max_value=24))
    return SimTask.from_cost(
        f"task{index}", parallel_work=parallel, serial_work=serial,
        locked_work=locked, threads=threads, n_chunks=4
    )


class TestSchedulerProperties:
    @_SETTINGS
    @given(st.data())
    def test_parallel_never_slower_than_one_by_one(self, data):
        n_tasks = data.draw(st.integers(min_value=1, max_value=4))
        tasks = [data.draw(sim_tasks(i)) for i in range(n_tasks)]
        scheduler = TaskScheduler(contention=ContentionModel())
        one_by_one = scheduler.run_one_by_one(tasks).makespan
        parallel = scheduler.run_parallel(tasks).makespan
        assert parallel <= one_by_one * (1.0 + 1e-9)

    @_SETTINGS
    @given(st.data())
    def test_makespan_bounded_below_by_critical_path(self, data):
        tasks = [data.draw(sim_tasks(i)) for i in range(data.draw(st.integers(1, 3)))]
        scheduler = TaskScheduler(contention=ContentionModel())
        result = scheduler.run_parallel(tasks)
        slowest_alone = max(scheduler.run([t]).makespan for t in tasks)
        assert result.makespan >= slowest_alone * (1.0 - 1e-9)

    @_SETTINGS
    @given(st.data())
    def test_completion_times_never_exceed_makespan(self, data):
        tasks = [data.draw(sim_tasks(i)) for i in range(data.draw(st.integers(1, 4)))]
        result = TaskScheduler().run_parallel(tasks)
        assert set(result.completion_times) == {t.name for t in tasks}
        assert all(t <= result.makespan + 1e-9 for t in result.completion_times.values())
