"""Tests for the one-by-one/parallel executors and shot-level parallelism."""

import pytest

from repro.algorithms.bell import bell_circuit
from repro.config import configure
from repro.core.executor import KernelTask, run_one_by_one, run_parallel
from repro.core.shot_parallelism import execute_shots_parallel
from repro.exceptions import ConfigurationError


def bell_tasks(n: int = 2, shots: int = 64) -> list[KernelTask]:
    return [
        KernelTask(
            name=f"bell_{i}",
            circuit_factory=lambda: bell_circuit(2),
            n_qubits=2,
            shots=shots,
        )
        for i in range(n)
    ]


class TestExecutors:
    def test_one_by_one_runs_every_task(self):
        report = run_one_by_one(bell_tasks(), total_threads=2)
        assert report.variant == "one-by-one"
        assert report.threads_per_task == 2
        assert len(report.results) == 2
        for result in report.results:
            assert sum(result.counts.values()) == 64
            assert set(result.counts) <= {"00", "11"}

    def test_parallel_splits_threads(self):
        report = run_parallel(bell_tasks(), total_threads=4)
        assert report.variant == "parallel"
        assert report.threads_per_task == 2
        assert len(report.results) == 2
        for result in report.results:
            assert result.threads == 2
            assert sum(result.counts.values()) == 64

    def test_parallel_with_more_tasks_than_threads(self):
        report = run_parallel(bell_tasks(4, shots=16), total_threads=2)
        assert report.threads_per_task == 1
        assert len(report.results) == 4

    def test_counts_by_task(self):
        report = run_one_by_one(bell_tasks(), total_threads=1)
        by_task = report.counts_by_task()
        assert set(by_task) == {"bell_0", "bell_1"}

    def test_speedup_over(self):
        baseline = run_one_by_one(bell_tasks(shots=32), total_threads=1)
        other = run_parallel(bell_tasks(shots=32), total_threads=2)
        assert other.speedup_over(baseline) > 0

    def test_invalid_thread_count_rejected(self):
        with pytest.raises(ConfigurationError):
            run_one_by_one(bell_tasks(), total_threads=0)
        with pytest.raises(ConfigurationError):
            run_parallel([], total_threads=2)

    def test_wall_time_positive(self):
        report = run_one_by_one(bell_tasks(shots=8), total_threads=1)
        assert report.wall_time_seconds > 0
        assert all(r.duration_seconds >= 0 for r in report.results)


class TestShotParallelism:
    def test_merged_counts_match_requested_shots(self):
        counts = execute_shots_parallel(bell_circuit(2), 2, shots=256, workers=4)
        assert sum(counts.values()) == 256
        assert set(counts) <= {"00", "11"}

    def test_single_worker_path(self):
        counts = execute_shots_parallel(bell_circuit(2), 2, shots=100, workers=1)
        assert sum(counts.values()) == 100

    def test_workers_capped_by_shots(self):
        counts = execute_shots_parallel(bell_circuit(2), 2, shots=3, workers=16)
        assert sum(counts.values()) == 3

    def test_invalid_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            execute_shots_parallel(bell_circuit(2), 2, shots=10, workers=0)

    def test_default_shots_from_config(self, small_shots):
        counts = execute_shots_parallel(bell_circuit(2), 2, workers=2)
        assert sum(counts.values()) == small_shots

    def test_fixed_seed_chunks_draw_independent_streams(self):
        """Each chunk samples from its own child of the global seed, so two
        chunks are not one chunk's histogram counted twice."""
        with configure(seed=7):
            merged = execute_shots_parallel(bell_circuit(2), 2, shots=1000, workers=2)
            again = execute_shots_parallel(bell_circuit(2), 2, shots=1000, workers=2)
            one_chunk = execute_shots_parallel(bell_circuit(2), 2, shots=500, workers=1)
        assert sum(merged.values()) == 1000
        assert merged == again
        assert merged != {key: 2 * count for key, count in one_chunk.items()}
