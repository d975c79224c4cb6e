"""Tests for the QuantumJobService broker: batching, caching, dispatch.

Covers the acceptance behaviours of the service subsystem: cache
hit/subsample/top-up semantics, deterministic batch coalescing, coalescing
correctness under genuinely concurrent submitters, backpressure rejection,
priority ordering, metrics counters, and the paper's thread-safe-vs-legacy
race contrast driven through the broker by 16 client threads.
"""

from __future__ import annotations

import threading

import pytest

import repro
from repro.algorithms.bell import bell_circuit
from repro.algorithms.ghz import ghz_circuit
from repro.config import configure, set_config
from repro.core.race_detector import get_race_detector
from repro.exceptions import (
    AcceleratorError,
    ExecutionError,
    ServiceNotFoundError,
    ServiceOverloadedError,
)
from repro.ir.builder import CircuitBuilder
from repro.runtime.service_registry import reset_registry
from repro.service import JobPriority, QuantumJobService
from repro.service.batching import BatchingJobQueue
from repro.service.job import JobHandle, JobSpec
from repro.testing import FaultSpec, clear_faults, install_faults


@pytest.fixture(autouse=True)
def service_runtime_state():
    """Service tests resolve accelerators through the process-wide registry;
    reset it explicitly so no shared singleton leaks across tests."""
    reset_registry()
    yield
    reset_registry()


def distinct_circuit(index: int, n_qubits: int = 5):
    """A family of content-distinct measured circuits (one per client job)."""
    builder = CircuitBuilder(n_qubits, name=f"client_job_{index}")
    builder.h(0)
    builder.rx(1, 0.05 + 0.01 * index)
    for qubit in range(n_qubits - 1):
        builder.cx(qubit, qubit + 1)
    for qubit in range(n_qubits):
        builder.measure(qubit)
    return builder.build()


class TestCacheSemantics:
    def test_repeat_submission_served_from_cache(self):
        with QuantumJobService(workers=2) as service:
            first = service.submit(bell_circuit(2), shots=512).result(timeout=30)
            second = service.submit(bell_circuit(2), shots=512).result(timeout=30)
        assert not first.from_cache
        assert second.from_cache
        assert second.total_counts() == 512

    def test_smaller_request_subsamples_cached_histogram(self):
        with QuantumJobService(workers=2) as service:
            service.submit(bell_circuit(2), shots=4096).result(timeout=30)
            small = service.submit(bell_circuit(2), shots=100).result(timeout=30)
            metrics = service.metrics()
        assert small.from_cache
        assert small.total_counts() == 100
        # Only the original 4096 shots were ever simulated.
        assert metrics.executed_shots == 4096
        assert metrics.cache_hits == 1

    def test_larger_request_tops_up_only_missing_shots(self):
        with QuantumJobService(workers=2) as service:
            service.submit(bell_circuit(2), shots=1024).result(timeout=30)
            big = service.submit(bell_circuit(2), shots=4096).result(timeout=30)
            metrics = service.metrics()
        assert big.total_counts() == 4096
        assert not big.from_cache
        # 1024 original + 3072 top-up, never 1024 + 4096.
        assert metrics.executed_shots == 4096
        assert metrics.executions == 2
        assert metrics.cache.top_ups == 1

    def test_cache_disabled_always_executes(self):
        with QuantumJobService(workers=2, enable_cache=False) as service:
            service.submit(bell_circuit(2), shots=256).result(timeout=30)
            repeat = service.submit(bell_circuit(2), shots=256).result(timeout=30)
            metrics = service.metrics()
        assert not repeat.from_cache
        assert metrics.executions == 2
        assert service.cache is None

    def test_circuit_name_does_not_defeat_caching(self):
        renamed = bell_circuit(2)
        renamed.name = "same_physics_other_name"
        with QuantumJobService(workers=2) as service:
            service.submit(bell_circuit(2), shots=512).result(timeout=30)
            repeat = service.submit(renamed, shots=512).result(timeout=30)
        assert repeat.from_cache


class TestBatchCoalescing:
    def test_pending_identical_jobs_coalesce_into_one_execution(self):
        """N concurrent identical submissions -> exactly 1 backend execution."""
        service = QuantumJobService(workers=1, auto_start=False)
        handles = [service.submit(ghz_circuit(4), shots=1024) for _ in range(8)]
        service.start()
        results = [handle.result(timeout=30) for handle in handles]
        metrics = service.metrics()
        service.shutdown()
        assert metrics.executions == 1
        assert metrics.coalesced == 7
        assert all(r.total_counts() == 1024 for r in results)
        assert all(r.coalesced for r in results)

    def test_coalesced_batch_serves_mixed_shot_counts(self):
        """One execution at the max shot count satisfies every rider."""
        service = QuantumJobService(workers=1, auto_start=False)
        small = service.submit(ghz_circuit(4), shots=128)
        large = service.submit(ghz_circuit(4), shots=2048)
        service.start()
        assert small.result(timeout=30).total_counts() == 128
        assert large.result(timeout=30).total_counts() == 2048
        metrics = service.metrics()
        service.shutdown()
        assert metrics.executions == 1
        assert metrics.executed_shots == 2048

    def test_coalescing_under_concurrent_submitters(self):
        """Racing client threads never lose a result to coalescing."""
        n_clients = 12
        barrier = threading.Barrier(n_clients)
        results: list[dict[str, int]] = []
        lock = threading.Lock()
        with QuantumJobService(workers=3) as service:

            def client():
                barrier.wait()
                counts = service.submit(ghz_circuit(4), shots=512).counts(timeout=30)
                with lock:
                    results.append(counts)

            threads = [threading.Thread(target=client) for _ in range(n_clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            metrics = service.metrics()
        assert len(results) == n_clients
        assert all(sum(counts.values()) == 512 for counts in results)
        assert metrics.completed == n_clients
        # Identical concurrent jobs must share executions: far fewer backend
        # runs than clients (first run + races, everything else rides along).
        assert metrics.executions + metrics.cache_hits <= n_clients
        assert metrics.executions < n_clients


class TestBackpressure:
    def test_try_submit_rejects_when_queue_full(self):
        service = QuantumJobService(workers=1, max_pending=2, auto_start=False)
        assert service.try_submit(distinct_circuit(0), shots=64) is not None
        assert service.try_submit(distinct_circuit(1), shots=64) is not None
        rejected = service.try_submit(distinct_circuit(2), shots=64)
        assert rejected is None
        assert service.metrics().rejected == 1
        service.start()
        service.shutdown()

    def test_blocking_submit_times_out_with_overload_error(self):
        service = QuantumJobService(workers=1, max_pending=1, auto_start=False)
        service.submit(distinct_circuit(0), shots=64)
        with pytest.raises(ServiceOverloadedError) as excinfo:
            service.submit(distinct_circuit(1), shots=64, timeout=0.05)
        assert excinfo.value.max_pending == 1
        service.start()
        service.shutdown()

    def test_identical_job_rides_along_despite_full_queue(self):
        """Coalescing adds no backend work, so it bypasses the depth bound."""
        service = QuantumJobService(workers=1, max_pending=1, auto_start=False)
        first = service.submit(ghz_circuit(4), shots=256)
        rider = service.try_submit(ghz_circuit(4), shots=256)
        assert rider is not None
        service.start()
        assert first.result(timeout=30).total_counts() == 256
        assert rider.result(timeout=30).total_counts() == 256
        service.shutdown()


class TestPrioritiesAndLifecycle:
    def test_high_priority_batches_dispatch_first(self):
        service = QuantumJobService(workers=1, auto_start=False)
        order: list[str] = []
        lock = threading.Lock()

        def record(tag):
            def callback(_handle):
                with lock:
                    order.append(tag)

            return callback

        low = service.submit(distinct_circuit(0), shots=64, priority=JobPriority.LOW)
        normal = service.submit(distinct_circuit(1), shots=64, priority=JobPriority.NORMAL)
        high = service.submit(distinct_circuit(2), shots=64, priority=JobPriority.HIGH)
        low.add_done_callback(record("low"))
        normal.add_done_callback(record("normal"))
        high.add_done_callback(record("high"))
        service.start()
        for handle in (low, normal, high):
            handle.result(timeout=30)
        service.shutdown()
        assert order == ["high", "normal", "low"]

    def test_priority_rider_promotes_whole_batch(self):
        service = QuantumJobService(workers=1, auto_start=False)
        low_batch = service.submit(distinct_circuit(0), shots=64, priority=JobPriority.LOW)
        normal = service.submit(distinct_circuit(1), shots=64, priority=JobPriority.NORMAL)
        rider = service.submit(distinct_circuit(0), shots=64, priority=JobPriority.HIGH)
        order: list[str] = []
        lock = threading.Lock()
        for tag, handle in (("batch", low_batch), ("normal", normal), ("rider", rider)):
            handle.add_done_callback(
                lambda _h, tag=tag: (lock.acquire(), order.append(tag), lock.release())
            )
        service.start()
        for handle in (low_batch, normal, rider):
            handle.result(timeout=30)
        service.shutdown()
        # The promoted batch (and its rider) must beat the NORMAL job.
        assert order.index("normal") == 2

    def test_unknown_backend_rejected_at_construction(self):
        with pytest.raises(ServiceNotFoundError):
            QuantumJobService(backend="not-a-backend")

    def test_submit_after_shutdown_raises(self):
        service = QuantumJobService(workers=1)
        service.start()
        service.shutdown()
        with pytest.raises(ExecutionError):
            service.submit(bell_circuit(2), shots=64)

    def test_shutdown_drains_queued_jobs(self):
        service = QuantumJobService(workers=2, auto_start=False)
        handles = [service.submit(distinct_circuit(i), shots=64) for i in range(4)]
        service.start()
        service.shutdown(wait=True)
        assert all(handle.done() for handle in handles)
        assert all(handle.result().total_counts() == 64 for handle in handles)

    def test_shutdown_before_start_fails_queued_handles(self):
        """Jobs queued into a never-started pool must not strand clients."""
        service = QuantumJobService(workers=2, auto_start=False)
        handle = service.submit(distinct_circuit(0), shots=64)
        service.shutdown()
        with pytest.raises(ExecutionError, match="before its dispatcher pool started"):
            handle.result(timeout=5)
        assert service.metrics().failed == 1

    def test_cached_counts_are_read_only(self):
        """A client mutating a served entry must not corrupt the cache."""
        with QuantumJobService(workers=1) as service:
            service.submit(bell_circuit(2), shots=256).result(timeout=30)
            entry = service.cache.peek(
                service.submit(bell_circuit(2), shots=256).result(timeout=30).key
            )
            assert not hasattr(entry.counts, "clear")
            with pytest.raises(TypeError):
                entry.counts["00"] = 0
            repeat = service.submit(bell_circuit(2), shots=128).result(timeout=30)
            assert repeat.total_counts() == 128

    def test_parameterized_circuit_rejected_at_submit(self):
        from repro.algorithms.vqe import deuteron_ansatz_circuit

        with QuantumJobService(workers=1) as service:
            with pytest.raises(ExecutionError):
                service.submit(deuteron_ansatz_circuit(), shots=64)

    def test_all_workers_failing_init_fails_pending_jobs(self):
        """When every dispatcher dies in initialize(), clients must get the
        error instead of blocking forever on their handles."""
        service = QuantumJobService(
            workers=2,
            backend_options={"threads": "not-a-number"},  # poisons initialize()
            auto_start=False,
        )
        handle = service.submit(bell_circuit(2), shots=64)
        service.start()
        with pytest.raises(ExecutionError, match="failed to initialize"):
            handle.result(timeout=10)
        with pytest.raises(ExecutionError):  # and the queue stops accepting
            service.submit(bell_circuit(2), shots=64)
        service.shutdown()

    def test_backend_failure_propagates_to_every_rider(self):
        # The rx angle keeps the circuit non-Clifford: a Clifford 30-qubit
        # circuit would now route to the stabilizer tableau and *succeed*
        # instead of tripping the dense backend's size ceiling.
        oversized = (
            CircuitBuilder(30, name="too_big").h(29).rx(29, 0.3).measure(29).build()
        )
        service = QuantumJobService(workers=1, auto_start=False)
        first = service.submit(oversized, shots=64)
        rider = service.submit(oversized, shots=64)
        service.start()
        for handle in (first, rider):
            with pytest.raises(AcceleratorError):
                handle.result(timeout=30)
        assert service.metrics().failed == 2
        service.shutdown()


class TestMetrics:
    def test_counters_reflect_traffic(self):
        with QuantumJobService(workers=2) as service:
            service.submit(bell_circuit(2), shots=256).result(timeout=30)
            service.submit(bell_circuit(2), shots=128).result(timeout=30)
            service.submit(ghz_circuit(3), shots=256).result(timeout=30)
            metrics = service.metrics()
        assert metrics.submitted == 3
        assert metrics.completed == 3
        assert metrics.cache_hits == 1
        assert metrics.executions == 2
        assert metrics.executed_shots == 512
        assert metrics.served_shots == 640
        assert metrics.queue_depth == 0
        assert metrics.uptime_seconds > 0
        assert metrics.throughput_jobs_per_second > 0
        assert 0 < metrics.cache_hit_rate < 1
        latency = metrics.backend_latency["qpp"]
        assert latency.executions == 2
        assert latency.mean_seconds > 0

    def test_active_workers_tracks_pool(self):
        service = QuantumJobService(workers=3)
        assert service.metrics().active_workers == 0
        service.start()
        service.submit(bell_circuit(2), shots=64).result(timeout=30)
        assert service.metrics().active_workers == 3
        service.shutdown(wait=True)
        assert service.metrics().active_workers == 0


class TestQueueUnit:
    def _handle(self, key: str, priority=JobPriority.NORMAL, shots: int = 64):
        spec = JobSpec(
            key=key,
            circuit=bell_circuit(2),
            backend="qpp",
            shots=shots,
            n_qubits=2,
            priority=priority,
        )
        return JobHandle(spec)

    def test_claimed_batch_takes_no_more_riders(self):
        queue = BatchingJobQueue(max_pending=8)
        assert queue.put(self._handle("k")) == "queued"
        batch = queue.get(timeout=1)
        assert batch is not None and len(batch) == 1
        # The same key now starts a fresh batch instead of riding a claimed one.
        assert queue.put(self._handle("k")) == "queued"
        assert queue.pending_batches() == 1

    def test_depth_counts_riders(self):
        queue = BatchingJobQueue(max_pending=8)
        queue.put(self._handle("k"))
        queue.put(self._handle("k"))
        queue.put(self._handle("other"))
        assert queue.depth() == 3
        assert queue.pending_batches() == 2

    def test_promoted_batch_dispatches_once_and_first(self):
        """A promoting rider re-files its batch; the stale entry is skipped."""
        queue = BatchingJobQueue(max_pending=8)
        queue.put(self._handle("k", JobPriority.NORMAL))
        queue.put(self._handle("other", JobPriority.NORMAL))
        assert queue.put(self._handle("k", JobPriority.HIGH)) == "coalesced"
        batch = queue.get(timeout=1)
        assert batch is not None and batch.key == "k" and len(batch) == 2
        other = queue.get(timeout=1)
        assert other is not None and other.key == "other"
        # The superseded NORMAL entry for "k" must not dispatch a second time.
        assert queue.get(timeout=0.05) is None

    def test_blocked_producers_with_same_key_never_strand_jobs(self):
        """Riders that coalesce after waking from a full-queue wait must
        leave their batch dispatchable (regression: the blocked-path attach
        used to skip the heap re-push on promotion)."""
        queue = BatchingJobQueue(max_pending=1)
        queue.put(self._handle("x"))
        outcomes: list[str] = []

        def producer(priority: JobPriority) -> None:
            outcomes.append(queue.put(self._handle("k", priority), timeout=10))

        producers = [
            threading.Thread(target=producer, args=(priority,))
            for priority in (JobPriority.NORMAL, JobPriority.HIGH)
        ]
        for thread in producers:
            thread.start()
        first = queue.get(timeout=2)
        assert first is not None and first.key == "x"
        collected = 0
        while collected < 2:
            batch = queue.get(timeout=2)
            assert batch is not None, "a submitted job was stranded in the queue"
            assert batch.key == "k"
            collected += len(batch)
        for thread in producers:
            thread.join()
        assert len(outcomes) == 2

    def test_close_wakes_consumers_and_rejects_producers(self):
        queue = BatchingJobQueue(max_pending=2)
        queue.close()
        assert queue.get(timeout=1) is None
        with pytest.raises(ExecutionError):
            queue.put(self._handle("k"))


@pytest.mark.slow
class TestSustainedLoadSoak:
    """Long-running stress: eviction churn, mixed shots, many tenants."""

    def test_sustained_multi_tenant_load_stays_consistent(self):
        n_clients = 24
        jobs_per_client = 20
        circuits = [distinct_circuit(i, n_qubits=4) for i in range(12)]
        shot_choices = (128, 256, 512, 1024)
        errors: list[BaseException] = []
        lock = threading.Lock()
        # A cache far smaller than the working set forces eviction churn.
        with QuantumJobService(workers=4, max_pending=512, cache_capacity=4) as service:
            barrier = threading.Barrier(n_clients)

            def client(index: int) -> None:
                try:
                    barrier.wait()
                    for j in range(jobs_per_client):
                        circuit = circuits[(index + j) % len(circuits)]
                        shots = shot_choices[(index * j) % len(shot_choices)]
                        result = service.submit(circuit, shots=shots).result(timeout=120)
                        assert result.total_counts() == shots
                except BaseException as exc:
                    with lock:
                        errors.append(exc)

            threads = [
                threading.Thread(target=client, args=(i,)) for i in range(n_clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            metrics = service.metrics()
        assert not errors
        assert metrics.completed == n_clients * jobs_per_client
        assert metrics.failed == 0
        assert metrics.cache.evictions > 0
        # Dedup must hold even under churn: executions strictly below traffic.
        assert metrics.executions < metrics.completed
        assert get_race_detector().race_count() == 0


class TestRaceContrast:
    """The paper's contrast, driven through the broker under real load."""

    N_CLIENTS = 16

    def _hammer(self, service: QuantumJobService) -> None:
        barrier = threading.Barrier(self.N_CLIENTS)
        errors: list[BaseException] = []
        lock = threading.Lock()

        def client(index: int) -> None:
            try:
                barrier.wait()
                handles = [
                    service.submit(distinct_circuit(index * 4 + j, n_qubits=6), shots=512)
                    for j in range(2)
                ]
                for handle in handles:
                    assert handle.result(timeout=60).total_counts() == 512
            except BaseException as exc:  # surface client failures to the test
                with lock:
                    errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(self.N_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors

    def test_sixteen_clients_thread_safe_mode_records_zero_races(self):
        set_config(thread_safe=True)
        with QuantumJobService(workers=4, max_pending=256) as service:
            self._hammer(service)
        assert get_race_detector().race_count() == 0

    def test_sixteen_clients_legacy_mode_records_races(self):
        # Every execution sleeps inside the dispatcher's ``global_qpu``
        # section (``local.replay`` fires there), so the eight dispatchers'
        # executions overlap by construction, however fast a job runs.
        install_faults(
            [FaultSpec(site="local.replay", action="slow", seconds=0.02, times=None)]
        )
        try:
            with configure(thread_safe=False):
                with QuantumJobService(workers=8, max_pending=256) as service:
                    self._hammer(service)
                detector = get_race_detector()
                assert detector.race_count() > 0
                assert "global_qpu" in detector.resources_with_races()
        finally:
            clear_faults()

    def test_thread_safe_workers_hold_distinct_qpu_clones(self):
        set_config(thread_safe=True)
        manager = repro.QPUManager.get_instance()
        service = QuantumJobService(workers=4, auto_start=False)
        handles = [service.submit(distinct_circuit(i), shots=64) for i in range(8)]
        service.start()
        for handle in handles:
            handle.result(timeout=30)
        # Every dispatcher thread registered its own accelerator instance.
        assert manager.distinct_instances() == 4
        service.shutdown(wait=True)
        assert manager.active_thread_count() == 0
