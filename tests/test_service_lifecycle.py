"""Fault-tolerant job lifecycle through the public service API.

Deadlines and cancellation (queued and mid-flight), admission control,
refusal of the retired process-shard options and orphan-handle
``result()`` behaviour — all exercised the way a client would see them:
through :class:`QuantumJobService` and :class:`JobHandle`.
"""

import time

import pytest

from repro.algorithms.bell import bell_circuit
from repro.cancellation import CancelToken, cancel_scope
from repro.exceptions import (
    AdmissionRejected,
    DeadlineExceeded,
    ExecutionError,
    JobCancelled,
)
from repro.ir.builder import CircuitBuilder
from repro.obs.trace import disable_tracing, enable_tracing
from repro.service import QuantumJobService, job_key
from repro.testing import FaultSpec, clear_faults, install_faults


@pytest.fixture(autouse=True)
def no_fault_litter():
    yield
    clear_faults()


def unique_circuit(tag: str, n_qubits: int = 2):
    """A content-distinct circuit per test (global caches are shared)."""
    builder = CircuitBuilder(n_qubits, name=f"life_{tag}")
    builder.h(0)
    for q in range(1, n_qubits):
        builder.cx(q - 1, q)
    builder.rz(0, 0.001 + (hash(tag) % 997) / 997.0)
    builder.measure_all()
    return builder.build()


# ---------------------------------------------------------------------------
# Deadlines
# ---------------------------------------------------------------------------


class TestDeadlines:
    def test_deadline_passed_while_queued_fails_typed(self):
        service = QuantumJobService(
            backend="qpp", workers=1, auto_start=False, name="life-queue-ddl"
        )
        try:
            handle = service.submit(unique_circuit("qddl"), shots=64, deadline=0.05)
            assert handle.spec.deadline is not None
            time.sleep(0.15)
            service.start()
            with pytest.raises(DeadlineExceeded):
                handle.result(timeout=10)
            metrics = service.metrics()
            assert metrics.deadline_exceeded == 1
            assert metrics.failed == 1
            assert metrics.executions == 0  # never reached a backend
        finally:
            service.shutdown()

    def test_deadline_trips_mid_replay(self):
        # A worker stalled right before the replay: the deadline must trip
        # at a step boundary inside the in-flight execution, not after it.
        install_faults(
            [FaultSpec(site="local.replay", action="slow", seconds=0.4)]
        )
        with QuantumJobService(backend="qpp", workers=1, name="life-mid-ddl") as service:
            handle = service.submit(unique_circuit("mddl"), shots=64, deadline=0.15)
            with pytest.raises(DeadlineExceeded):
                handle.result(timeout=10)
            assert service.metrics().deadline_exceeded == 1
            clear_faults()
            # The lane survives the abandoned job.
            ok = service.submit(unique_circuit("mddl2"), shots=64)
            assert sum(ok.result(timeout=10).counts.values()) == 64

    def test_deadline_seconds_option_sets_service_default(self):
        options = {"deadline-seconds": 0.05, "latency-seconds": 0.5}
        service = QuantumJobService(
            backend="qpp",
            workers=1,
            auto_start=False,
            backend_options=options,
            name="life-opt-ddl",
        )
        try:
            handle = service.submit(unique_circuit("optddl"), shots=64)
            assert handle.spec.deadline is not None
            time.sleep(0.15)
            service.start()
            with pytest.raises(DeadlineExceeded):
                handle.result(timeout=10)
        finally:
            service.shutdown()

    def test_invalid_deadline_rejected_at_submit(self):
        with QuantumJobService(backend="qpp", workers=1, name="life-bad-ddl") as service:
            with pytest.raises(ExecutionError):
                service.submit(bell_circuit(), shots=64, deadline=0.0)

    def test_lifecycle_options_do_not_fragment_the_job_key(self):
        circuit = bell_circuit()
        plain = job_key(circuit, "qpp", {})
        tuned = job_key(
            circuit,
            "qpp",
            {
                "deadline-seconds": 1.0,
                "memory-budget-bytes": 1 << 30,
                "admission-wait-seconds": 0.5,
            },
        )
        assert plain == tuned


# ---------------------------------------------------------------------------
# Cancellation
# ---------------------------------------------------------------------------


class TestCancellation:
    def test_cancel_before_dispatch_resolves_immediately(self):
        service = QuantumJobService(
            backend="qpp", workers=1, auto_start=False, name="life-cancel-q"
        )
        try:
            handle = service.submit(unique_circuit("cq"), shots=64)
            assert handle.cancel() is True
            with pytest.raises(JobCancelled):
                handle.result(timeout=5)
            service.start()
            deadline = time.time() + 5
            while service.metrics().cancelled < 1 and time.time() < deadline:
                time.sleep(0.01)
            metrics = service.metrics()
            assert metrics.cancelled == 1
            assert metrics.executions == 0
        finally:
            service.shutdown()

    def test_cancel_mid_flight_abandons_cooperatively(self):
        install_faults(
            [FaultSpec(site="local.replay", action="slow", seconds=0.4)]
        )
        with QuantumJobService(backend="qpp", workers=1, name="life-cancel-mid") as service:
            handle = service.submit(unique_circuit("cmid"), shots=64)
            time.sleep(0.1)  # let the dispatcher enter the stalled replay
            assert handle.cancel() is True
            with pytest.raises(JobCancelled):
                handle.result(timeout=10)
            clear_faults()
            ok = service.submit(unique_circuit("cmid2"), shots=64)
            assert sum(ok.result(timeout=10).counts.values()) == 64
            assert service.metrics().cancelled >= 1

    def test_cancel_after_completion_returns_false(self):
        with QuantumJobService(backend="qpp", workers=1, name="life-cancel-late") as service:
            handle = service.submit(unique_circuit("clate"), shots=64)
            handle.result(timeout=10)
            assert handle.cancel() is False
            handle.result(timeout=1)  # still the successful result


# ---------------------------------------------------------------------------
# Orphan handles
# ---------------------------------------------------------------------------


class TestOrphanHandles:
    def test_unbounded_result_raises_when_dispatcher_is_gone(self):
        service = QuantumJobService(
            backend="qpp", workers=1, auto_start=False, name="life-orphan"
        )
        handle = service.submit(unique_circuit("orph"), shots=64)
        # Simulate a dispatcher that died without draining: the liveness
        # probe reports dead while the future stays unresolved.
        handle._service_alive = lambda: False
        with pytest.raises(TimeoutError):
            handle.result()
        service.shutdown()

    def test_shutdown_before_start_fails_pending_jobs(self):
        service = QuantumJobService(
            backend="qpp", workers=1, auto_start=False, name="life-unstarted"
        )
        handle = service.submit(unique_circuit("unst"), shots=64)
        service.shutdown()
        with pytest.raises(ExecutionError):
            handle.result(timeout=5)

    def test_liveness_probe_tracks_pool_state(self):
        service = QuantumJobService(backend="qpp", workers=1, name="life-probe")
        service.start()
        assert service._can_resolve()
        service.shutdown()
        assert not service._can_resolve()


# ---------------------------------------------------------------------------
# Admission through the service
# ---------------------------------------------------------------------------


class TestServiceAdmission:
    def test_oversized_job_rejected_with_accounting(self):
        with QuantumJobService(
            backend="qpp", workers=1, memory_budget_bytes=1024, name="life-adm"
        ) as service:
            handle = service.submit(unique_circuit("adm", n_qubits=8), shots=64)
            with pytest.raises(AdmissionRejected) as info:
                handle.result(timeout=10)
            assert info.value.requested_bytes > info.value.budget_bytes
            metrics = service.metrics()
            assert metrics.admission_rejected == 1
            assert metrics.admission_budget_bytes == 1024

    def test_budgeted_service_serves_fitting_jobs(self):
        with QuantumJobService(
            backend="qpp",
            workers=2,
            memory_budget_bytes=256 * 1024 * 1024,
            name="life-adm-ok",
        ) as service:
            handles = [
                service.submit(unique_circuit(f"admok{i}"), shots=64)
                for i in range(4)
            ]
            for handle in handles:
                assert sum(handle.result(timeout=10).counts.values()) == 64
            assert service.metrics().admission_rejected == 0

    def test_memory_budget_via_backend_options(self):
        options = {"memory-budget-bytes": 2048, "admission-wait-seconds": 0.1}
        with QuantumJobService(
            backend="qpp", workers=1, backend_options=options, name="life-adm-opt"
        ) as service:
            assert service.admission.budget_bytes == 2048
            assert service.admission.max_wait == pytest.approx(0.1)


# ---------------------------------------------------------------------------
# Retired process-shard options
# ---------------------------------------------------------------------------

#: Options of the process-shard lane, retired with it.
RETIRED_OPTIONS = (
    "processes",
    "retry-max-attempts",
    "breaker-failure-threshold",
    "breaker-cooldown-seconds",
)


class TestRetiredOptions:
    @pytest.mark.parametrize("option", RETIRED_OPTIONS)
    def test_service_construction_refuses_a_retired_option(self, option):
        with pytest.raises(ExecutionError, match="retired with the process-shard lane"):
            QuantumJobService(
                backend="qpp", workers=1, backend_options={option: 2}, name="life-retired"
            )


# ---------------------------------------------------------------------------
# Error-tagged trace trees
# ---------------------------------------------------------------------------


class TestLifecycleTracing:
    def test_failed_job_root_span_is_error_tagged(self):
        tracer = enable_tracing()
        try:
            with QuantumJobService(backend="qpp", workers=1, name="life-trace") as service:
                handle = service.submit(
                    unique_circuit("trace"), shots=64, deadline=120.0
                )
                handle.result(timeout=10)
                cancelled = service.submit(unique_circuit("trace2"), shots=64)
                cancelled.cancel()
                time.sleep(0.3)  # let the dispatcher triage and close spans
                roots = [
                    s
                    for s in tracer.spans(cancelled.trace_id)
                    if s.name == "job"
                ]
                assert roots and roots[0].error is not None
                ok_roots = [
                    s for s in tracer.spans(handle.trace_id) if s.name == "job"
                ]
                assert ok_roots and ok_roots[0].error is None
        finally:
            disable_tracing()


# ---------------------------------------------------------------------------
# Shutdown around the chunked lane (engine threads above the chunk threshold)
# ---------------------------------------------------------------------------


CHUNKED = {"method": "statevector", "chunk-threshold": 2}


class TestChunkedShutdown:
    def test_double_shutdown_is_idempotent(self):
        service = QuantumJobService(workers=1, backend_options=CHUNKED)
        result = service.submit(unique_circuit("dbl", 4), shots=64).result(timeout=60)
        assert result.total_counts() == 64
        service.shutdown()
        service.shutdown()  # a second shutdown is a clean no-op
        with pytest.raises(ExecutionError):
            service.submit(unique_circuit("dbl2", 4), shots=64)

    def test_shutdown_mid_replay_drains_the_job(self):
        # The job sits in its replay (slowed before the chunked sweep) when
        # shutdown(wait=True) lands: the job completes with a full GHZ
        # histogram, and shutdown returns only after it.
        service = QuantumJobService(
            workers=1, backend_options=CHUNKED, enable_cache=False
        )
        install_faults([FaultSpec(site="local.replay", action="slow", seconds=0.3)])
        handle = service.submit(unique_circuit("mid", 4), shots=128)
        time.sleep(0.1)
        service.shutdown(wait=True)
        assert handle.done()
        counts = handle.result(timeout=1).counts
        assert sum(counts.values()) == 128
        assert set(counts) <= {"0000", "1111"}
