"""Unit contracts of the fault-tolerance building blocks.

Covers the primitives the lifecycle tier composes — cancellation tokens,
retry policies and failure classification, the lane circuit breaker,
memory-budget admission control, the walk-the-structure memory accounting,
and the fault-injection harness itself — in isolation, so the service- and
chaos-level tests can assume these semantics.
"""

import threading
import time

import numpy as np
import pytest

from repro.algorithms.bell import bell_circuit
from repro.cancellation import (
    CancelToken,
    active_cancel_token,
    cancel_scope,
    combine_tokens,
)
from repro.exceptions import (
    AdmissionRejected,
    CompilationError,
    DeadlineExceeded,
    JobCancelled,
    RetryExhausted,
)
from repro.exec.retry import (
    DEFAULT_RETRY_POLICY,
    NO_RETRY,
    RetryPolicy,
    is_infrastructure_failure,
    is_retryable,
)
from repro.service.admission import AdmissionController, estimate_job_bytes
from repro.service.breaker import CircuitBreaker
from repro.simulator.execution_plan import compile_plan
from repro.testing import FaultSpec, InjectedFault, clear_faults, fire, install_faults


@pytest.fixture(autouse=True)
def no_fault_litter():
    yield
    clear_faults()


# ---------------------------------------------------------------------------
# CancelToken
# ---------------------------------------------------------------------------


class TestCancelToken:
    def test_untripped_token_checks_clean(self):
        token = CancelToken()
        token.check()
        assert not token.cancelled
        assert not token.expired()
        assert token.remaining() is None

    def test_cancel_raises_job_cancelled(self):
        token = CancelToken()
        token.cancel()
        with pytest.raises(JobCancelled):
            token.check()

    def test_deadline_raises_deadline_exceeded(self):
        token = CancelToken(timeout=0.01)
        time.sleep(0.03)
        assert token.expired()
        with pytest.raises(DeadlineExceeded):
            token.check()

    def test_cancel_wins_over_expired_deadline(self):
        token = CancelToken(timeout=0.01)
        time.sleep(0.03)
        token.cancel()
        with pytest.raises(JobCancelled):
            token.check()

    def test_earlier_of_deadline_and_timeout_wins(self):
        absolute = time.time() + 100.0
        token = CancelToken(deadline=absolute, timeout=1.0)
        assert token.deadline < absolute

    def test_ambient_scope_installs_and_restores(self):
        assert active_cancel_token() is None
        token = CancelToken()
        with cancel_scope(token):
            assert active_cancel_token() is token
            inner = CancelToken()
            with cancel_scope(inner):
                assert active_cancel_token() is inner
            assert active_cancel_token() is token
        assert active_cancel_token() is None

    def test_none_scope_is_a_no_op(self):
        with cancel_scope(None):
            assert active_cancel_token() is None

    def test_scope_is_thread_local(self):
        token = CancelToken()
        seen = {}

        def probe():
            seen["other"] = active_cancel_token()

        with cancel_scope(token):
            t = threading.Thread(target=probe)
            t.start()
            t.join()
        assert seen["other"] is None


class TestCombinedToken:
    def test_single_part_returns_the_part(self):
        token = CancelToken()
        assert combine_tokens([token]) is token

    def test_cancelled_only_when_all_parts_cancelled(self):
        a, b = CancelToken(), CancelToken()
        combined = combine_tokens([a, b])
        a.cancel()
        assert not combined.cancelled
        combined.check()  # one rider still wants the result
        b.cancel()
        assert combined.cancelled
        with pytest.raises(JobCancelled):
            combined.check()

    def test_deadline_is_latest_of_parts(self):
        now = time.time()
        a = CancelToken(deadline=now + 1.0)
        b = CancelToken(deadline=now + 5.0)
        assert combine_tokens([a, b]).deadline == b.deadline

    def test_any_unbounded_part_makes_combined_unbounded(self):
        a = CancelToken(deadline=time.time() + 1.0)
        b = CancelToken()
        assert combine_tokens([a, b]).deadline is None


# ---------------------------------------------------------------------------
# Retry policy + classification
# ---------------------------------------------------------------------------


class TestFailureClassification:
    @pytest.mark.parametrize(
        "error",
        [EOFError(), ConnectionError(), OSError()],
    )
    def test_infrastructure_errors_are_retryable(self, error):
        assert is_retryable(error)
        assert is_infrastructure_failure(error)

    @pytest.mark.parametrize(
        "error",
        [
            JobCancelled("c"),
            DeadlineExceeded("d"),
            AdmissionRejected("a"),
            CompilationError("bad"),
            TimeoutError(),  # OSError subclass: terminal must win
        ],
    )
    def test_job_shaped_errors_are_terminal(self, error):
        assert not is_retryable(error)
        assert not is_infrastructure_failure(error)

    def test_retry_exhausted_feeds_the_breaker_but_not_retries(self):
        error = RetryExhausted("done", attempts=3)
        assert not is_retryable(error)
        assert is_infrastructure_failure(error)

    def test_memory_pressure_feeds_the_breaker(self):
        assert is_infrastructure_failure(MemoryError())
        assert not is_retryable(MemoryError())


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1.0)

    def test_should_retry_respects_budget_and_classification(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.should_retry(1, OSError())
        assert policy.should_retry(2, OSError())
        assert not policy.should_retry(3, OSError())
        assert not policy.should_retry(1, CompilationError("bad"))

    def test_no_retry_never_retries(self):
        assert not NO_RETRY.should_retry(1, OSError())

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            max_attempts=10, base_delay=0.1, max_delay=0.4, multiplier=2.0, jitter=0.0
        )
        delays = [policy.delay_for(retry) for retry in range(1, 6)]
        assert delays[0] == pytest.approx(0.1)
        assert delays[1] == pytest.approx(0.2)
        assert delays[2] == pytest.approx(0.4)
        assert delays[3] == pytest.approx(0.4)  # capped
        assert delays == sorted(delays)

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(max_attempts=5, base_delay=0.1, jitter=0.1)
        for retry in (1, 2, 3):
            once = policy.delay_for(retry)
            again = policy.delay_for(retry)
            assert once == again
            base = min(policy.max_delay, 0.1 * 2.0 ** (retry - 1))
            assert base * 0.9 <= once <= base * 1.1

    def test_sleep_honours_a_tripped_token(self):
        policy = RetryPolicy(max_attempts=2, base_delay=5.0, jitter=0.0)
        token = CancelToken()
        token.cancel()
        started = time.perf_counter()
        with pytest.raises(JobCancelled):
            policy.sleep(1, token)
        assert time.perf_counter() - started < 1.0

    def test_exhausted_carries_attempts_and_cause(self):
        policy = RetryPolicy(max_attempts=2)
        cause = OSError("pipe")
        error = policy.exhausted("shard 0", 2, cause)
        assert isinstance(error, RetryExhausted)
        assert error.attempts == 2
        assert error.__cause__ is cause
        assert "shard 0" in str(error)

    def test_default_policy_matches_historical_single_retry(self):
        assert DEFAULT_RETRY_POLICY.max_attempts == 2


# ---------------------------------------------------------------------------
# Circuit breaker
# ---------------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now


class TestCircuitBreaker:
    def test_closed_until_threshold(self):
        breaker = CircuitBreaker(failure_threshold=3, clock=FakeClock())
        assert breaker.state == "closed"
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.trips == 1

    def test_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker(failure_threshold=2, clock=FakeClock())
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_single_probe_then_close_on_success(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown_seconds=10.0, clock=clock
        )
        breaker.record_failure()
        assert not breaker.allow()
        clock.now += 11.0
        assert breaker.state == "half-open"
        assert breaker.allow()  # the probe slot
        assert not breaker.allow()  # only one probe at a time
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_half_open_probe_failure_retrips(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown_seconds=10.0, clock=clock
        )
        breaker.record_failure()
        clock.now += 11.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.trips == 2

    def test_snapshot_shape(self):
        breaker = CircuitBreaker(name="lane-x", clock=FakeClock())
        snap = breaker.snapshot()
        assert snap["name"] == "lane-x"
        assert snap["state"] == "closed"
        assert snap["trips"] == 0


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------


class TestAdmission:
    def test_estimate_scales_with_qubits_and_shots(self):
        assert estimate_job_bytes(10) == (1 << 10) * 32
        assert estimate_job_bytes(10, shots=100) == (1 << 10) * 32 + 800
        assert estimate_job_bytes(20) > estimate_job_bytes(10)

    def test_unbudgeted_admits_immediately(self):
        controller = AdmissionController(None)
        ticket = controller.admit(10**12)
        ticket.release()  # no-op, never raises

    def test_hopeless_request_rejected_immediately(self):
        controller = AdmissionController(1000, max_wait=30.0)
        started = time.perf_counter()
        with pytest.raises(AdmissionRejected) as info:
            controller.admit(2000)
        assert time.perf_counter() - started < 1.0
        assert info.value.requested_bytes == 2000
        assert info.value.budget_bytes == 1000

    def test_grant_release_cycle_and_accounting(self):
        controller = AdmissionController(1000)
        with controller.admit(600):
            assert controller.used_bytes() == 600
            with controller.admit(400):
                assert controller.used_bytes() == 1000
        assert controller.used_bytes() == 0
        snap = controller.snapshot()
        assert snap["admitted"] == 2
        assert snap["inflight_tickets"] == 0

    def test_queued_job_admitted_when_ticket_releases(self):
        controller = AdmissionController(1000, max_wait=5.0)
        first = controller.admit(800)
        got = {}

        def second():
            with controller.admit(800, deadline=None):
                got["admitted"] = True

        t = threading.Thread(target=second)
        t.start()
        time.sleep(0.1)
        assert "admitted" not in got  # still queued
        first.release()
        t.join(timeout=5)
        assert got.get("admitted")
        assert controller.snapshot()["waited"] == 1

    def test_wait_times_out_with_accounting(self):
        controller = AdmissionController(1000, max_wait=0.15)
        ticket = controller.admit(900)
        try:
            with pytest.raises(AdmissionRejected) as info:
                controller.admit(900)
            assert info.value.used_bytes >= 900
        finally:
            ticket.release()

    def test_deadline_bounds_the_wait_below_max_wait(self):
        controller = AdmissionController(1000, max_wait=60.0)
        ticket = controller.admit(900)
        try:
            started = time.perf_counter()
            with pytest.raises(AdmissionRejected):
                controller.admit(900, deadline=time.time() + 0.15)
            assert time.perf_counter() - started < 5.0
        finally:
            ticket.release()

    def test_resident_sources_count_against_the_budget(self):
        resident = {"bytes": 0}
        controller = AdmissionController(
            1000, max_wait=0.1, resident_sources=(lambda: resident["bytes"],)
        )
        with controller.admit(800):
            pass
        resident["bytes"] = 900
        with pytest.raises(AdmissionRejected):
            controller.admit(800)

    def test_dying_resident_source_is_ignored(self):
        def broken():
            raise RuntimeError("mid-teardown")

        controller = AdmissionController(1000, resident_sources=(broken,))
        assert controller.resident_bytes() == 0
        controller.admit(500).release()

    def test_ticket_release_is_idempotent(self):
        controller = AdmissionController(1000)
        ticket = controller.admit(400)
        ticket.release()
        ticket.release()
        assert controller.used_bytes() == 0


# ---------------------------------------------------------------------------
# Memory accounting (the walk, not a counter)
# ---------------------------------------------------------------------------


class TestMemoryWalk:
    def test_plan_memory_counts_ndarray_payloads(self):
        circuit = bell_circuit()
        plan = compile_plan(circuit, 2)
        assert plan.memory_bytes() >= 0
        # A wider circuit's plan carries at least as much payload.
        from repro.algorithms.qft import qft_circuit

        wide = compile_plan(qft_circuit(5), 5)
        assert wide.memory_bytes() >= plan.memory_bytes()

    def test_plan_cache_memory_sums_entries(self):
        from repro.simulator.plan_cache import PlanCache

        cache = PlanCache(capacity=8)
        assert cache.memory_bytes() == 0
        cache.lookup_or_compile(bell_circuit(), 2)
        assert cache.memory_bytes() >= 0

    def test_result_cache_memory_tracks_histograms(self):
        from repro.service.cache import ResultCache

        cache = ResultCache(capacity=8)
        assert cache.memory_bytes() == 0
        cache.store("key-1", {"00": 50, "11": 50}, "qpp")
        assert cache.memory_bytes() > 0


# ---------------------------------------------------------------------------
# Fault harness
# ---------------------------------------------------------------------------


class TestFaultHarness:
    def test_disarmed_fire_is_a_no_op(self):
        clear_faults()
        fire("nowhere")  # must not raise

    def test_fail_fires_then_disarms_after_times(self):
        install_faults([FaultSpec(site="x", action="fail", times=2)])
        with pytest.raises(InjectedFault):
            fire("x")
        with pytest.raises(InjectedFault):
            fire("x")
        fire("x")  # exhausted

    def test_after_skips_initial_hits(self):
        install_faults([FaultSpec(site="x", action="fail", after=2, times=1)])
        fire("x")
        fire("x")
        with pytest.raises(InjectedFault):
            fire("x")

    def test_kind_selects_the_exception(self):
        install_faults([FaultSpec(site="x", action="fail", kind="memory")])
        with pytest.raises(MemoryError):
            fire("x")
        clear_faults()
        install_faults([FaultSpec(site="x", action="fail", kind="compile")])
        with pytest.raises(CompilationError):
            fire("x")

    def test_slow_sleeps(self):
        install_faults([FaultSpec(site="x", action="slow", seconds=0.05)])
        started = time.perf_counter()
        fire("x")
        assert time.perf_counter() - started >= 0.05

    def test_sites_are_independent(self):
        install_faults([FaultSpec(site="x", action="fail")])
        fire("y")  # different site: no fault
        with pytest.raises(InjectedFault):
            fire("x")

    def test_global_scope_counts_across_simulated_respawns(self):
        # A respawned worker resets per-process counters; the global scope
        # must still fire exactly `times` total.  Simulate by resetting the
        # per-process hit dict between fires.
        install_faults(
            [FaultSpec(site="x", action="fail", times=1, scope="global")]
        )
        from repro.testing import faults as faults_module

        with pytest.raises(InjectedFault):
            fire("x")
        faults_module._PLAN.hits.clear()  # "respawn"
        fire("x")  # sentinel file says the one firing already happened

    def test_invalid_specs_rejected_at_install(self):
        with pytest.raises(ValueError):
            FaultSpec(site="x", action="explode")
        with pytest.raises(ValueError):
            FaultSpec(site="x", action="fail", kind="nope")
        with pytest.raises(ValueError):
            FaultSpec(site="x", scope="galactic")

    def test_clear_removes_env_and_sentinels(self):
        import os

        install_faults([FaultSpec(site="x", scope="global")])
        from repro.testing import faults as faults_module

        sentinel_dir = faults_module._PLAN.sentinel_dir
        assert os.environ.get("REPRO_FAULTS")
        clear_faults()
        assert "REPRO_FAULTS" not in os.environ
        assert not os.path.isdir(sentinel_dir)
