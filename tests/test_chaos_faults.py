"""Chaos matrix: every injected fault × every lane.

Each case plants a fault at a named site and drives a job through one of
the three lanes (in-process local, process-sharded, shared-memory pool).
The contract under test is the ISSUE's: every job either completes
**bit-identically** to the clean run or fails **cleanly with a typed
error** — no hangs, no leaked ``/dev/shm`` segments, no orphan worker
processes.
"""

import contextlib
import multiprocessing
import os
import time

import numpy as np
import pytest

from repro.cancellation import CancelToken, cancel_scope
from repro.exceptions import (
    CompilationError,
    DeadlineExceeded,
    RetryExhausted,
    WorkerCrashed,
)
from repro.exec import LocalBackend, NO_RETRY, RetryPolicy, ShardedExecutor
from repro.exec.shm import SEGMENT_PREFIX, SharedStatePool
from repro.ir.builder import CircuitBuilder
from repro.obs.trace import disable_tracing, enable_tracing
from repro.service import QuantumJobService
from repro.simulator.execution_plan import compile_plan
from repro.testing import FaultSpec, clear_faults, install_faults

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="POSIX shared memory required"
)


def live_segments():
    return sorted(
        f for f in os.listdir("/dev/shm") if f.startswith(SEGMENT_PREFIX)
    )


@pytest.fixture(autouse=True)
def chaos_hygiene():
    """No fault plan, no shm segment, no worker process survives a test."""
    segments_before = live_segments()
    children_before = {p.pid for p in multiprocessing.active_children()}
    yield
    clear_faults()
    deadline = time.time() + 15
    while time.time() < deadline:
        leaked_segments = [
            s for s in live_segments() if s not in segments_before
        ]
        orphans = {
            p.pid for p in multiprocessing.active_children()
        } - children_before
        if not leaked_segments and not orphans:
            break
        time.sleep(0.05)
    assert not leaked_segments, f"leaked shm segments: {leaked_segments}"
    assert not orphans, f"orphan worker processes: {orphans}"


def chaos_circuit(tag: str, n_qubits: int = 3):
    """Content-unique per case so the global plan cache cannot mask a
    ``plan.compile`` fault with a hit from an earlier test."""
    builder = CircuitBuilder(n_qubits, name=f"chaos_{tag}")
    builder.h(0)
    for q in range(1, n_qubits):
        builder.cx(q - 1, q)
    builder.rz(0, 0.001 + (hash(tag) % 9973) / 9973.0)
    builder.measure_all()
    return builder.build()


def chaos_plan(tag: str):
    """A chunked plan for the shared-memory lane (7 qubits, 4 chunks)."""
    builder = CircuitBuilder(7, name=f"chaosplan_{tag}")
    for q in range(7):
        builder.h(q)
    builder.rz(0, 0.001 + (hash(tag) % 9973) / 9973.0)
    for q in range(6):
        builder.cx(q, q + 1)
    return compile_plan(builder.build(), 7, chunk_threshold=2)


# ---------------------------------------------------------------------------
# The matrix.  expect is either "ok" (bit-identical completion) or a typed
# exception class (clean failure).  The "kill" action is excluded from the
# local lane by construction: the local lane IS the client process, and a
# self-SIGKILL there is outside any recoverable contract.
# ---------------------------------------------------------------------------

LOCAL_CASES = [
    pytest.param(
        "slow",
        [FaultSpec(site="local.replay", action="slow", seconds=0.4)],
        0.15,
        DeadlineExceeded,
        False,
        id="local-slow-deadline",
    ),
    # An in-band dense job takes the process's execution gate (as every
    # tableau job does), so this lane too can be slow by queueing behind
    # another job that holds it until the deadline passes.
    pytest.param(
        "queued", [], 0.05, DeadlineExceeded, True, id="local-queued-deadline"
    ),
    pytest.param(
        "compile",
        [
            FaultSpec(
                site="plan.compile", action="fail", kind="compile", times=None
            )
        ],
        None,
        CompilationError,
        False,
        id="local-compile-fail",
    ),
    pytest.param(
        "alloc",
        [
            FaultSpec(
                site="local.replay", action="fail", kind="memory", times=None
            )
        ],
        None,
        MemoryError,
        False,
        id="local-alloc-fail",
    ),
]

SHARDED_CASES = [
    pytest.param(
        "kill1",
        [
            FaultSpec(
                site="sharded.worker.replay",
                action="kill",
                times=1,
                scope="global",
            )
        ],
        None,
        "ok",
        id="sharded-kill-once-recovers",
    ),
    pytest.param(
        "killN",
        [
            FaultSpec(
                site="sharded.worker.replay",
                action="kill",
                times=None,
                scope="global",
            )
        ],
        NO_RETRY,
        RetryExhausted,
        id="sharded-kill-forever-exhausts",
    ),
    pytest.param(
        "compile",
        [
            FaultSpec(
                site="sharded.worker.compile",
                action="fail",
                kind="compile",
                times=None,
                scope="global",
            )
        ],
        None,
        CompilationError,
        id="sharded-compile-fail",
    ),
    pytest.param(
        "memory",
        [
            FaultSpec(
                site="sharded.worker.replay",
                action="fail",
                kind="memory",
                times=None,
                scope="global",
            )
        ],
        None,
        MemoryError,
        id="sharded-memory-fail",
    ),
]

SHM_CASES = [
    pytest.param(
        "kill1",
        [
            FaultSpec(
                site="shm.worker.replay",
                action="kill",
                times=1,
                scope="global",
            )
        ],
        RetryPolicy(max_attempts=2, base_delay=0.01, max_delay=0.1),
        "ok",
        id="shm-kill-once-retries",
    ),
    pytest.param(
        "killN",
        [
            FaultSpec(
                site="shm.worker.replay",
                action="kill",
                times=None,
                scope="global",
            )
        ],
        None,
        WorkerCrashed,
        id="shm-kill-no-policy-crashes-typed",
    ),
    pytest.param(
        "compile",
        [
            FaultSpec(
                site="shm.worker.compile",
                action="fail",
                kind="compile",
                times=None,
                scope="global",
            )
        ],
        None,
        WorkerCrashed,
        id="shm-compile-fail",
    ),
    pytest.param(
        "alloc",
        [
            FaultSpec(
                site="shm.alloc", action="fail", kind="memory", times=None
            )
        ],
        None,
        "ok",
        id="shm-alloc-degrades-to-serial",
    ),
]


# ---------------------------------------------------------------------------
# Local lane
# ---------------------------------------------------------------------------


class TestLocalLane:
    @pytest.mark.parametrize("tag, specs, deadline, expect, gate_held", LOCAL_CASES)
    def test_local_fault(self, tag, specs, deadline, expect, gate_held):
        from repro.exec.backend import execution_gate
        from repro.simulator.plan_cache import get_plan_cache

        # Only a state inside the hand-off band (10 qubits is) is gated.
        circuit = chaos_circuit(f"loc_{tag}", 10 if gate_held else 3)
        backend = LocalBackend()
        expected = backend.execute(circuit, 64, seed=7).counts
        # The baseline warmed the global plan cache; a compile fault must
        # see a miss, exactly as a fresh job would.
        get_plan_cache().clear()
        install_faults(specs)
        token = CancelToken(timeout=deadline) if deadline else CancelToken()
        if expect == "ok":
            with cancel_scope(token):
                result = backend.execute(circuit, 64, seed=7)
            assert result.counts == expected
        else:
            # The gate is a plain lock: held here, it is held by "another job".
            other_job = execution_gate(None) if gate_held else contextlib.nullcontext()
            with pytest.raises(expect):
                with other_job, cancel_scope(token):
                    backend.execute(circuit, 64, seed=7)
            clear_faults()
            # Clean failure: the lane serves the next job untouched.
            assert backend.execute(circuit, 64, seed=7).counts == expected


# ---------------------------------------------------------------------------
# Sharded lane
# ---------------------------------------------------------------------------


class TestShardedLane:
    @pytest.mark.parametrize("tag, specs, policy, expect", SHARDED_CASES)
    def test_sharded_fault(self, tag, specs, policy, expect):
        circuit = chaos_circuit(f"shd_{tag}")
        # Clean baseline first: its workers spawn before the fault plan
        # reaches the environment, so they never load it.
        clean = ShardedExecutor(2, name=f"chaos-clean-{tag}")
        try:
            expected = clean.execute(circuit, 128, seed=11).counts
        finally:
            clean.close()
        install_faults(specs)
        kwargs = {"name": f"chaos-shd-{tag}"}
        if policy is not None:
            kwargs["retry_policy"] = policy
        executor = ShardedExecutor(2, **kwargs)
        try:
            if expect == "ok":
                result = executor.execute(circuit, 128, seed=11)
                assert result.counts == expected
                assert executor.total_retries >= 1
            else:
                with pytest.raises(expect):
                    executor.execute(circuit, 128, seed=11)
                clear_faults()
                # The lane recovers: respawned shards serve the next job
                # bit-identically.
                assert executor.execute(circuit, 128, seed=11).counts == expected
        finally:
            executor.close()

    def test_sharded_slow_worker_hits_deadline(self):
        circuit = chaos_circuit("shd_slow")
        install_faults(
            [
                FaultSpec(
                    site="sharded.worker.replay",
                    action="slow",
                    seconds=0.6,
                    times=None,
                    scope="global",
                )
            ]
        )
        executor = ShardedExecutor(2, name="chaos-shd-slow")
        try:
            with pytest.raises(DeadlineExceeded):
                with cancel_scope(CancelToken(timeout=0.2)):
                    executor.execute(circuit, 128, seed=11)
        finally:
            executor.close()


# ---------------------------------------------------------------------------
# Shared-memory lane
# ---------------------------------------------------------------------------


class TestShmLane:
    @pytest.mark.parametrize("tag, specs, policy, expect", SHM_CASES)
    def test_shm_fault(self, tag, specs, policy, expect):
        plan = chaos_plan(tag)
        expected = plan.execute(plan.new_state())  # serial ground truth
        install_faults(specs)
        pool = SharedStatePool(
            2, name=f"chaos-shm-{tag}", retry_policy=policy
        )
        try:
            if expect == "ok":
                final = plan.execute(plan.new_state(), pool=pool)
                assert np.array_equal(final, expected)
            else:
                with pytest.raises(expect):
                    plan.execute(plan.new_state(), pool=pool)
                clear_faults()
                # Respawned workers serve the next replay bit-identically.
                final = plan.execute(plan.new_state(), pool=pool)
                assert np.array_equal(final, expected)
        finally:
            pool.close()

    def test_shm_kill_once_respawned_exactly_once(self):
        plan = chaos_plan("kill_count")
        expected = plan.execute(plan.new_state())
        install_faults(
            [
                FaultSpec(
                    site="shm.worker.replay",
                    action="kill",
                    times=1,
                    scope="global",
                )
            ]
        )
        pool = SharedStatePool(
            2,
            name="chaos-shm-killcount",
            retry_policy=RetryPolicy(
                max_attempts=2, base_delay=0.01, max_delay=0.1
            ),
        )
        try:
            final = plan.execute(plan.new_state(), pool=pool)
            assert np.array_equal(final, expected)
            assert pool.respawns == 1
        finally:
            pool.close()

    def test_shm_slow_step_hits_deadline_without_respawn(self):
        # Cooperative abort through the control segment: the deadline trips
        # at a step boundary, workers acknowledge and stay alive — no
        # respawn, and the pool serves the next replay immediately.
        plan = chaos_plan("slowstep")
        expected = plan.execute(plan.new_state())
        install_faults(
            [
                FaultSpec(
                    site="shm.worker.step",
                    action="slow",
                    seconds=0.05,
                    times=None,
                )
            ]
        )
        pool = SharedStatePool(2, name="chaos-shm-slow")
        try:
            with pytest.raises(DeadlineExceeded):
                with cancel_scope(CancelToken(timeout=0.2)):
                    plan.execute(plan.new_state(), pool=pool)
            assert pool.respawns == 0
            clear_faults()
            final = plan.execute(plan.new_state(), pool=pool)
            assert np.array_equal(final, expected)
        finally:
            pool.close()

    def test_shm_alloc_degrade_leaves_breaker_trail(self):
        from repro.service import CircuitBreaker

        plan = chaos_plan("alloctrail")
        expected = plan.execute(plan.new_state())
        install_faults(
            [
                FaultSpec(
                    site="shm.alloc", action="fail", kind="memory", times=None
                )
            ]
        )
        breaker = CircuitBreaker(
            name="chaos-alloc", failure_threshold=1, cooldown_seconds=60.0
        )
        pool = SharedStatePool(2, name="chaos-shm-alloctrail", breaker=breaker)
        try:
            final = plan.execute(plan.new_state(), pool=pool)
            assert np.array_equal(final, expected)  # degraded, still correct
            assert breaker.state == "open"
        finally:
            pool.close()


# ---------------------------------------------------------------------------
# Density / noisy lane.  In-process like the local lane, so "kill" is
# excluded by construction; the fault site sits between the pre-evolution
# cancellation check and the matrix evolution itself.
# ---------------------------------------------------------------------------

DENSITY_CASES = [
    pytest.param(
        "slow",
        [FaultSpec(site="density.execute", action="slow", seconds=0.4)],
        0.15,
        DeadlineExceeded,
        id="density-slow-deadline",
    ),
    pytest.param(
        "alloc",
        [
            FaultSpec(
                site="density.execute", action="fail", kind="memory", times=None
            )
        ],
        None,
        MemoryError,
        id="density-alloc-fail",
    ),
]


def _noisy_density_backend():
    from repro.exec.backend import DensityBackend
    from repro.simulator.noise import NoiseModel, depolarizing_channel

    return DensityBackend(
        NoiseModel(default_single_qubit=depolarizing_channel(0.02))
    )


class TestDensityLane:
    @pytest.mark.parametrize("tag, specs, deadline, expect", DENSITY_CASES)
    def test_density_fault(self, tag, specs, deadline, expect):
        circuit = chaos_circuit(f"den_{tag}")
        backend = _noisy_density_backend()
        expected = backend.execute(circuit, 64, seed=7).counts
        install_faults(specs)
        token = CancelToken(timeout=deadline) if deadline else CancelToken()
        with pytest.raises(expect):
            with cancel_scope(token):
                backend.execute(circuit, 64, seed=7)
        clear_faults()
        # Clean failure: the lane serves the next job untouched.
        assert backend.execute(circuit, 64, seed=7).counts == expected

    def test_density_cancelled_before_evolution(self):
        from repro.exceptions import JobCancelled

        circuit = chaos_circuit("den_cancel")
        backend = _noisy_density_backend()
        token = CancelToken()
        token.cancel()
        with pytest.raises(JobCancelled):
            with cancel_scope(token):
                backend.execute(circuit, 64, seed=7)
        # A dead token never reaches the simulator; a fresh one does.
        assert backend.execute(circuit, 64, seed=7).counts


# ---------------------------------------------------------------------------
# Stabilizer / tableau lane.  In-process like the density lane ("kill"
# excluded by construction); the fault site sits between the pre-evolution
# cancellation check and classification, so a tripped fault costs nothing.
# The chaos circuit must be Clifford — the broker only routes such jobs to
# the tableau — so this lane swaps chaos_circuit's rz disambiguator for a
# tag-dependent S/Z suffix.  Tableau jobs run one at a time per process, so
# the lane has one more way to be slow: queued behind another job that
# holds the gate (last column) until the deadline passes.
# ---------------------------------------------------------------------------

STABILIZER_CASES = [
    pytest.param(
        "slow",
        [FaultSpec(site="stabilizer.execute", action="slow", seconds=0.4)],
        0.15,
        DeadlineExceeded,
        False,
        id="stabilizer-slow-deadline",
    ),
    pytest.param(
        "queued", [], 0.05, DeadlineExceeded, True, id="stabilizer-queued-deadline"
    ),
    pytest.param(
        "alloc",
        [
            FaultSpec(
                site="stabilizer.execute",
                action="fail",
                kind="memory",
                times=None,
            )
        ],
        None,
        MemoryError,
        False,
        id="stabilizer-alloc-fail",
    ),
]


def clifford_chaos_circuit(tag: str, n_qubits: int = 3):
    """Content-unique per case (like ``chaos_circuit``) but fully Clifford,
    so the broker's automatic routing sends it to the tableau."""
    builder = CircuitBuilder(n_qubits, name=f"chaos_stab_{tag}")
    builder.h(0)
    for q in range(1, n_qubits):
        builder.cx(q - 1, q)
    for _ in range(1 + hash(tag) % 3):
        builder.s(0)
    builder.measure_all()
    return builder.build()


class TestStabilizerLane:
    @pytest.mark.parametrize(
        "tag, specs, deadline, expect, gate_held", STABILIZER_CASES
    )
    def test_stabilizer_fault(self, tag, specs, deadline, expect, gate_held):
        from repro.exec.backend import execution_gate
        from repro.exec.stabilizer import StabilizerBackend

        circuit = clifford_chaos_circuit(f"stab_{tag}")
        backend = StabilizerBackend()
        expected = backend.execute(circuit, 64, seed=7).counts
        install_faults(specs)
        token = CancelToken(timeout=deadline) if deadline else CancelToken()
        # The gate is a plain lock: held here, it is held by "another job".
        other_job = execution_gate(None) if gate_held else contextlib.nullcontext()
        with pytest.raises(expect):
            with other_job, cancel_scope(token):
                backend.execute(circuit, 64, seed=7)
        clear_faults()
        # Clean failure: the lane serves the next job bit-identically.
        assert backend.execute(circuit, 64, seed=7).counts == expected

    def test_stabilizer_cancelled_before_classification(self):
        from repro.exceptions import JobCancelled
        from repro.exec.stabilizer import StabilizerBackend

        circuit = clifford_chaos_circuit("stab_cancel")
        backend = StabilizerBackend()
        token = CancelToken()
        token.cancel()
        with pytest.raises(JobCancelled):
            with cancel_scope(token):
                backend.execute(circuit, 64, seed=7)
        # A dead token never reaches the tableau; a fresh one does.
        assert backend.execute(circuit, 64, seed=7).counts

    def test_stabilizer_fault_through_broker_fails_typed(self):
        """The fault surfaces as a typed error on the job handle when the
        broker auto-routes a Clifford job to the faulted tableau, and the
        service keeps serving afterwards."""
        install_faults(
            [
                FaultSpec(
                    site="stabilizer.execute",
                    action="fail",
                    kind="memory",
                    times=None,
                )
            ]
        )
        circuit = clifford_chaos_circuit("stab_broker")
        with QuantumJobService(
            backend="qpp", workers=1, name="chaos-stab"
        ) as service:
            handle = service.submit(circuit, shots=64)
            with pytest.raises(MemoryError):
                handle.result(timeout=10)
            clear_faults()
            recovered = service.submit(circuit, shots=64).result(timeout=10)
            assert recovered.total_counts() == 64
            assert service.metrics().stabilizer_executions == 1


# ---------------------------------------------------------------------------
# Trace trees under chaos
# ---------------------------------------------------------------------------


class TestChaosTracing:
    def test_failing_job_leaves_error_tagged_trace_tree(self):
        install_faults(
            [
                FaultSpec(
                    site="plan.compile",
                    action="fail",
                    kind="compile",
                    times=None,
                )
            ]
        )
        tracer = enable_tracing()
        try:
            with QuantumJobService(
                backend="qpp", workers=1, name="chaos-trace"
            ) as service:
                handle = service.submit(chaos_circuit("trace"), shots=64)
                with pytest.raises(CompilationError):
                    handle.result(timeout=10)
                deadline = time.time() + 5
                spans = []
                while time.time() < deadline:
                    spans = tracer.spans(handle.trace_id)
                    roots = [s for s in spans if s.name == "job"]
                    if roots and roots[0].duration is not None:
                        break
                    time.sleep(0.02)
                roots = [s for s in spans if s.name == "job"]
                assert roots, "no root job span recorded"
                assert roots[0].error is not None
                # The tree is complete: every recorded span is closed.
                assert all(s.duration is not None for s in spans)
        finally:
            disable_tracing()
