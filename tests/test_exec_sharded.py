"""Tests for process-sharded plan replay (:mod:`repro.exec.sharded`).

The load-bearing property is *deterministic reduction*: with a fixed seed,
sharded execution must be bit-identical to the in-process path (shot
sharding vs the engine's thread chunks; key affinity vs a single-threaded
run) across the whole algorithm suite.  On top of that: hash affinity,
warm worker plan caches, worker-death retry, and exception-safe teardown.
"""

import os
import signal
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.algorithms.bell import bell_circuit
from repro.algorithms.ghz import ghz_circuit
from repro.algorithms.qft import qft_circuit
from repro.algorithms.shor import period_finding_circuit
from repro.algorithms.vqe import deuteron_ansatz_circuit, deuteron_hamiltonian
from repro.config import set_config
from repro.exceptions import ExecutionError
from repro.exec import NO_RETRY, LocalBackend, ShardedExecutor, get_sharded_executor
from repro.ir import gates as G
from repro.ir.builder import CircuitBuilder
from repro.ir.composite import CompositeInstruction
from repro.ir.serialization import circuit_content_hash
from repro.service import QuantumJobService
from repro.simulator.parallel_engine import ParallelSimulationEngine
from repro.testing import FaultSpec, clear_faults, install_faults


def algorithm_suite():
    return {
        "bell": bell_circuit(2),
        "ghz": ghz_circuit(5),
        "qft": qft_circuit(4),
        "shor": period_finding_circuit(7, 2),
        "vqe": deuteron_ansatz_circuit(0.59),
    }


def random_circuit(rng, n_qubits, length):
    """Random mix over every kernel class, with all qubits measured."""
    circuit = CompositeInstruction("random", n_qubits)
    for _ in range(length):
        choice = int(rng.integers(0, 6))
        qs = [int(q) for q in rng.permutation(n_qubits)]
        if choice == 0:
            circuit.add(G.H([qs[0]]))
        elif choice == 1:
            circuit.add(G.RY([qs[0]], [float(rng.uniform(-3, 3))]))
        elif choice == 2:
            circuit.add(G.CX([qs[0], qs[1]]))
        elif choice == 3:
            circuit.add(G.CPhase([qs[0], qs[1]], [float(rng.uniform(-3, 3))]))
        elif choice == 4:
            circuit.add(G.Swap([qs[0], qs[1]]))
        else:
            circuit.add(G.T([qs[0]]))
    for q in range(n_qubits):
        circuit.add(G.Measure([q]))
    return circuit


@pytest.fixture(scope="module")
def sharded2():
    """One two-shard executor shared by the equivalence tests (forking a
    fresh pair of worker processes per test would dominate the runtime)."""
    executor = ShardedExecutor(2, name="test-shard")
    yield executor
    executor.close()


class TestDeterministicEquivalence:
    @pytest.mark.parametrize("algorithm", ["bell", "ghz", "qft", "shor", "vqe"])
    def test_shot_sharding_matches_two_thread_engine(self, sharded2, algorithm):
        circuit = algorithm_suite()[algorithm]
        local = LocalBackend(engine=ParallelSimulationEngine(num_threads=2))
        reference = local.execute(circuit, 512, seed=1234)
        sharded = sharded2.execute(circuit, 512, seed=1234)
        assert dict(sharded.counts) == dict(reference.counts)
        assert sharded.shards == 2
        assert sharded.depth == reference.depth
        assert sharded.n_gates == reference.n_gates

    @pytest.mark.parametrize("algorithm", ["bell", "qft", "vqe"])
    def test_key_affinity_matches_single_thread_engine(self, sharded2, algorithm):
        circuit = algorithm_suite()[algorithm]
        local = LocalBackend(engine=ParallelSimulationEngine(num_threads=1))
        reference = local.execute(circuit, 256, seed=77)
        sharded = sharded2.execute_for_key("f00d" * 16, circuit, 256, seed=77)
        assert dict(sharded.counts) == dict(reference.counts)
        assert sharded.shards == 1

    def test_randomized_circuits_fixed_seed_equivalence(self, sharded2):
        rng = np.random.default_rng(2026)
        local = LocalBackend(engine=ParallelSimulationEngine(num_threads=2))
        for trial in range(4):
            circuit = random_circuit(rng, 5, 20)
            seed = int(rng.integers(0, 2**31))
            reference = local.execute(circuit, 128, seed=seed)
            sharded = sharded2.execute(circuit, 128, seed=seed)
            assert dict(sharded.counts) == dict(reference.counts), f"trial {trial}"

    @pytest.mark.parametrize("reset", [False, True])
    def test_inverse_cdf_chunks_match_the_two_thread_engine(self, sharded2, reset):
        """10 measured qubits (1024 bins) under 512 shots: every shot chunk,
        and every one-shot trajectory draw, takes the inverse-CDF side."""
        circuit = random_circuit(np.random.default_rng(31), 10, 40)
        if reset:
            body = CircuitBuilder(10, name="reset10").h(0).cx(0, 9).reset(9).h(9)
            for instruction in circuit:
                body.append(instruction)
            circuit, shots = body.build(), 24
        else:
            shots = 512
        local = LocalBackend(engine=ParallelSimulationEngine(num_threads=2))
        reference = local.execute(circuit, shots, seed=4321)
        sharded = sharded2.execute(circuit, shots, seed=4321)
        assert dict(sharded.counts) == dict(reference.counts)
        assert sum(reference.counts.values()) == shots

    def test_expectation_bit_identical(self, sharded2):
        ansatz = deuteron_ansatz_circuit(0.59).without_measurements()
        observable = deuteron_hamiltonian()
        local = LocalBackend().expectation(ansatz, observable)
        remote = sharded2.expectation(ansatz, observable)
        assert remote == local  # exact float equality, not approx

    def test_parametric_execution_across_shards(self, sharded2):
        ansatz = deuteron_ansatz_circuit()  # symbolic
        local = LocalBackend(engine=ParallelSimulationEngine(num_threads=2))
        reference = local.execute(ansatz, 256, seed=5, params=[0.59])
        sharded = sharded2.execute(ansatz, 256, seed=5, params=[0.59])
        assert dict(sharded.counts) == dict(reference.counts)
        with pytest.raises(ExecutionError, match="unbound"):
            sharded2.execute(ansatz, 16, seed=5)

    def test_trajectory_process_mode_matches_threads(self, sharded2):
        builder = CircuitBuilder(3, name="reset_traj")
        builder.h(0)
        builder.cx(0, 1)
        builder.reset(1)
        builder.h(2)
        for q in range(3):
            builder.measure(q)
        circuit = builder.build()
        engine = ParallelSimulationEngine(num_threads=2)
        threaded = engine.run_trajectories(3, circuit, 300, seed=8)
        sharded = engine.run_trajectories(3, circuit, 300, seed=8, processes=2)
        assert sharded == threaded
        engine.close()

    def test_trajectory_process_mode_rejects_precompiled_plan(self):
        # Plans cannot cross process boundaries; silently recompiling could
        # change the kernel sequence (and RNG draws) vs the caller's plan.
        from repro.simulator.execution_plan import compile_plan

        circuit = bell_circuit(2)
        plan = compile_plan(circuit, 2)
        engine = ParallelSimulationEngine(num_threads=1)
        with pytest.raises(ExecutionError, match="plan"):
            engine.run_trajectories(2, circuit, 8, seed=0, plan=plan, processes=2)


class TestAffinityAndCaching:
    def test_shard_for_is_stable_and_in_range(self, sharded2):
        import hashlib

        keys = [hashlib.sha256(str(i).encode()).hexdigest() for i in range(32)]
        shards = [sharded2.shard_for(key) for key in keys]
        assert shards == [sharded2.shard_for(key) for key in keys]
        assert set(shards) <= {0, 1} and len(set(shards)) == 2

    def test_worker_plan_cache_warms_up(self):
        executor = ShardedExecutor(1, name="warm")
        try:
            circuit = ghz_circuit(4)
            first = executor.execute(circuit, 64, seed=0)
            second = executor.execute(circuit, 64, seed=0)
            assert first.plan_cached is False
            assert second.plan_cached is True
            assert dict(first.counts) == dict(second.counts)
        finally:
            executor.close()

    def test_compile_warms_the_owning_shard(self, sharded2):
        circuit = qft_circuit(3, name="warm_compile")
        plan = sharded2.compile(circuit)
        assert plan.n_qubits == 3
        # Route with the same key compile() used: the circuit content hash.
        result = sharded2.execute_for_key(
            circuit_content_hash(circuit), circuit, 32, seed=0
        )
        assert result.plan_cached is True

    def test_shared_executor_registry_reuses_instances(self):
        a = get_sharded_executor(2)
        b = get_sharded_executor(2)
        assert a is b
        assert get_sharded_executor(3) is not a


class TestFailureRecovery:
    def test_worker_killed_mid_stream_job_retried_not_lost(self):
        executor = ShardedExecutor(2, name="kill-test")
        try:
            pids = executor.shard_pids()
            os.kill(pids[0], signal.SIGKILL)
            circuit = ghz_circuit(4)
            result = executor.execute(circuit, 512, seed=9)
            assert result.total_counts() == 512
            assert executor.total_retries >= 1
            # The shard respawned with a fresh worker.
            new_pids = executor.shard_pids()
            assert new_pids[0] != pids[0]
            # Determinism survives the retry: a pristine executor agrees.
            fresh = ShardedExecutor(2, name="kill-ref")
            try:
                assert dict(fresh.execute(circuit, 512, seed=9).counts) == dict(
                    result.counts
                )
            finally:
                fresh.close()
        finally:
            executor.close()

    def test_retry_budget_exhaustion_raises_execution_error(self):
        executor = ShardedExecutor(1, name="budget", retry_policy=NO_RETRY)
        try:
            os.kill(executor.shard_pids()[0], signal.SIGKILL)
            with pytest.raises(ExecutionError, match="failed"):
                executor.execute(bell_circuit(2), 32, seed=0)
        finally:
            executor.close()


    def test_retries_bill_only_this_jobs_respawns(self):
        """A job is billed for the respawns it paid for, not for another
        job's: A runs (slowly) on shard 0 while B finds shard 1 dead."""
        install_faults(
            [FaultSpec(site="sharded.worker.replay", action="slow",
                       seconds=0.5, times=None)]
        )
        executor = ShardedExecutor(2, name="retry-billing")
        try:
            victim = executor.shard_pids()[1]
            with ThreadPoolExecutor(max_workers=1) as client:
                job_a = client.submit(
                    executor.execute, bell_circuit(2), 32, seed=1, shard=0
                )
                time.sleep(0.1)  # A is in flight on shard 0
                os.kill(victim, signal.SIGKILL)
                result_b = executor.execute(bell_circuit(2), 32, seed=2, shard=1)
                result_a = job_a.result(timeout=60)
            assert result_b.retries == 1
            assert result_a.retries == 0
            assert executor.total_retries == 1
        finally:
            clear_faults()
            executor.close()


class TestLifecycle:
    def test_close_is_idempotent_and_rejects_further_work(self):
        executor = ShardedExecutor(2, name="lifecycle")
        executor.close()
        executor.close()
        assert executor.closed
        with pytest.raises(ExecutionError, match="closed"):
            executor.execute(bell_circuit(2), 8, seed=0)

    def test_context_manager_closes(self):
        with ShardedExecutor(1, name="ctx") as executor:
            assert executor.execute(bell_circuit(2), 8, seed=0).total_counts() == 8
        assert executor.closed

    def test_invalid_construction(self):
        with pytest.raises(ExecutionError):
            ShardedExecutor(0)
        with pytest.raises(ExecutionError):
            get_sharded_executor(0)

    def test_shard_index_out_of_range(self, sharded2):
        with pytest.raises(ExecutionError, match="out of range"):
            sharded2.execute(bell_circuit(2), 8, seed=0, shard=7)


class TestShardedBroker:
    def test_shm_lane_cannot_ride_on_process_shards(self):
        with pytest.raises(ExecutionError, match="shm-processes"):
            QuantumJobService(
                workers=1, processes=2, backend_options={"shm-processes": 2}
            )

    def test_sharded_service_counts_match_in_process(self):
        set_config(seed=4321)
        circuit = qft_circuit(4)
        with QuantumJobService(
            backend="qpp", workers=1, enable_cache=False,
            backend_options={"threads": 1}, name="ref",
        ) as service:
            reference = service.submit(circuit, shots=512).counts()
        with QuantumJobService(
            backend="qpp", workers=2, processes=2, enable_cache=False,
            backend_options={"threads": 1}, name="sharded",
        ) as service:
            sharded = service.submit(circuit, shots=512).counts()
            metrics = service.metrics()
        assert sharded == reference
        assert metrics.sharded_executions == 1
        assert metrics.process_shards == 2

    def test_sharded_service_honours_optimize_option(self):
        set_config(seed=2718)
        circuit = qft_circuit(4)
        with QuantumJobService(
            backend="qpp", workers=1, enable_cache=False,
            backend_options={"threads": 1, "optimize": False}, name="ref-noopt",
        ) as service:
            reference = service.submit(circuit, shots=256).counts()
        with QuantumJobService(
            backend="qpp", workers=2, processes=2, enable_cache=False,
            backend_options={"threads": 1, "optimize": False}, name="shard-noopt",
        ) as service:
            sharded = service.submit(circuit, shots=256).counts()
        assert sharded == reference

    def test_sharded_plan_hits_counter(self):
        set_config(seed=6)
        circuit = ghz_circuit(4)
        with QuantumJobService(
            backend="qpp", workers=1, processes=2, enable_cache=False,
            # Pin the dense lane: auto-routing would send this Clifford
            # circuit to the tableau and never warm a shard plan cache.
            backend_options={"threads": 1, "method": "statevector"},
            name="plan-hits",
        ) as service:
            service.submit(circuit, shots=32).counts()  # compiles in the worker
            service.submit(circuit, shots=32).counts()  # replays the warm plan
            metrics = service.metrics()
            executor = service.sharded_executor
            assert sum(executor.worker_plan_cache_sizes()) >= 1
        assert metrics.sharded_executions == 2
        assert metrics.sharded_plan_hits == 1

    def test_sharded_service_requires_qpp(self):
        with pytest.raises(ExecutionError, match="qpp"):
            QuantumJobService(backend="noisy-qpp", processes=2)

    def test_shutdown_closes_shard_executor(self):
        service = QuantumJobService(
            backend="qpp", workers=1, processes=2, name="teardown"
        )
        executor = service.sharded_executor
        assert executor is not None and not executor.closed
        service.shutdown()
        assert executor.closed
        service.shutdown()  # idempotent

    def test_key_affinity_routes_repeat_jobs_to_one_shard(self):
        set_config(seed=1)
        circuit = ghz_circuit(4)
        with QuantumJobService(
            backend="qpp", workers=2, processes=2, enable_cache=False,
            backend_options={"threads": 1}, name="affinity",
        ) as service:
            executor = service.sharded_executor
            for _ in range(3):
                service.submit(circuit, shots=64).counts()
            # All three executions landed on the key's shard; its worker
            # compiled once, so no other shard saw the circuit at all.
            from repro.service.keys import job_key

            key = job_key(circuit, "qpp", service.backend_options)
            shard = executor.shard_for(key)
            assert 0 <= shard < 2


class TestShardHealthMetrics:
    def test_queue_depths_idle_and_sized_per_shard(self, sharded2):
        depths = sharded2.shard_queue_depths()
        assert len(depths) == 2
        assert depths == [0, 0]  # nothing in flight between tests

    def test_queue_depths_return_to_zero_after_work(self, sharded2):
        sharded2.execute(algorithm_suite()["bell"], 64, seed=3)
        assert sharded2.shard_queue_depths() == [0, 0]

    def test_broker_snapshot_reports_shard_health(self):
        set_config(seed=11)
        with QuantumJobService(
            backend="qpp", workers=2, processes=2, name="health-metrics"
        ) as service:
            handle = service.submit(bell_circuit(2), shots=128)
            handle.result(timeout=30)
            snapshot = service.metrics()
        assert snapshot.process_shards == 2
        assert snapshot.shard_respawns == 0
        assert len(snapshot.shard_queue_depths) == 2

    def test_respawns_surface_in_queue_depth_accounting(self):
        """A killed worker is respawned; the retry shows up in total_retries
        (the snapshot's shard_respawns source) and in-flight counters drain
        back to zero despite the mid-flight failure."""
        with ShardedExecutor(2, name="health-respawn") as executor:
            circuit = algorithm_suite()["bell"]
            executor.execute(circuit, 32, seed=5)
            pids = executor.shard_pids()
            os.kill(pids[0], signal.SIGKILL)
            executor.execute(circuit, 32, seed=5)
            assert executor.total_retries >= 1
            assert executor.shard_queue_depths() == [0, 0]


class TestColdKeyWorkStealing:
    def _depths(self, executor, values):
        with executor._lock:
            executor._inflight[:] = values

    def test_cold_key_steered_away_from_busy_affine_shard(self, sharded2):
        key = "00" * 32  # shard_for -> 0
        assert sharded2.shard_for(key) == 0
        self._depths(sharded2, [5, 0])
        try:
            result = sharded2.execute_for_key(
                key, algorithm_suite()["bell"], 64, seed=9
            )
        finally:
            self._depths(sharded2, [0, 0])
        assert sum(result.counts.values()) == 64
        with sharded2._lock:
            assert sharded2._key_owners[key] == 1
        assert sharded2.total_steals >= 1

    def test_stolen_key_stays_affine_to_new_owner(self, sharded2):
        """Future hits follow the owner recorded at steal time even when the
        load situation has reversed — that worker's plan cache is the warm
        one now."""
        key = "02" * 32
        assert sharded2.shard_for(key) == 0
        self._depths(sharded2, [5, 0])
        try:
            sharded2.execute_for_key(key, algorithm_suite()["bell"], 32, seed=9)
            # Owner 1 is now the busy one; the key must not migrate back.
            self._depths(sharded2, [0, 5])
            sharded2.execute_for_key(key, algorithm_suite()["bell"], 32, seed=9)
        finally:
            self._depths(sharded2, [0, 0])
        with sharded2._lock:
            assert sharded2._key_owners[key] == 1

    def test_idle_executor_routes_pure_hash_affinity(self, sharded2):
        """All depths equal -> ties prefer the affine shard, no steal."""
        key = "04" * 32
        assert sharded2.shard_for(key) == 0
        steals_before = sharded2.total_steals
        sharded2.execute_for_key(key, algorithm_suite()["bell"], 32, seed=9)
        with sharded2._lock:
            assert sharded2._key_owners[key] == 0
        assert sharded2.total_steals == steals_before

    def test_stealing_never_changes_fixed_seed_counts(self, sharded2):
        """The chunk seed derivation is shard-agnostic, so a stolen job
        reduces to the identical histogram."""
        circuit = algorithm_suite()["ghz"]
        key = "06" * 32
        assert sharded2.shard_for(key) == 0
        affine = sharded2.execute(circuit, 128, seed=31, shard=0)
        self._depths(sharded2, [5, 0])
        try:
            stolen = sharded2.execute_for_key(key, circuit, 128, seed=31)
        finally:
            self._depths(sharded2, [0, 0])
        assert dict(stolen.counts) == dict(affine.counts)

    def test_owner_map_is_bounded(self):
        with ShardedExecutor(2, name="owner-bound") as executor:
            executor._key_owner_capacity = 8
            for index in range(20):
                executor._owner_for_key(f"{index:064x}")
            assert len(executor._key_owners) == 8


class TestStartMethods:
    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_start_method_lifecycle_and_determinism(self, method):
        """The macOS/Windows start methods (ROADMAP follow-up): workers are
        preloaded via the pool initializer, and fixed-seed counts stay
        bit-identical to the fork-started executor."""
        circuit = algorithm_suite()["bell"]
        with ShardedExecutor(2, name=f"shard-{method}", mp_context=method) as executor:
            counts = executor.execute(circuit, 128, seed=17)
        with ShardedExecutor(2, name="shard-fork-ref") as reference:
            expected = reference.execute(circuit, 128, seed=17)
        assert dict(counts.counts) == dict(expected.counts)
