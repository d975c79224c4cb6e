"""Shared-memory process-parallel replay (`repro.exec.shm`).

The contracts under test:

* **Shm == serial, bitwise** — replaying a plan across
  :class:`SharedStatePool` worker processes must produce bit-for-bit the
  amplitudes of the serial replay for every kernel class, every worker
  count, and targets whose stride spans chunk edges — exactly the
  guarantee the thread lane gives (`test_simulator_chunked_plan`), now
  across process boundaries.
* **Fixed-seed counts identity** — local (thread-chunked), shm and
  sharded execution of the algorithm suite must produce identical
  histograms for a fixed seed.
* **Lifecycle hygiene** — every start method works, closed pools refuse
  work, and no ``/dev/shm`` segment (nor resource-tracker complaint)
  survives pool close, worker SIGKILL, or a process that exits without
  ever calling ``close()``.
"""

import os
import signal
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.algorithms.bell import bell_circuit
from repro.algorithms.ghz import ghz_circuit
from repro.algorithms.qft import qft_circuit
from repro.algorithms.shor import period_finding_circuit
from repro.algorithms.vqe import deuteron_ansatz_circuit
from repro.exceptions import ExecutionError
from repro.exec import LocalBackend, ShardedExecutor, SharedStatePool
from repro.exec.shm import (
    SEGMENT_PREFIX,
    get_shared_state_pool,
    shutdown_shared_state_pools,
)
from repro.ir import gates as G
from repro.ir.builder import CircuitBuilder
from repro.ir.composite import CompositeInstruction
from repro.simulator.execution_plan import compile_parametric_plan, compile_plan
from repro.simulator.parallel_engine import ParallelSimulationEngine

from test_simulator_chunked_plan import random_circuit

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="POSIX shared memory required"
)


def live_segments() -> list[str]:
    return sorted(f for f in os.listdir("/dev/shm") if f.startswith(SEGMENT_PREFIX))


@pytest.fixture(autouse=True)
def no_segment_litter():
    """Every test must leave /dev/shm exactly as it found it."""
    before = live_segments()
    yield
    assert live_segments() == before


# ---------------------------------------------------------------------------
# Shm replay == serial replay, bitwise
# ---------------------------------------------------------------------------


class TestShmBitwiseIdentity:
    @pytest.mark.parametrize("workers", [2, 3])
    def test_randomized_circuits_all_kernels(self, workers):
        rng = np.random.default_rng(20260729 + workers)
        with SharedStatePool(workers, name=f"shm-rand-{workers}") as pool:
            for _ in range(4):
                n_qubits = int(rng.integers(4, 8))
                circuit = random_circuit(rng, n_qubits, int(rng.integers(8, 30)))
                plan = compile_plan(circuit, n_qubits, chunk_threshold=2)
                serial = plan.execute(plan.new_state())
                shm = plan.execute(plan.new_state(), pool=pool)
                assert np.array_equal(serial, shm)

    def test_stride_spans_chunk_edge(self):
        """Top-qubit targets force the column/assignment split paths."""
        n = 6
        circuit = CompositeInstruction("edge", n)
        circuit.add(G.H([n - 1]))
        circuit.add(G.RZ([n - 1], [0.7]))
        circuit.add(G.CX([n - 1, 0]))
        circuit.add(G.CH([n - 1, n - 2]))
        circuit.add(G.ISwap([0, n - 1]))
        circuit.add(G.CPhase([n - 2, n - 1], [0.3]))
        circuit.add(G.PermutationGate([1, 0, 3, 2], [n - 2, n - 1]))
        plan = compile_plan(circuit, n, optimize=False, chunk_threshold=2)
        serial = plan.execute(plan.new_state())
        with SharedStatePool(3, name="shm-edge") as pool:
            shm = plan.execute(plan.new_state(), pool=pool)
        assert np.array_equal(serial, shm)

    def test_from_random_input_state(self):
        """replay_plan round-trips arbitrary input data, not just |0...0>."""
        rng = np.random.default_rng(13)
        n = 7
        circuit = random_circuit(rng, n, 25)
        plan = compile_plan(circuit, n, chunk_threshold=2)
        state = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        state /= np.linalg.norm(state)
        serial = plan.execute(state.copy())
        with SharedStatePool(2, name="shm-input") as pool:
            shm = plan.execute(state.copy(), pool=pool)
        assert np.array_equal(serial, shm)

    def test_parametric_plans_rebind_through_shm(self):
        """Workers recompile the symbolic ansatz and rebind with the shipped
        values, reproducing the parent's thread-plan binding bit for bit."""
        ansatz = deuteron_ansatz_circuit().without_measurements()
        parametric = compile_parametric_plan(ansatz, 2, chunk_threshold=2)
        with SharedStatePool(2, name="shm-parametric") as pool:
            for theta in (0.1, 0.59, -1.3):
                plan = parametric.bind([theta])
                serial = plan.execute(plan.new_state())
                plan = parametric.bind([theta])
                shm = plan.execute(plan.new_state(), pool=pool)
                assert np.array_equal(serial, shm)

    def test_matches_thread_lane_bitwise(self):
        """Thread lane and shm lane both equal serial, hence each other —
        the ChunkPool interchangeability contract."""
        plan = compile_plan(qft_circuit(8), 8, chunk_threshold=2)
        serial = plan.execute(plan.new_state())
        with ParallelSimulationEngine(num_threads=3) as engine:
            threaded = plan.execute(plan.new_state(), pool=engine)
        with SharedStatePool(3, name="shm-vs-threads") as pool:
            shm = plan.execute(plan.new_state(), pool=pool)
        assert np.array_equal(serial, threaded)
        assert np.array_equal(serial, shm)

    def test_reset_plans_fall_back_to_the_fallback_pool(self):
        """Mid-circuit resets cannot span processes; the pool hands the
        replay to its fallback (the thread engine), consuming the RNG
        stream exactly as serial replay does."""
        builder = CircuitBuilder(4, name="reset_shm")
        builder.h(0)
        builder.cx(0, 1)
        builder.reset(1)
        builder.cphase(1, 2, 0.5)
        builder.h(3)
        circuit = builder.build()
        plan = compile_plan(circuit, 4, optimize=False, chunk_threshold=2)
        serial = plan.execute(plan.new_state(), rng=np.random.default_rng(7))
        with ParallelSimulationEngine(num_threads=3) as engine:
            with SharedStatePool(2, name="shm-reset", fallback=engine) as pool:
                assert not pool.can_replay(plan)
                shm = plan.execute(
                    plan.new_state(), rng=np.random.default_rng(7), pool=pool
                )
        assert np.array_equal(serial, shm)


# ---------------------------------------------------------------------------
# Fixed-seed counts identity: local / shm / sharded
# ---------------------------------------------------------------------------


def algorithm_suite():
    shor = period_finding_circuit(15, 2)
    vqe = deuteron_ansatz_circuit(0.59)
    return {
        "bell": (bell_circuit(2), 2),
        "ghz": (ghz_circuit(5), 5),
        "qft": (qft_circuit(6), 6),
        "shor": (shor, shor.n_qubits),
        "vqe": (vqe, max(vqe.n_qubits, 2)),
    }


class TestShmCountsIdentity:
    def test_fixed_seed_counts_identical_local_vs_shm_vs_sharded(self):
        """The same engine threads sample in all three configurations and
        the replays are bitwise identical, so not a single count may move
        between the thread lane, the shm lane and the sharded path."""
        local = LocalBackend(engine=ParallelSimulationEngine(num_threads=2))
        shm = LocalBackend(
            engine=ParallelSimulationEngine(num_threads=2),
            shm_pool=SharedStatePool(2, name="shm-counts"),
        )
        with ShardedExecutor(2, name="shm-counts-shard") as sharded:
            for name, (circuit, width) in algorithm_suite().items():
                reference = local.execute(
                    circuit, 256, n_qubits=width, seed=4242, chunk_threshold=2
                )
                via_shm = shm.execute(
                    circuit, 256, n_qubits=width, seed=4242, chunk_threshold=2
                )
                via_shards = sharded.execute(
                    circuit, 256, n_qubits=width, seed=4242, chunk_threshold=2
                )
                assert dict(via_shm.counts) == dict(reference.counts), name
                assert dict(via_shards.counts) == dict(reference.counts), name
        shm.shm_pool.close()
        local.close()
        shm.close()

    def test_expectation_bitwise_identical_local_vs_shm(self):
        from repro.operators.pauli import PauliTerm

        observable = PauliTerm({0: "Z", 1: "Z"}, 1.0)
        local = LocalBackend(engine=ParallelSimulationEngine(num_threads=2))
        pool = SharedStatePool(2, name="shm-expect")
        shm = LocalBackend(
            engine=ParallelSimulationEngine(num_threads=2), shm_pool=pool
        )
        circuit = qft_circuit(6)
        reference = local.expectation(circuit, observable, n_qubits=6, chunk_threshold=2)
        via_shm = shm.expectation(circuit, observable, n_qubits=6, chunk_threshold=2)
        assert reference == via_shm
        pool.close()
        local.close()
        shm.close()


# ---------------------------------------------------------------------------
# Lifecycle: start methods, thresholds, closed pools, shared registry
# ---------------------------------------------------------------------------


class TestShmLifecycle:
    @pytest.mark.parametrize("method", ["fork", "spawn", "forkserver"])
    def test_start_method_lifecycle(self, method):
        """The macOS/Windows-relevant start methods must work end to end:
        spawn/forkserver workers preload the simulator stack while
        starting (the worker target unpickles from this package) and then
        replay bitwise-identically."""
        plan = compile_plan(qft_circuit(6), 6, chunk_threshold=2)
        serial = plan.execute(plan.new_state())
        with SharedStatePool(2, name=f"shm-{method}", mp_context=method) as pool:
            assert pool.start_method == method
            shm = plan.execute(plan.new_state(), pool=pool)
            assert np.array_equal(serial, shm)
        assert pool.closed

    def test_below_threshold_states_never_allocate_segments(self):
        plan = compile_plan(bell_circuit(2), 2)  # default threshold = 2^16
        with SharedStatePool(2, name="shm-small") as pool:
            plan.execute(plan.new_state(), pool=pool)
            assert pool.segment_names() == ()

    def test_closed_pool_falls_back_to_serial(self):
        plan = compile_plan(qft_circuit(6), 6, chunk_threshold=2)
        serial = plan.execute(plan.new_state())
        pool = SharedStatePool(2, name="shm-closed")
        pool.close()
        assert not pool.can_replay(plan)
        result = plan.execute(plan.new_state(), pool=pool)
        assert np.array_equal(serial, result)

    def test_single_worker_pool_declines(self):
        plan = compile_plan(qft_circuit(6), 6, chunk_threshold=2)
        with SharedStatePool(1, name="shm-one") as pool:
            assert not pool.can_replay(plan)
            assert pool.replay_plan(plan, plan.new_state()) is None

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ExecutionError):
            SharedStatePool(0)

    def test_shared_registry_reuses_and_replaces(self):
        first = get_shared_state_pool(2)
        assert get_shared_state_pool(2) is first
        first.close()
        second = get_shared_state_pool(2)
        assert second is not first
        shutdown_shared_state_pools()
        assert second.closed

    def test_segments_grow_but_never_shrink(self):
        """A bigger state reallocates; a smaller one reuses the larger
        segments (workers view only the leading amplitudes)."""
        small = compile_plan(qft_circuit(6), 6, chunk_threshold=2)
        large = compile_plan(qft_circuit(8), 8, chunk_threshold=2)
        with SharedStatePool(2, name="shm-grow") as pool:
            small.execute(small.new_state(), pool=pool)
            first = pool.segment_names()
            large_serial = large.execute(large.new_state())
            large_shm = large.execute(large.new_state(), pool=pool)
            assert np.array_equal(large_serial, large_shm)
            grown = pool.segment_names()
            assert grown != first
            small_serial = small.execute(small.new_state())
            small_shm = small.execute(small.new_state(), pool=pool)
            assert np.array_equal(small_serial, small_shm)
            assert pool.segment_names() == grown


# ---------------------------------------------------------------------------
# Teardown: SIGKILL mid-step, leak sweeps, shard-borrowed pools
# ---------------------------------------------------------------------------


class TestShmTeardown:
    @pytest.mark.parametrize("victim_index", [0, 1])
    def test_sigkill_worker_recovers_and_cleans(self, victim_index):
        """A SIGKILLed worker leaves its siblings at the step barrier; the
        parent must detect the death, abort, respawn the worker set, fail
        the replay cleanly — and still leave /dev/shm spotless at close.
        Both victim positions matter: killing the *last* worker while the
        first blocks alive at the barrier is the case an in-order ack wait
        would hang on forever."""
        plan = compile_plan(qft_circuit(7), 7, chunk_threshold=2)
        serial = plan.execute(plan.new_state())
        pool = SharedStatePool(2, name=f"shm-kill-{victim_index}")
        victim = pool.worker_pids()[victim_index]
        os.kill(victim, signal.SIGKILL)
        with pytest.raises(ExecutionError, match="mid-replay"):
            plan.execute(plan.new_state(), pool=pool)
        assert pool.respawns == 1
        assert victim not in pool.worker_pids()
        # The pool recovered: the next replay is clean and correct.
        shm = plan.execute(plan.new_state(), pool=pool)
        assert np.array_equal(serial, shm)
        pool.close()
        assert pool.segment_names() == ()

    def test_exit_without_close_sweeps_segments(self):
        """A process that exits without close() must not litter /dev/shm or
        provoke resource-tracker complaints — the atexit/finalizer sweep
        owns the cleanup."""
        script = textwrap.dedent(
            """
            from repro.exec.shm import SharedStatePool
            from repro.simulator.execution_plan import compile_plan
            from repro.algorithms.qft import qft_circuit

            plan = compile_plan(qft_circuit(6), 6, chunk_threshold=2)
            pool = SharedStatePool(2, name="shm-litter")
            plan.execute(plan.new_state(), pool=pool)
            print("SEGMENTS:" + ",".join(pool.segment_names()))
            # no close(): the exit sweep must handle it
            """
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=60,
            env=env,
        )
        assert result.returncode == 0, result.stderr
        names = result.stdout.split("SEGMENTS:", 1)[1].strip().split(",")
        assert len(names) == 2
        for name in names:
            assert not os.path.exists(os.path.join("/dev/shm", name))
        assert "resource_tracker" not in result.stderr
