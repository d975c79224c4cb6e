"""``SharedStatePool`` is a name over the thread chunk engine.

Callers build ``SharedStatePool(processes)`` with one argument, pass it as
``StateVector.apply_plan(plan, pool=...)`` and ``close()`` it.  That
contract holds with no process and no shared-memory segment behind it.

The contracts under test:

* **Pool == serial, bitwise** — replaying a plan on the pool produces bit
  for bit the serial amplitudes for every kernel class, worker count,
  stride spanning a chunk edge, input state, rebound parametric plan and
  mid-circuit reset — exactly what the engine it names gives.
* **Fixed-seed counts identity** — a :class:`LocalBackend` built on the
  pool samples the histograms (and expectations) of one built on a
  :class:`ParallelSimulationEngine` of the same width.
* **Lifecycle** — below-threshold and one-thread replays start no thread,
  a closed pool stays usable, bad widths are refused, and a process that
  never calls ``close()`` still exits cleanly.
"""

import multiprocessing
import os
import subprocess
import sys
import textwrap
import threading

import numpy as np
import pytest

from repro.algorithms.bell import bell_circuit
from repro.algorithms.ghz import ghz_circuit
from repro.algorithms.qft import qft_circuit
from repro.algorithms.shor import period_finding_circuit
from repro.algorithms.vqe import deuteron_ansatz_circuit
from repro.exceptions import ExecutionError
from repro.exec import LocalBackend
from repro.exec.shm import SharedStatePool
from repro.ir import gates as G
from repro.ir.builder import CircuitBuilder
from repro.ir.composite import CompositeInstruction
from repro.simulator.execution_plan import compile_parametric_plan, compile_plan
from repro.simulator.parallel_engine import ParallelSimulationEngine
from repro.simulator.statevector import StateVector

from test_simulator_chunked_plan import random_circuit


def _segments() -> set[str]:
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


def _new_threads(before: set[int]) -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.ident not in before]


def test_pool_starts_no_process_creates_no_segment_and_closes_twice():
    children = {p.pid for p in multiprocessing.active_children()}
    segments = _segments()
    plan = compile_plan(qft_circuit(8), 8, chunk_threshold=2)
    pool = SharedStatePool(2)
    try:
        StateVector(8, dtype=plan.dtype).apply_plan(plan, pool=pool)
        assert {p.pid for p in multiprocessing.active_children()} == children
        assert _segments() - segments == set()
    finally:
        pool.close()
    pool.close()  # a second close is a no-op
    with pytest.raises(ExecutionError):
        SharedStatePool(0)


def test_apply_plan_is_bitwise_serial_on_the_pools_threads():
    plan = compile_plan(qft_circuit(10), 10, chunk_threshold=2)
    serial = StateVector(10, dtype=plan.dtype).apply_plan(plan)
    before = {t.ident for t in threading.enumerate()}
    pool = SharedStatePool(2)
    try:
        assert isinstance(pool, ParallelSimulationEngine)
        assert pool.effective_threads() == 2
        pooled = StateVector(10, dtype=plan.dtype).apply_plan(plan, pool=pool)
        assert np.array_equal(pooled.data, serial.data)
        # The replay really chunked, on the pool's own threads.
        started = _new_threads(before)
        assert 1 <= len(started) <= 2
        assert all(t.name.startswith("sim-engine") for t in started)
    finally:
        pool.close()


# ---------------------------------------------------------------------------
# Pool replay == serial replay, bitwise
# ---------------------------------------------------------------------------


class TestPoolBitwiseIdentity:
    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_randomized_circuits_all_kernels(self, workers):
        rng = np.random.default_rng(20260729 + workers)
        with SharedStatePool(workers) as pool:
            for _ in range(4):
                n_qubits = int(rng.integers(4, 8))
                circuit = random_circuit(rng, n_qubits, int(rng.integers(8, 30)))
                plan = compile_plan(circuit, n_qubits, chunk_threshold=2)
                serial = plan.execute(plan.new_state())
                pooled = plan.execute(plan.new_state(), pool=pool)
                assert np.array_equal(serial, pooled)

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
        with SharedStatePool(3) as pool:
            pooled = plan.execute(plan.new_state(), pool=pool)
        assert np.array_equal(serial, pooled)

    def test_from_random_input_state(self):
        """Arbitrary input data round-trips, not just |0...0>."""
        rng = np.random.default_rng(13)
        n = 7
        circuit = random_circuit(rng, n, 25)
        plan = compile_plan(circuit, n, chunk_threshold=2)
        state = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        state /= np.linalg.norm(state)
        serial = plan.execute(state.copy())
        with SharedStatePool(2) as pool:
            pooled = plan.execute(state.copy(), pool=pool)
        assert np.array_equal(serial, pooled)

    def test_parametric_plans_rebind_through_the_pool(self):
        """Each binding of one parametric plan replays on the pool bit for
        bit as the same binding replays serially."""
        ansatz = deuteron_ansatz_circuit().without_measurements()
        parametric = compile_parametric_plan(ansatz, 2, chunk_threshold=2)
        with SharedStatePool(2) as pool:
            for theta in (0.1, 0.59, -1.3):
                plan = parametric.bind([theta])
                serial = plan.execute(plan.new_state())
                plan = parametric.bind([theta])
                pooled = plan.execute(plan.new_state(), pool=pool)
                assert np.array_equal(serial, pooled)

    def test_matches_thread_lane_bitwise(self):
        """The pool and an engine of the same width both equal serial, hence
        each other: the name adds no lane of its own."""
        plan = compile_plan(qft_circuit(8), 8, chunk_threshold=2)
        serial = plan.execute(plan.new_state())
        with ParallelSimulationEngine(num_threads=3) as engine:
            threaded = plan.execute(plan.new_state(), pool=engine)
        with SharedStatePool(3) as pool:
            pooled = plan.execute(plan.new_state(), pool=pool)
        assert np.array_equal(serial, threaded)
        assert np.array_equal(serial, pooled)

    def test_reset_plans_consume_the_rng_as_serial(self):
        """A mid-circuit reset runs serially inside the chunked replay, and
        draws from the RNG stream exactly as the serial replay does."""
        builder = CircuitBuilder(4, name="reset_pool")
        builder.h(0)
        builder.cx(0, 1)
        builder.reset(1)
        builder.cphase(1, 2, 0.5)
        builder.h(3)
        circuit = builder.build()
        plan = compile_plan(circuit, 4, optimize=False, chunk_threshold=2)
        serial_rng = np.random.default_rng(7)
        serial = plan.execute(plan.new_state(), rng=serial_rng)
        pooled_rng = np.random.default_rng(7)
        with SharedStatePool(2) as pool:
            pooled = plan.execute(plan.new_state(), rng=pooled_rng, pool=pool)
        assert np.array_equal(serial, pooled)
        assert serial_rng.random() == pooled_rng.random()


# ---------------------------------------------------------------------------
# Fixed-seed counts identity: engine-backed vs pool-backed LocalBackend
# ---------------------------------------------------------------------------


ALGORITHMS = {
    "bell": lambda: bell_circuit(2),
    "ghz": lambda: ghz_circuit(5),
    "qft": lambda: qft_circuit(6),
    "shor": lambda: period_finding_circuit(15, 2),
    "vqe": lambda: deuteron_ansatz_circuit(0.59),
}


class TestPoolCountsIdentity:
    @pytest.mark.parametrize("name", list(ALGORITHMS))
    def test_fixed_seed_counts_identical_engine_vs_pool(self, name):
        """Sampling streams depend only on the thread count, and the chunked
        replay is bitwise serial, so a backend on the pool samples the
        engine-backed backend's histogram, chunked or not."""
        circuit = ALGORITHMS[name]()
        width = max(circuit.n_qubits, 2)
        with LocalBackend(engine=ParallelSimulationEngine(num_threads=2)) as local, \
                LocalBackend(engine=SharedStatePool(2)) as pooled:
            for threshold in (2, None):
                reference = local.execute(
                    circuit, 256, n_qubits=width, seed=4242, chunk_threshold=threshold
                )
                got = pooled.execute(
                    circuit, 256, n_qubits=width, seed=4242, chunk_threshold=threshold
                )
                assert dict(got.counts) == dict(reference.counts), (name, threshold)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_trajectory_counts_identical_engine_vs_pool(self, workers):
        """A reset circuit walks the branch tree on the pool exactly as on
        an engine of the same width (a single chunk also chunk-replays its
        segments on the pool's own threads)."""
        builder = CircuitBuilder(5, name="reset_traj_pool")
        for q in range(5):
            builder.h(q)
        builder.cx(0, 1)
        builder.reset(1)
        builder.cphase(1, 2, 0.5)
        builder.measure_all()
        circuit = builder.build()
        plan = compile_plan(circuit, 5, optimize=False, chunk_threshold=2)
        with ParallelSimulationEngine(num_threads=workers) as engine, \
                SharedStatePool(workers) as pool:
            reference = engine.run_trajectories(5, circuit, 200, seed=11, plan=plan)
            got = pool.run_trajectories(5, circuit, 200, seed=11, plan=plan)
        assert got == reference
        assert sum(got.values()) == 200

    def test_expectation_bitwise_identical_engine_vs_pool(self):
        from repro.operators.pauli import PauliTerm

        observable = PauliTerm({0: "Z", 1: "Z"}, 1.0)
        circuit = qft_circuit(6)
        with LocalBackend(engine=ParallelSimulationEngine(num_threads=2)) as local, \
                LocalBackend(engine=SharedStatePool(2)) as pooled:
            reference = local.expectation(circuit, observable, n_qubits=6, chunk_threshold=2)
            got = pooled.expectation(circuit, observable, n_qubits=6, chunk_threshold=2)
        assert got == reference


# ---------------------------------------------------------------------------
# Lifecycle: thresholds, one thread, closed pools, widths, exit
# ---------------------------------------------------------------------------


class TestPoolLifecycle:
    def test_below_threshold_states_start_no_thread(self):
        plan = compile_plan(bell_circuit(2), 2)  # default threshold = 2^21
        serial = plan.execute(plan.new_state())
        before = {t.ident for t in threading.enumerate()}
        with SharedStatePool(2) as pool:
            pooled = plan.execute(plan.new_state(), pool=pool)
            assert _new_threads(before) == []
        assert np.array_equal(serial, pooled)

    def test_single_thread_pool_replays_serially(self):
        plan = compile_plan(qft_circuit(6), 6, chunk_threshold=2)
        serial = plan.execute(plan.new_state())
        before = {t.ident for t in threading.enumerate()}
        with SharedStatePool(1) as pool:
            assert pool.effective_threads() == 1
            pooled = plan.execute(plan.new_state(), pool=pool)
            assert _new_threads(before) == []
        assert np.array_equal(serial, pooled)

    def test_closed_pool_still_replays_bitwise(self):
        """``close()`` tears the threads down; the next replay builds them
        again, as any engine does."""
        plan = compile_plan(qft_circuit(6), 6, chunk_threshold=2)
        serial = plan.execute(plan.new_state())
        pool = SharedStatePool(2)
        first = plan.execute(plan.new_state(), pool=pool)
        pool.close()
        try:
            again = plan.execute(plan.new_state(), pool=pool)
        finally:
            pool.close()
        assert np.array_equal(serial, first)
        assert np.array_equal(serial, again)

    @pytest.mark.parametrize("processes", [0, -2])
    def test_invalid_worker_count_rejected(self, processes):
        with pytest.raises(ExecutionError, match="at least 1"):
            SharedStatePool(processes)

    def test_pool_reused_across_state_sizes(self):
        """One pool serves a small, a larger, then the small plan again."""
        small = compile_plan(qft_circuit(6), 6, chunk_threshold=2)
        large = compile_plan(qft_circuit(8), 8, chunk_threshold=2)
        with SharedStatePool(2) as pool:
            for plan in (small, large, small):
                serial = plan.execute(plan.new_state())
                pooled = plan.execute(plan.new_state(), pool=pool)
                assert np.array_equal(serial, pooled)

    def test_exit_without_close_exits_cleanly(self):
        """A process that never calls ``close()`` neither hangs on the
        pool's threads nor reports an error from their teardown."""
        script = textwrap.dedent(
            """
            from repro.exec.shm import SharedStatePool
            from repro.simulator.execution_plan import compile_plan
            from repro.algorithms.qft import qft_circuit

            plan = compile_plan(qft_circuit(6), 6, chunk_threshold=2)
            pool = SharedStatePool(2)
            plan.execute(plan.new_state(), pool=pool)
            print("REPLAYED")
            # no close(): interpreter exit must handle it
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
        assert "REPLAYED" in result.stdout
        assert "Exception ignored" not in result.stderr
        assert "Traceback" not in result.stderr
