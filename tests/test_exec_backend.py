"""Tests for the unified execution-backend layer (in-process side).

Covers the :class:`ExecutionBackend` protocol, :class:`LocalBackend` as the
canonical in-process seam, :class:`DensityBackend` behind the noisy
accelerator, the accelerator adapters, and the replay-lane rule.
"""

import pytest

from repro.algorithms.bell import bell_circuit
from repro.algorithms.ghz import ghz_circuit
from repro.algorithms.qft import qft_circuit
from repro.algorithms.vqe import deuteron_ansatz_circuit, deuteron_hamiltonian
from repro.config import set_config
from repro.core.executor import KernelTask, run_one_by_one
from repro.exceptions import ExecutionError
from repro.exec import DensityBackend, ExecutionResult, LocalBackend
from repro.ir.builder import CircuitBuilder
from repro.ir.transforms import default_pass_manager
from repro.runtime.buffer import AcceleratorBuffer
from repro.runtime.noisy_accelerator import NoisyAccelerator
from repro.runtime.qpp_accelerator import QppAccelerator
from repro.runtime.service_registry import get_accelerator
from repro.simulator.execution_plan import DEFAULT_CHUNK_THRESHOLD, compile_plan
from repro.simulator.parallel_engine import ParallelSimulationEngine
from repro.simulator.plan_cache import reset_plan_cache
from repro.simulator.statevector import StateVector


@pytest.fixture(autouse=True)
def fresh_plan_cache():
    reset_plan_cache()
    yield
    reset_plan_cache()


class TestExecutionResult:
    def test_total_counts(self):
        result = ExecutionResult(
            counts={"00": 3, "11": 5}, shots=8, n_qubits=2, backend="local"
        )
        assert result.total_counts() == 8

    def test_rejects_non_positive_shots(self):
        with pytest.raises(ValueError):
            ExecutionResult(counts={}, shots=0, n_qubits=1, backend="local")


class TestLocalBackend:
    def test_execute_matches_accelerator_path(self):
        set_config(seed=99)
        circuit = ghz_circuit(4)
        backend = LocalBackend(engine=ParallelSimulationEngine(num_threads=1))
        result = backend.execute(circuit, 512, seed=99)

        qpu = QppAccelerator({"threads": 1})
        buffer = AcceleratorBuffer(4)
        qpu.execute(buffer, circuit, shots=512)
        assert dict(result.counts) == buffer.get_measurement_counts()
        assert result.shots == 512 and result.n_qubits == 4
        assert result.backend == "local"

    def test_compile_returns_cached_plan(self):
        backend = LocalBackend()
        circuit = bell_circuit(2)
        plan = backend.compile(circuit)
        assert plan is backend.compile(circuit)
        result = backend.execute(circuit, 64, seed=1)
        assert result.plan_cached  # compile() warmed the cache

    def test_parametric_execution_requires_params(self):
        backend = LocalBackend()
        ansatz = deuteron_ansatz_circuit()  # symbolic theta
        with pytest.raises(ExecutionError, match="unbound"):
            backend.execute(ansatz, 32)
        result = backend.execute(ansatz, 32, seed=0, params=[0.5])
        assert result.total_counts() == 32

    def test_trajectory_path_for_reset_circuits(self):
        builder = CircuitBuilder(2, name="rst")
        builder.h(0)
        builder.reset(0)
        builder.h(1)
        builder.measure(0)
        builder.measure(1)
        circuit = builder.build()
        backend = LocalBackend(engine=ParallelSimulationEngine(num_threads=1))
        result = backend.execute(circuit, 128, seed=3)
        assert result.total_counts() == 128

    def test_expectation_matches_statevector(self):
        backend = LocalBackend()
        ansatz = deuteron_ansatz_circuit(0.59)
        observable = deuteron_hamiltonian()
        from repro.simulator.statevector import StateVector

        state = StateVector(2)
        state.run(ansatz.without_measurements())
        expected = state.expectation(observable)
        assert backend.expectation(
            ansatz.without_measurements(), observable
        ) == pytest.approx(expected, abs=0.0)

    def test_expectation_rejects_reset_circuits(self):
        builder = CircuitBuilder(1, name="rst")
        builder.h(0)
        builder.reset(0)
        backend = LocalBackend()
        with pytest.raises(ExecutionError, match="reset"):
            backend.expectation(builder.build(), deuteron_hamiltonian())

    def test_close_owned_engine_is_idempotent(self):
        backend = LocalBackend()
        backend.execute(bell_circuit(2), 16, seed=0)
        backend.close()
        backend.close()
        # The engine rebuilds its pool lazily: the backend stays usable.
        assert backend.execute(bell_circuit(2), 16, seed=0).total_counts() == 16

    def test_context_manager(self):
        with LocalBackend() as backend:
            assert backend.execute(bell_circuit(2), 8, seed=0).total_counts() == 8

    # "shm" builds the engine as ``repro.exec.shm.SharedStatePool``, the
    # name kept over the thread engine: it follows the same rule.
    @pytest.mark.parametrize("with_shm", [False, True], ids=["no-shm", "shm"])
    @pytest.mark.parametrize("above", [False, True], ids=["below", "above"])
    def test_one_lane_rule(self, above, with_shm):
        """Below the plan's chunk threshold: serial; at or above it: the
        engine's threads — and the replay span names the lane that ran."""
        from repro.exec.shm import SharedStatePool
        from repro.obs import enable_tracing

        circuit = ghz_circuit(4)
        threshold = 2 if above else 1 << 5
        engine = SharedStatePool(2) if with_shm else ParallelSimulationEngine(num_threads=2)
        tracer = enable_tracing()
        try:
            backend = LocalBackend(engine=engine)
            plan = backend.compile(circuit, chunk_threshold=threshold)
            expected = engine if above else None
            assert backend._replay_pool(plan) is expected
            backend.execute(circuit, 64, seed=3, chunk_threshold=threshold)
        finally:
            engine.close()
        lanes = [s.attributes["lane"] for s in tracer.spans() if s.name == "replay"]
        assert lanes[-1:] == [type(expected).__name__ if expected else "serial"]

    def test_closed_engine_still_serves_the_threaded_lane(self):
        """The backend does not own a passed engine: once the caller closes
        it, the next job above the threshold rebuilds its threads and
        samples the same fixed-seed counts."""
        circuit = ghz_circuit(4)
        engine = ParallelSimulationEngine(num_threads=2)
        try:
            backend = LocalBackend(engine=engine)
            plan = backend.compile(circuit, chunk_threshold=2)
            assert backend._replay_pool(plan) is engine
            before = backend.execute(circuit, 64, seed=3, chunk_threshold=2).counts
            engine.close()
            assert backend._replay_pool(plan) is engine
            after = backend.execute(circuit, 64, seed=3, chunk_threshold=2).counts
        finally:
            engine.close()
        assert after == before


class TestDensityBackend:
    def test_noisy_accelerator_is_thin_adapter(self):
        set_config(seed=11)
        circuit = bell_circuit(2)
        backend = DensityBackend()
        result = backend.execute(circuit, 256, seed=11)
        qpu = NoisyAccelerator()
        buffer = AcceleratorBuffer(2)
        qpu.execute(buffer, circuit, shots=256)
        assert dict(result.counts) == buffer.get_measurement_counts()
        assert result.extra["purity"] == pytest.approx(1.0)

    def test_compile_has_no_plan_form(self):
        assert DensityBackend().compile(bell_circuit(2)) is None

    def test_noisy_counts_stay_noisy(self):
        from repro.simulator.noise import NoiseModel, depolarizing_channel

        model = NoiseModel()
        model.default_single_qubit = depolarizing_channel(0.2)
        model.default_two_qubit = depolarizing_channel(0.2)
        result = DensityBackend(noise_model=model).execute(bell_circuit(2), 2048, seed=1)
        assert result.extra["purity"] < 0.99
        assert set(result.counts) - {"00", "11"}  # noise leaks population


class TestAcceleratorAdapter:
    def test_qpp_reports_backend_seam_metadata(self):
        set_config(seed=5)
        qpu = QppAccelerator({"threads": 1})
        buffer = AcceleratorBuffer(3)
        qpu.execute(buffer, ghz_circuit(3), shots=64)
        info = buffer.information
        assert info["plan-cached"] is False
        buffer2 = AcceleratorBuffer(3)
        qpu.execute(buffer2, ghz_circuit(3), shots=64)
        assert buffer2.information["plan-cached"] is True

    def test_plan_counts_match_the_gate_by_gate_reference(self):
        set_config(seed=5)
        circuit = qft_circuit(4)
        plan_buffer = AcceleratorBuffer(4)
        QppAccelerator({"threads": 1}).execute(plan_buffer, circuit, shots=256)
        state = StateVector(4).apply_circuit(default_pass_manager().run(circuit))
        engine = ParallelSimulationEngine(num_threads=1)
        reference = engine.sample_parallel(state, 256, tuple(range(4)), seed=5)
        engine.close()
        assert plan_buffer.get_measurement_counts() == reference

    @pytest.mark.parametrize(
        "option",
        [
            "processes",
            "retry-max-attempts",
            "breaker-failure-threshold",
            "breaker-cooldown-seconds",
        ],
    )
    def test_initialize_refuses_a_retired_process_shard_option(self, option):
        with pytest.raises(ExecutionError, match="retired with the process-shard lane"):
            get_accelerator("qpp", {option: 2})
        with pytest.raises(ExecutionError, match="retired"):
            QppAccelerator({option: 1})
        qpu = QppAccelerator({"threads": 1})
        with pytest.raises(ExecutionError, match="retired"):
            qpu.initialize({option: 2})
        assert option not in qpu.options

    def test_run_one_by_one_runs_every_task(self):
        set_config(seed=4)
        tasks = [KernelTask("bell", lambda: bell_circuit(2), 2, shots=64)]
        report = run_one_by_one(tasks, total_threads=1)
        assert report.results[0].counts
        assert sum(report.results[0].counts.values()) == 64


class TestLaneSelection:
    """No calibrated model picks the lane any more: one fixed rule on the
    plan's measured ``chunk_threshold`` routes every replay (serial below it,
    the engine's threads at or above it)."""

    def _plan(self, n=8, steps=6, chunk_threshold=None):
        from repro.ir.builder import CircuitBuilder

        builder = CircuitBuilder(n, name=f"lane-{n}-{steps}")
        for i in range(steps):
            builder.rx(i % n, 0.1 + 0.01 * i)  # non-cancelling: plan keeps every step
        return compile_plan(
            builder.build(), n, optimize=False, chunk_threshold=chunk_threshold
        )

    def test_serial_host_chooses_serial(self):
        from repro.simulator.parallel_engine import ParallelSimulationEngine

        # Below the crossover the replay is serial however many threads
        # the engine has.
        for threads in (1, 4):
            with ParallelSimulationEngine(num_threads=threads) as engine:
                backend = LocalBackend(engine=engine)
                assert backend._replay_pool(self._plan()) is None

    def test_threads_win_on_large_states(self):
        plan = self._plan(n=21, steps=2)
        assert plan.chunk_threshold == DEFAULT_CHUNK_THRESHOLD == 1 << 21
        backend = LocalBackend()
        try:
            assert backend._replay_pool(plan) is backend.engine
            assert backend._replay_pool(self._plan(n=20, steps=2)) is None
        finally:
            backend.close()

    def test_threshold_is_inclusive(self):
        """A state of exactly ``chunk_threshold`` amplitudes is on the
        engine's threads; one qubit fewer replays serially."""
        backend = LocalBackend()
        try:
            assert backend._replay_pool(self._plan(n=8, chunk_threshold=256)) is backend.engine
            assert backend._replay_pool(self._plan(n=7, chunk_threshold=256)) is None
        finally:
            backend.close()

    def test_thread_count_does_not_move_the_lane(self):
        from repro.simulator.parallel_engine import ParallelSimulationEngine

        # The rule reads only the plan; a one-thread engine is still the
        # lane above the threshold (and its replay then runs serially).
        plan = self._plan(n=8, chunk_threshold=2)
        for threads in (1, 2, 4):
            with ParallelSimulationEngine(num_threads=threads) as engine:
                assert LocalBackend(engine=engine)._replay_pool(plan) is engine

    def test_choice_is_deterministic(self):
        plan = self._plan(n=10, steps=12, chunk_threshold=256)
        backend = LocalBackend()
        try:
            choices = {id(backend._replay_pool(plan)) for _ in range(20)}
        finally:
            backend.close()
        assert choices == {id(backend.engine)}
