"""Tests for the unified execution-backend layer (in-process side).

Covers the :class:`ExecutionBackend` protocol, :class:`LocalBackend` as the
canonical in-process seam, :class:`DensityBackend` behind the noisy
accelerator, the accelerator adapters, and the plan-aware cost model.
"""

import os

import numpy as np
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
from repro.parallel.contention import ContentionModel
from repro.parallel.scheduler import SimTask, TaskScheduler
from repro.runtime.buffer import AcceleratorBuffer
from repro.runtime.noisy_accelerator import NoisyAccelerator
from repro.runtime.qpp_accelerator import QppAccelerator
from repro.simulator.cost_model import (
    DEFAULT_KERNEL_COST_FACTORS,
    SimulationCostModel,
)
from repro.simulator.execution_plan import compile_parametric_plan, compile_plan
from repro.simulator.parallel_engine import ParallelSimulationEngine
from repro.simulator.plan_cache import reset_plan_cache
from repro.simulator.statevector import StateVector


def modeled_one_by_one(costs, threads=4):
    """Makespan of kernels with ``costs`` run one after another on
    ``threads`` threads each — the modeled harness's one-by-one variant."""
    tasks = [
        SimTask.from_cost(
            f"k{index}",
            parallel_work=cost.parallel_work,
            serial_work=cost.serial_work,
            locked_work=cost.locked_work,
            threads=threads,
        )
        for index, cost in enumerate(costs)
    ]
    return TaskScheduler(contention=ContentionModel()).run_one_by_one(tasks).makespan


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
        assert result.shards == 1 and result.retries == 0

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
        assert result.backend == "local" and result.shards == 1

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

    @pytest.mark.parametrize("with_shm", [False, True], ids=["no-shm", "shm"])
    @pytest.mark.parametrize("above", [False, True], ids=["below", "above"])
    def test_one_lane_rule(self, above, with_shm):
        """Below the plan's chunk threshold: serial; above it: the shm pool
        when one is configured, the engine's threads otherwise — and the
        replay span names the lane that ran."""
        from repro.exec import SharedStatePool
        from repro.obs import enable_tracing

        if with_shm and not os.path.isdir("/dev/shm"):
            pytest.skip("POSIX shared memory required")
        circuit = ghz_circuit(4)
        threshold = 2 if above else 1 << 5
        engine = ParallelSimulationEngine(num_threads=2)
        pool = SharedStatePool(2, name="lane-rule", fallback=engine) if with_shm else None
        tracer = enable_tracing()
        try:
            backend = LocalBackend(engine=engine, shm_pool=pool)
            plan = backend.compile(circuit, chunk_threshold=threshold)
            expected = None if not above else (pool if with_shm else engine)
            assert backend._replay_pool(plan) is expected
            backend.execute(circuit, 64, seed=3, chunk_threshold=threshold)
        finally:
            if pool is not None:
                pool.close()
            engine.close()
        lanes = [s.attributes["lane"] for s in tracer.spans() if s.name == "replay"]
        assert lanes[-1:] == [type(expected).__name__ if expected else "serial"]

    def test_closed_shm_pool_falls_back_to_engine_threads(self):
        """The backend does not own its shm pool: once the pool is closed
        it can no longer take a replay, and above the threshold the engine's
        threads run it instead — with the same fixed-seed counts."""
        from repro.exec import SharedStatePool

        if not os.path.isdir("/dev/shm"):
            pytest.skip("POSIX shared memory required")
        circuit = ghz_circuit(4)
        engine = ParallelSimulationEngine(num_threads=2)
        pool = SharedStatePool(2, name="lane-closed", fallback=engine)
        try:
            backend = LocalBackend(engine=engine, shm_pool=pool)
            plan = backend.compile(circuit, chunk_threshold=2)
            assert backend._replay_pool(plan) is pool
            on_pool = backend.execute(circuit, 64, seed=3, chunk_threshold=2).counts
            pool.close()
            assert backend._replay_pool(plan) is engine
            on_threads = backend.execute(circuit, 64, seed=3, chunk_threshold=2).counts
        finally:
            pool.close()
            engine.close()
        assert on_threads == on_pool


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
        assert info["plan-cached"] is False and info["processes"] == 0
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

    def test_executor_routes_processes_option(self):
        # processes=1 must not engage sharding (stays on the local seam).
        qpu = QppAccelerator({"threads": 1, "processes": 1})
        assert qpu.num_processes == 0
        assert qpu.execution_backend() is qpu._local_backend

    def test_run_one_by_one_accepts_processes(self):
        set_config(seed=4)
        tasks = [KernelTask("bell", lambda: bell_circuit(2), 2, shots=64)]
        report = run_one_by_one(tasks, total_threads=1, processes=None)
        assert report.results[0].counts
        assert sum(report.results[0].counts.values()) == 64


class TestPlanAwareCostModel:
    def test_kernel_factors_cover_every_kernel_class(self):
        from repro.simulator.execution_plan import KERNEL_NAMES

        assert set(DEFAULT_KERNEL_COST_FACTORS) == set(KERNEL_NAMES.values())

    def test_diagonal_and_permutation_cheaper_than_dense(self):
        model = SimulationCostModel()
        n = 8
        assert model.kernel_cost(n, "diagonal") < model.kernel_cost(n, "single")
        assert model.kernel_cost(n, "permutation") < model.kernel_cost(n, "diagonal")
        assert model.kernel_cost(n, "dense", targets=2) > model.kernel_cost(n, "single")

    def test_plan_cost_below_gate_cost_for_qft(self):
        # The QFT is dominated by CPHASE ladders: kernel-aware costing must
        # price it well below the dense per-gate estimate.
        circuit = qft_circuit(6)
        model = SimulationCostModel()
        plan = compile_plan(circuit, 6)
        plan_cost = model.plan_cost(plan, 1024)
        gate_cost = model.circuit_cost(circuit, 1024)
        assert plan_cost.total_work < gate_cost.total_work
        assert plan_cost.parallel_work < gate_cost.parallel_work

    def test_plan_cost_accepts_parametric_plans(self):
        ansatz = deuteron_ansatz_circuit()
        plan = compile_parametric_plan(ansatz, 2)
        cost = SimulationCostModel().plan_cost(plan, 256)
        assert cost.total_work > 0

    def test_fusion_reduces_modeled_cost(self):
        builder = CircuitBuilder(5, name="dense_run")
        for _ in range(6):
            for q in range(5):
                builder.h(q)
                builder.t(q)
        circuit = builder.build()
        model = SimulationCostModel()
        fused = model.plan_cost(compile_plan(circuit, 5), 10)
        unfused = model.plan_cost(compile_plan(circuit, 5, fusion_max_qubits=0), 10)
        assert fused.total_work < unfused.total_work

    def test_block_is_priced_as_one_pass_whatever_its_width(self):
        """A contiguous-window block is one GEMM pass: not k singles, and
        not a gather-dense step scaled per extra target."""
        model = SimulationCostModel()
        n = 12
        assert model.kernel_cost(n, "block", targets=4) == model.kernel_cost(
            n, "block", targets=2
        )
        assert model.kernel_cost(n, "block", targets=4) < 2 * model.kernel_cost(n, "single")
        assert model.kernel_cost(n, "block", targets=2) < model.kernel_cost(
            n, "dense", targets=2
        )
        builder = CircuitBuilder(n, name="layer")
        for q in range(n):
            builder.ry(q, 0.1 + 0.1 * q)
        fused = compile_plan(builder.build(), n)
        assert fused.kernel_counts() == {"block": 3}
        unfused = compile_plan(builder.build(), n, fusion_max_qubits=0)
        assert model.plan_cost(fused, 0).total_work < 0.5 * model.plan_cost(unfused, 0).total_work

    def test_plans_default_to_the_measured_threshold(self):
        from repro.simulator.execution_plan import DEFAULT_CHUNK_THRESHOLD

        assert compile_plan(qft_circuit(3), 3).chunk_threshold == DEFAULT_CHUNK_THRESHOLD

    def test_modeled_plan_costs_predict_faster_than_per_gate(self):
        model = SimulationCostModel()
        circuits = [qft_circuit(5), ghz_circuit(5)]
        plan = modeled_one_by_one(
            [model.plan_cost(compile_plan(c), 128) for c in circuits]
        )
        gate = modeled_one_by_one([model.circuit_cost(c, 128) for c in circuits])
        assert plan > 0
        # Plan replay is predicted faster than per-gate dispatch.
        assert plan < gate
