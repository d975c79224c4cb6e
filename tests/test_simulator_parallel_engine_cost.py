"""Tests for the parallel simulation engine and the cost model."""

import numpy as np
import pytest

from repro.config import set_config
from repro.exceptions import ExecutionError
from repro.ir.builder import CircuitBuilder
from repro.ir.gates import H
from repro.simulator.cost_model import CircuitCost, SimulationCostModel
from repro.simulator.parallel_engine import (
    ParallelSimulationEngine,
    merge_counts,
    split_shots,
)
from repro.simulator.statevector import StateVector
from repro.algorithms.bell import bell_circuit
from repro.algorithms.shor import period_finding_circuit


class TestShotSplitting:
    def test_even_split(self):
        assert split_shots(100, 4) == [25, 25, 25, 25]

    def test_remainder_distributed(self):
        assert split_shots(10, 3) == [4, 3, 3]

    def test_more_workers_than_shots(self):
        assert split_shots(2, 8) == [1, 1]

    def test_invalid_inputs(self):
        with pytest.raises(ExecutionError):
            split_shots(0, 2)
        with pytest.raises(ExecutionError):
            split_shots(10, 0)

    def test_merge_counts(self):
        merged = merge_counts([{"00": 3, "11": 1}, {"11": 2, "01": 4}])
        assert merged == {"00": 3, "11": 3, "01": 4}


class TestParallelEngine:
    def test_sample_parallel_total_shots(self):
        engine = ParallelSimulationEngine(num_threads=4)
        state = StateVector(2)
        state.apply_circuit(bell_circuit(2).without_measurements())
        counts = engine.sample_parallel(state, 1000, seed=3)
        assert sum(counts.values()) == 1000
        assert set(counts) <= {"00", "11"}

    def test_single_thread_path(self):
        engine = ParallelSimulationEngine(num_threads=1)
        state = StateVector(1)
        state.apply(H([0]))
        counts = engine.sample_parallel(state, 100, seed=0)
        assert sum(counts.values()) == 100

    def test_results_reproducible_for_fixed_seed_and_threads(self):
        engine = ParallelSimulationEngine(num_threads=3)
        state = StateVector(2)
        state.apply_circuit(bell_circuit(2).without_measurements())
        a = engine.sample_parallel(state, 500, seed=11)
        b = engine.sample_parallel(state, 500, seed=11)
        assert a == b

    def test_effective_threads_defers_to_config(self):
        set_config(omp_num_threads=7)
        assert ParallelSimulationEngine().effective_threads() == 7
        assert ParallelSimulationEngine(num_threads=2).effective_threads() == 2

    def test_trajectories_with_reset(self):
        circuit = CircuitBuilder(1).h(0).reset(0).measure(0).build()
        engine = ParallelSimulationEngine(num_threads=2)
        counts = engine.run_trajectories(1, circuit, shots=64, seed=5)
        assert counts == {"0": 64}

    def test_chunked_single_qubit_matches_serial(self):
        engine = ParallelSimulationEngine(num_threads=4)
        rng = np.random.default_rng(0)
        n = 17  # large enough to trigger the chunked path
        state = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        state /= np.linalg.norm(state)
        expected = state.copy()
        from repro.simulator.gate_application import apply_single_qubit

        apply_single_qubit(expected, H([0]).matrix(), 5)
        engine.apply_single_qubit_chunked(state, H([0]).matrix(), 5)
        assert np.allclose(state, expected)


class TestCostModel:
    def test_cost_components_positive(self):
        cost = SimulationCostModel().circuit_cost(bell_circuit(2), 1024)
        assert cost.parallel_work > 0
        assert cost.serial_work > 0
        assert cost.locked_work > 0
        assert cost.total_work == pytest.approx(
            cost.parallel_work + cost.serial_work + cost.locked_work
        )

    def test_larger_circuits_cost_more(self):
        model = SimulationCostModel()
        small = model.circuit_cost(period_finding_circuit(7, 2), 10)
        large = model.circuit_cost(period_finding_circuit(15, 2), 10)
        assert large.parallel_work > small.parallel_work

    def test_more_shots_cost_more(self):
        model = SimulationCostModel()
        few = model.circuit_cost(bell_circuit(2), 10)
        many = model.circuit_cost(bell_circuit(2), 10_000)
        assert many.total_work > few.total_work

    def test_gate_cost_scales_with_width(self):
        model = SimulationCostModel()
        assert model.gate_cost(10, 2) > model.gate_cost(10, 1)
        assert model.gate_cost(12, 1) == pytest.approx(2 * model.gate_cost(11, 1))

    def test_scaled(self):
        cost = CircuitCost(10.0, 5.0, 1.0).scaled(2.0)
        assert (cost.parallel_work, cost.serial_work, cost.locked_work) == (20.0, 10.0, 2.0)


class TestChunkedPlanCost:
    def test_below_threshold_sweep_work_is_serial(self):
        """Chunk-parallel replay never engages under the threshold, so the
        chunked model must put every kernel sweep in serial work."""
        from repro.simulator.cost_model import SimulationCostModel
        from repro.simulator.execution_plan import compile_plan

        model = SimulationCostModel()
        plan = compile_plan(bell_circuit(2), 2)
        assert (1 << plan.n_qubits) < model.chunk_threshold
        chunked = model.plan_cost(plan, 64, chunked=True)
        baseline = model.plan_cost(plan, 64)
        # Only the sampling pass parallelises below the threshold.
        sampling = float(1 << plan.n_qubits) + 64 * model.shot_parallel_cost
        assert chunked.parallel_work == pytest.approx(sampling)
        assert chunked.total_work == pytest.approx(baseline.total_work)

    def test_above_threshold_uses_kernel_efficiency_factors(self):
        from repro.simulator.cost_model import (
            DEFAULT_KERNEL_PARALLEL_EFFICIENCY,
            SimulationCostModel,
        )
        from repro.simulator.execution_plan import compile_plan
        from repro.ir.builder import CircuitBuilder

        model = SimulationCostModel(chunk_threshold=4)  # tiny: always chunked
        circuit = CircuitBuilder(3).h(0).cphase(0, 1, 0.4).cx(1, 2).build()
        plan = compile_plan(circuit, 3, optimize=False)
        cost = model.plan_cost(plan, 16, chunked=True)
        expected_parallel = 0.0
        for step in plan.steps:
            work = model.kernel_cost(3, step.kernel, len(step.targets))
            expected_parallel += work * DEFAULT_KERNEL_PARALLEL_EFFICIENCY[step.kernel]
        expected_parallel += float(1 << 3) + 16 * model.shot_parallel_cost
        assert cost.parallel_work == pytest.approx(expected_parallel)

    def test_chunked_total_matches_unchunked_total(self):
        """Chunking redistributes work between parallel and serial buckets;
        it never invents or removes work."""
        from repro.simulator.cost_model import SimulationCostModel
        from repro.simulator.execution_plan import compile_plan
        from repro.algorithms.qft import qft_circuit

        model = SimulationCostModel(chunk_threshold=4)
        plan = compile_plan(qft_circuit(5), 5)
        chunked = model.plan_cost(plan, 256, chunked=True)
        baseline = model.plan_cost(plan, 256)
        assert chunked.total_work == pytest.approx(baseline.total_work)
        assert chunked.parallel_work < baseline.parallel_work  # efficiencies < 1 - serial_fraction


class TestShmProcessPlanCost:
    def test_below_threshold_is_serial_with_no_barrier_cost(self):
        """The shm lane never engages under the chunk threshold, so the
        process model must match the plain serial chunked model exactly."""
        from repro.simulator.cost_model import SimulationCostModel
        from repro.simulator.execution_plan import compile_plan

        model = SimulationCostModel()
        plan = compile_plan(bell_circuit(2), 2)
        assert (1 << plan.n_qubits) < model.chunk_threshold
        process = model.plan_cost(plan, 64, processes=4)
        chunked = model.plan_cost(plan, 64, chunked=True)
        assert process.parallel_work == pytest.approx(chunked.parallel_work)
        assert process.total_work == pytest.approx(chunked.total_work)

    def test_above_threshold_uses_process_efficiency_and_barriers(self):
        from repro.simulator.cost_model import (
            DEFAULT_KERNEL_PROCESS_EFFICIENCY,
            SimulationCostModel,
        )
        from repro.simulator.execution_plan import compile_plan
        from repro.ir.builder import CircuitBuilder

        model = SimulationCostModel(chunk_threshold=4)  # tiny: always engaged
        circuit = CircuitBuilder(3).h(0).cphase(0, 1, 0.4).cx(1, 2).build()
        plan = compile_plan(circuit, 3, optimize=False)
        cost = model.plan_cost(plan, 16, processes=2)
        expected_parallel = 0.0
        expected_barriers = 0.0
        for step in plan.steps:
            work = model.kernel_cost(3, step.kernel, len(step.targets))
            expected_parallel += work * DEFAULT_KERNEL_PROCESS_EFFICIENCY[step.kernel]
            expected_barriers += model.shm_step_barrier_cost * (
                3 if step.kernel == "dense" else 1
            )
        expected_parallel += float(1 << 3) + 16 * model.shot_parallel_cost
        assert cost.parallel_work == pytest.approx(expected_parallel)
        # Sweep work is conserved; the barrier/IPC term is pure extra
        # serial work the thread lane does not pay.
        chunked = model.plan_cost(plan, 16, chunked=True)
        assert cost.total_work == pytest.approx(chunked.total_work + expected_barriers)
        assert cost.serial_work > chunked.serial_work

    def test_dense_steps_pay_three_barriers(self):
        from repro.simulator.cost_model import SimulationCostModel
        from repro.simulator.execution_plan import compile_plan
        from repro.ir.gates import CPhase, UnitaryGate
        from repro.ir.composite import CompositeInstruction

        model = SimulationCostModel(chunk_threshold=4)
        rng = np.random.default_rng(5)
        matrix = np.linalg.qr(
            rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        )[0]
        dense = CompositeInstruction("dense", 3)
        dense.add(UnitaryGate(matrix, [0, 1]))
        diagonal = CompositeInstruction("diag", 3)
        diagonal.add(CPhase([0, 1], [0.3]))
        dense_plan = compile_plan(dense, 3, optimize=False)
        diag_plan = compile_plan(diagonal, 3, optimize=False)
        assert dense_plan.steps[0].kernel == "dense"
        assert diag_plan.steps[0].kernel == "diagonal"
        base = SimulationCostModel(chunk_threshold=4, shm_step_barrier_cost=0.0)
        dense_extra = (
            model.plan_cost(dense_plan, 1, processes=2).serial_work
            - base.plan_cost(dense_plan, 1, processes=2).serial_work
        )
        diag_extra = (
            model.plan_cost(diag_plan, 1, processes=2).serial_work
            - base.plan_cost(diag_plan, 1, processes=2).serial_work
        )
        assert dense_extra == pytest.approx(3 * model.shm_step_barrier_cost)
        assert diag_extra == pytest.approx(model.shm_step_barrier_cost)

    def test_shm_mode_is_slower_than_threads_when_chunking(self):
        """The process cost mode's barrier term makes the modeled one-by-one
        duration strictly longer than the thread-chunked mode on the same
        workload (sub-threshold states: equal; this workload chunks)."""
        from repro.benchmark.workloads import bell_workload
        from repro.parallel.contention import ContentionModel
        from repro.parallel.scheduler import SimTask, TaskScheduler
        from repro.simulator.cost_model import SimulationCostModel
        from repro.simulator.execution_plan import compile_plan

        model = SimulationCostModel(chunk_threshold=4)
        (task,) = bell_workload(n_kernels=1, shots=64).tasks
        plan = compile_plan(task.build_circuit())

        def duration(cost):
            sim = SimTask.from_cost(
                task.name,
                parallel_work=cost.parallel_work,
                serial_work=cost.serial_work,
                locked_work=cost.locked_work,
                threads=4,
            )
            scheduler = TaskScheduler(contention=ContentionModel())
            return scheduler.run_one_by_one([sim]).makespan

        shm = duration(model.plan_cost(plan, task.shots, processes=4))
        threaded = duration(model.plan_cost(plan, task.shots, chunked=True))
        assert shm > threaded > 0
