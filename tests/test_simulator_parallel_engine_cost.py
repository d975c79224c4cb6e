"""Tests for the parallel simulation engine and the cost model."""

import dataclasses

import pytest

from repro.config import set_config
from repro.exceptions import ExecutionError
from repro.ir.builder import CircuitBuilder
from repro.ir.gates import H
from repro.simulator.cost_model import CircuitCost, SimulationCostModel
from repro.core.shot_parallelism import split_shots
from repro.simulator.parallel_engine import ParallelSimulationEngine
from repro.simulator.sampling import merge_counts
from repro.simulator.statevector import StateVector
from repro.algorithms.bell import bell_circuit
from repro.algorithms.ghz import ghz_circuit
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

    @pytest.mark.parametrize(
        "name", [f.name for f in dataclasses.fields(SimulationCostModel)]
    )
    def test_every_field_moves_the_prediction(self, name):
        """A constant that no prediction reads is dead weight: perturbing
        any field must change the modeled cost of a small kernel."""
        model = SimulationCostModel()
        perturbed = dataclasses.replace(model, **{name: getattr(model, name) * 2 + 1})
        circuit = ghz_circuit(3)
        assert perturbed.circuit_cost(circuit, 100) != model.circuit_cost(circuit, 100)

    def test_scaled(self):
        cost = CircuitCost(10.0, 5.0, 1.0).scaled(2.0)
        assert (cost.parallel_work, cost.serial_work, cost.locked_work) == (20.0, 10.0, 2.0)
