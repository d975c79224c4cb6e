"""Tests for the StateVector simulator."""

import numpy as np
import pytest

from repro.exceptions import ExecutionError
from repro.ir.builder import CircuitBuilder
from repro.ir.gates import H, X
from repro.ir.parameter import Parameter
from repro.operators.pauli import X as PX
from repro.operators.pauli import Z as PZ
from repro.simulator.statevector import StateVector


class TestConstruction:
    def test_initial_state_is_all_zeros(self):
        state = StateVector(3)
        assert state.amplitude(0) == pytest.approx(1.0)
        assert state.norm() == pytest.approx(1.0)

    def test_custom_data_must_be_normalised(self):
        with pytest.raises(ExecutionError):
            StateVector(1, data=[1.0, 1.0])

    def test_custom_data_accepted(self):
        state = StateVector(1, data=[1 / np.sqrt(2), 1j / np.sqrt(2)])
        assert state.probabilities() == pytest.approx([0.5, 0.5])

    def test_size_guards(self):
        with pytest.raises(ExecutionError):
            StateVector(0)
        with pytest.raises(ExecutionError):
            StateVector(27)

    def test_copy_is_independent(self):
        state = StateVector(1)
        clone = state.copy()
        clone.apply(X([0]))
        assert state.amplitude(0) == pytest.approx(1.0)
        assert clone.amplitude(1) == pytest.approx(1.0)


class TestEvolution:
    def test_bell_state_probabilities(self):
        state = StateVector(2)
        state.apply(H([0]))
        state.apply_circuit(CircuitBuilder(2).cx(0, 1).build())
        assert state.probabilities() == pytest.approx([0.5, 0, 0, 0.5])

    def test_apply_circuit_binds_parameters(self):
        circuit = CircuitBuilder(1).ry(0, Parameter("t")).build()
        state = StateVector(1)
        state.apply_circuit(circuit, {"t": np.pi})
        assert state.probabilities()[1] == pytest.approx(1.0)

    def test_apply_circuit_unbound_parameters_rejected(self):
        circuit = CircuitBuilder(1).ry(0, Parameter("t")).build()
        with pytest.raises(ExecutionError):
            StateVector(1).apply_circuit(circuit)

    def test_circuit_larger_than_state_rejected(self):
        with pytest.raises(ExecutionError):
            StateVector(1).apply_circuit(CircuitBuilder(3).h(2).build())

    def test_barrier_and_terminal_measure_are_noops_for_the_state(self):
        circuit = CircuitBuilder(1).h(0).barrier(0).measure(0).build()
        state = StateVector(1)
        state.apply_circuit(circuit)
        assert state.probabilities() == pytest.approx([0.5, 0.5])

    def test_amplitude_by_bitstring(self):
        state = StateVector(2)
        state.apply(X([1]))
        assert state.amplitude("01") == pytest.approx(1.0)  # qubit 0 = '0', qubit 1 = '1'

    def test_fidelity(self):
        a = StateVector(1)
        b = StateVector(1)
        b.apply(H([0]))
        assert a.fidelity(a) == pytest.approx(1.0)
        assert a.fidelity(b) == pytest.approx(0.5)


class TestMeasurement:
    def test_probability_of_one(self):
        state = StateVector(2)
        state.apply(X([1]))
        assert state.probability_of_one(1) == pytest.approx(1.0)
        assert state.probability_of_one(0) == pytest.approx(0.0)

    def test_measure_collapses_state(self):
        rng = np.random.default_rng(0)
        state = StateVector(2)
        state.apply_circuit(CircuitBuilder(2).h(0).cx(0, 1).build())
        outcome = state.measure(0, rng)
        # After measuring qubit 0 of a Bell state, qubit 1 must agree.
        assert state.probability_of_one(1) == pytest.approx(float(outcome))
        assert state.norm() == pytest.approx(1.0)

    def test_reset_qubit(self):
        state = StateVector(1)
        state.apply(X([0]))
        state.reset_qubit(0)
        assert state.amplitude(0) == pytest.approx(1.0)

    def test_sampling_statistics_of_bell_state(self):
        state = StateVector(2)
        state.apply_circuit(CircuitBuilder(2).h(0).cx(0, 1).build())
        counts = state.sample(4096, rng=np.random.default_rng(5))
        assert set(counts) == {"00", "11"}
        assert abs(counts["00"] - 2048) < 200

    def test_sampling_subset_of_qubits(self):
        state = StateVector(3)
        state.apply(X([2]))
        counts = state.sample(100, measured_qubits=[2], rng=np.random.default_rng(1))
        assert counts == {"1": 100}


class TestObservables:
    def test_expectation_z_plus_state(self):
        state = StateVector(1)
        state.apply(H([0]))
        assert state.expectation(PZ(0)) == pytest.approx(0.0, abs=1e-12)

    def test_expectation_z_excited_state(self):
        state = StateVector(2)
        state.apply(X([0]))
        assert state.expectation(PZ(0)) == pytest.approx(-1.0)
        assert state.expectation(PZ(1)) == pytest.approx(1.0)
        assert state.expectation(PZ(0) * PZ(1)) == pytest.approx(-1.0)

    def test_pauli_expectation_matches_matrix(self):
        circuit = CircuitBuilder(2).h(0).cx(0, 1).t(1).build()
        state = StateVector(2)
        state.apply_circuit(circuit)
        observable = 0.5 * PX(0) * PX(1) + 1.5 * PZ(0) - 0.3
        matrix = observable.to_matrix(2)
        expected = float(np.real(np.conj(state.data) @ matrix @ state.data))
        assert state.expectation(observable) == pytest.approx(expected, abs=1e-10)

    def test_expectation_rejects_non_pauli(self):
        with pytest.raises(ExecutionError):
            StateVector(1).expectation("Z0")  # type: ignore[arg-type]
