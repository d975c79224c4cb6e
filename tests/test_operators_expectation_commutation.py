"""Tests for expectation estimation from counts."""

import pytest

from repro.exceptions import ExecutionError
from repro.ir.builder import CircuitBuilder
from repro.operators.expectation import (
    estimate_expectation,
    expectation_from_counts,
    measurement_circuits,
)
from repro.operators.pauli import PauliOperator, X, Y, Z


class TestExpectationFromCounts:
    def test_all_zeros_gives_plus_one(self):
        assert expectation_from_counts({"00": 100}, [0, 1]) == pytest.approx(1.0)

    def test_odd_parity_gives_minus_one(self):
        assert expectation_from_counts({"10": 50}, [0, 1]) == pytest.approx(-1.0)

    def test_balanced_histogram_gives_zero(self):
        counts = {"00": 25, "01": 25, "10": 25, "11": 25}
        assert expectation_from_counts(counts, [0]) == pytest.approx(0.0)

    def test_subset_of_positions(self):
        counts = {"10": 60, "11": 40}
        # Position 0 is always 1 -> parity -1; position 1 averages.
        assert expectation_from_counts(counts, [0]) == pytest.approx(-1.0)
        assert expectation_from_counts(counts, [1]) == pytest.approx(0.2)

    def test_empty_histogram_rejected(self):
        with pytest.raises(ExecutionError):
            expectation_from_counts({}, [0])

    def test_position_out_of_range_rejected(self):
        with pytest.raises(ExecutionError):
            expectation_from_counts({"0": 10}, [3])


class TestMeasurementCircuits:
    def test_one_circuit_per_non_identity_term(self):
        ansatz = CircuitBuilder(2).h(0).build()
        observable = 1.0 + 0.5 * X(0) + 0.25 * Z(0) * Z(1)
        circuits = measurement_circuits(ansatz, observable)
        assert len(circuits) == 2
        labels = {term.pauli_string for term, _ in circuits}
        assert labels == {"X0", "Z0 Z1"}

    def test_rotation_and_measurements_appended(self):
        ansatz = CircuitBuilder(1).h(0).build()
        ((term, circuit),) = measurement_circuits(ansatz, PauliOperator([Y(0)]))
        names = [i.name for i in circuit]
        assert names[0] == "H"          # ansatz
        assert "RX" in names             # Y-basis rotation
        assert names[-1] == "MEASURE"


class TestEstimateExpectation:
    def test_constant_plus_measured_terms(self):
        observable = 2.0 + 1.0 * Z(0) - 0.5 * Z(1)
        counts = {"Z0": {"0": 100}, "Z1": {"1": 100}}
        value = estimate_expectation(observable, counts)
        assert value == pytest.approx(2.0 + 1.0 + 0.5)

    def test_missing_term_rejected(self):
        observable = 1.0 * Z(0) + 1.0 * X(0)
        with pytest.raises(ExecutionError):
            estimate_expectation(observable, {"Z0": {"0": 10}})
