"""Property-based tests (hypothesis) for the simulator and IR invariants."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ir.builder import CircuitBuilder
from repro.ir.composite import CompositeInstruction
from repro.ir.gates import create_gate
from repro.ir.serialization import circuit_from_json, circuit_to_json
from repro.ir.transforms import InverseCancellationPass, PassManager, RotationMergingPass
from repro.simulator.statevector import StateVector
from repro.simulator.unitary import circuit_unitary

_SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

#: Gate vocabulary used by the random-circuit strategy: (name, arity, n_params).
_GATE_POOL = [
    ("H", 1, 0),
    ("X", 1, 0),
    ("Y", 1, 0),
    ("Z", 1, 0),
    ("S", 1, 0),
    ("SDG", 1, 0),
    ("T", 1, 0),
    ("TDG", 1, 0),
    ("RX", 1, 1),
    ("RY", 1, 1),
    ("RZ", 1, 1),
    ("CX", 2, 0),
    ("CZ", 2, 0),
    ("SWAP", 2, 0),
    ("CPHASE", 2, 1),
    ("CCX", 3, 0),
]


@st.composite
def random_circuits(draw, max_qubits: int = 4, max_gates: int = 12) -> CompositeInstruction:
    """Generate random concrete (parameter-free symbolically) circuits."""
    n_qubits = draw(st.integers(min_value=1, max_value=max_qubits))
    n_gates = draw(st.integers(min_value=0, max_value=max_gates))
    circuit = CompositeInstruction("random", n_qubits)
    eligible = [g for g in _GATE_POOL if g[1] <= n_qubits]
    for _ in range(n_gates):
        name, arity, n_params = draw(st.sampled_from(eligible))
        qubits = draw(
            st.lists(
                st.integers(min_value=0, max_value=n_qubits - 1),
                min_size=arity,
                max_size=arity,
                unique=True,
            )
        )
        params = [
            draw(st.floats(min_value=-2 * math.pi, max_value=2 * math.pi, allow_nan=False))
            for _ in range(n_params)
        ]
        circuit.add(create_gate(name, qubits, params))
    return circuit


class TestSimulatorInvariants:
    @_SETTINGS
    @given(random_circuits())
    def test_norm_is_preserved_by_any_circuit(self, circuit):
        state = StateVector(circuit.n_qubits)
        state.apply_circuit(circuit)
        assert state.norm() == pytest.approx(1.0, abs=1e-9)

    @_SETTINGS
    @given(random_circuits())
    def test_probabilities_form_a_distribution(self, circuit):
        state = StateVector(circuit.n_qubits)
        state.apply_circuit(circuit)
        probs = state.probabilities()
        assert np.all(probs >= -1e-12)
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)

    @_SETTINGS
    @given(random_circuits(max_qubits=3, max_gates=8))
    def test_statevector_matches_dense_unitary(self, circuit):
        state = StateVector(circuit.n_qubits)
        state.apply_circuit(circuit)
        expected = circuit_unitary(circuit)[:, 0]
        assert np.allclose(state.data, expected, atol=1e-9)

    @_SETTINGS
    @given(random_circuits(max_qubits=3, max_gates=8))
    def test_inverse_circuit_restores_initial_state(self, circuit):
        state = StateVector(circuit.n_qubits)
        state.apply_circuit(circuit)
        state.apply_circuit(circuit.inverse())
        assert abs(state.amplitude(0)) == pytest.approx(1.0, abs=1e-8)

    @_SETTINGS
    @given(random_circuits(max_qubits=3, max_gates=8))
    def test_circuit_unitary_is_unitary(self, circuit):
        unitary = circuit_unitary(circuit)
        dim = unitary.shape[0]
        assert np.allclose(unitary @ unitary.conj().T, np.eye(dim), atol=1e-9)

    @_SETTINGS
    @given(random_circuits(), st.integers(min_value=1, max_value=512))
    def test_sampling_returns_exactly_the_requested_shots(self, circuit, shots):
        state = StateVector(circuit.n_qubits)
        state.apply_circuit(circuit)
        counts = state.sample(shots, rng=np.random.default_rng(0))
        assert sum(counts.values()) == shots
        assert all(len(key) == circuit.n_qubits for key in counts)


class TestTransformInvariants:
    @_SETTINGS
    @given(random_circuits(max_qubits=3, max_gates=10))
    def test_optimisation_passes_preserve_semantics_up_to_phase(self, circuit):
        manager = PassManager([RotationMergingPass(), InverseCancellationPass()])
        optimised = manager.run(circuit)
        original = circuit_unitary(circuit)
        transformed = circuit_unitary(optimised)
        # Compare as channels (up to a global phase).
        overlap = abs(np.trace(original.conj().T @ transformed)) / original.shape[0]
        assert overlap == pytest.approx(1.0, abs=1e-8)

    @_SETTINGS
    @given(random_circuits(max_qubits=3, max_gates=10))
    def test_passes_never_increase_gate_count(self, circuit):
        manager = PassManager([RotationMergingPass(), InverseCancellationPass()])
        assert manager.run(circuit).n_instructions <= circuit.n_instructions


class TestSerializationInvariants:
    @_SETTINGS
    @given(random_circuits())
    def test_json_round_trip_is_lossless(self, circuit):
        assert circuit_from_json(circuit_to_json(circuit)) == circuit


class TestBuilderInvariants:
    @_SETTINGS
    @given(st.integers(min_value=1, max_value=6))
    def test_measure_all_measures_each_qubit_once(self, n):
        builder = CircuitBuilder(n)
        builder.h(0)
        circuit = builder.measure_all().build()
        assert circuit.n_measurements == n
        assert circuit.measured_qubits() == tuple(range(n))
