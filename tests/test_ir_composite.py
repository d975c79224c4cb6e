"""Tests for CompositeInstruction (circuits)."""

import numpy as np
import pytest

from repro.exceptions import InvalidGateError, IRError, ParameterBindingError
from repro.ir.builder import CircuitBuilder
from repro.ir.composite import CompositeInstruction
from repro.ir.gates import CX, H, Measure, RX, RY, X
from repro.ir.parameter import Parameter


def bell() -> CompositeInstruction:
    return CircuitBuilder(2, name="bell").h(0).cx(0, 1).measure_all().build()


class TestConstruction:
    def test_add_grows_width_when_unspecified(self):
        circuit = CompositeInstruction("c")
        circuit.add(H([3]))
        assert circuit.n_qubits == 4

    def test_explicit_width_enforced(self):
        circuit = CompositeInstruction("c", 2)
        with pytest.raises(InvalidGateError):
            circuit.add(H([2]))

    def test_inlining_composites(self):
        inner = CircuitBuilder(2).h(0).cx(0, 1).build()
        outer = CompositeInstruction("outer", 2)
        outer.add(inner)
        assert outer.n_instructions == 2

    def test_add_rejects_non_instructions(self):
        with pytest.raises(IRError):
            CompositeInstruction("c").add("H")  # type: ignore[arg-type]

    def test_len_and_iteration(self):
        circuit = bell()
        assert len(circuit) == 4
        assert [inst.name for inst in circuit] == ["H", "CX", "MEASURE", "MEASURE"]

    def test_indexing(self):
        assert bell()[1].name == "CX"


class TestIntrospection:
    def test_gate_counts(self):
        counts = bell().gate_counts()
        assert counts["H"] == 1
        assert counts["CX"] == 1
        assert counts["MEASURE"] == 2

    def test_n_gates_excludes_measurements(self):
        assert bell().n_gates == 2
        assert bell().n_measurements == 2

    def test_depth_linear_chain(self):
        circuit = CircuitBuilder(1).h(0).x(0).z(0).build()
        assert circuit.depth() == 3

    def test_depth_parallel_gates_share_a_layer(self):
        circuit = CircuitBuilder(2).h(0).h(1).cx(0, 1).build()
        assert circuit.depth() == 2

    def test_instruction_levels_align_on_a_full_barrier(self):
        circuit = CircuitBuilder(3).h(0).x(0).h(1).barrier().h(2).cx(1, 2).build()
        # h0 x0 h1 | barrier: no step of its own, aligns the qubits seen so
        # far (0 and 1) | h2 starts fresh, cx12 waits for the barrier.
        assert circuit.instruction_levels() == [1, 2, 1, 2, 1, 3]
        assert circuit.depth() == 3
        assert CompositeInstruction("empty", 2).instruction_levels() == []
        assert CompositeInstruction("empty", 2).depth() == 0

    def test_qubits_used(self):
        circuit = CircuitBuilder(5).h(0).cx(2, 4).build()
        assert circuit.qubits_used() == frozenset({0, 2, 4})

    def test_measured_qubits_in_program_order(self):
        circuit = CompositeInstruction("c", 3)
        circuit.add(Measure([2]))
        circuit.add(Measure([0]))
        circuit.add(Measure([2]))
        assert circuit.measured_qubits() == (2, 0)

    def test_free_parameters(self):
        theta = Parameter("theta")
        circuit = CircuitBuilder(1).rx(0, theta).build()
        assert circuit.free_parameters == frozenset({theta})
        assert circuit.is_parameterized


class TestRewriting:
    def test_bind_by_mapping(self):
        circuit = CircuitBuilder(1).rx(0, Parameter("theta")).build()
        bound = circuit.bind({"theta": 0.5})
        assert not bound.is_parameterized
        assert bound[0].parameters == (0.5,)

    def test_bind_by_sequence_sorted_by_name(self):
        circuit = (
            CircuitBuilder(1)
            .rx(0, Parameter("beta"))
            .ry(0, Parameter("alpha"))
            .build()
        )
        bound = circuit.bind([1.0, 2.0])  # alpha=1.0, beta=2.0 (sorted)
        assert bound[0].parameters == (2.0,)
        assert bound[1].parameters == (1.0,)

    def test_bind_wrong_length_raises(self):
        circuit = CircuitBuilder(1).rx(0, Parameter("t")).build()
        with pytest.raises(ParameterBindingError):
            circuit.bind([1.0, 2.0])

    def test_inverse_reverses_and_inverts(self):
        circuit = CircuitBuilder(2).h(0).s(1).cx(0, 1).build()
        inverse = circuit.inverse()
        names = [inst.name for inst in inverse]
        assert names == ["CX", "SDG", "H"]

    def test_inverse_round_trip_is_identity(self):
        circuit = CircuitBuilder(2).h(0).t(0).cx(0, 1).ry(1, 0.3).build()
        combined = circuit + circuit.inverse()
        assert np.allclose(combined.to_unitary(), np.eye(4), atol=1e-10)

    def test_remapped(self):
        circuit = CircuitBuilder(2).cx(0, 1).build()
        remapped = circuit.remapped({0: 2, 1: 0})
        assert remapped[0].qubits == (2, 0)

    def test_remapped_missing_qubit_raises(self):
        circuit = CircuitBuilder(2).cx(0, 1).build()
        with pytest.raises(IRError):
            circuit.remapped({0: 1})

    def test_copy_is_deep_for_instruction_list(self):
        circuit = bell()
        clone = circuit.copy()
        clone.add(X([0]))
        assert circuit.n_instructions == 4
        assert clone.n_instructions == 5

    def test_concatenation_via_plus(self):
        combined = CircuitBuilder(1).h(0).build() + CircuitBuilder(1).x(0).build()
        assert [inst.name for inst in combined] == ["H", "X"]

    def test_without_measurements(self):
        stripped = bell().without_measurements()
        assert stripped.n_measurements == 0
        assert stripped.n_gates == 2


class TestDenseAndText:
    def test_to_unitary_for_bell_preparation(self):
        circuit = bell().without_measurements()
        unitary = circuit.to_unitary()
        state = unitary[:, 0]
        assert np.allclose(np.abs(state) ** 2, [0.5, 0, 0, 0.5])

    def test_to_unitary_rejects_measurements(self):
        with pytest.raises(IRError):
            bell().to_unitary()

    def test_to_xasm_contains_gate_lines(self):
        text = bell().to_xasm()
        assert "H(q[0]);" in text
        assert "CX(q[0], q[1]);" in text

    def test_equality(self):
        assert bell() == bell()
        other = CircuitBuilder(2, name="bell").h(0).cx(0, 1).build()
        assert bell() != other

    def test_equal_circuits_hash_equal(self):
        renamed = CircuitBuilder(2, name="bell_copy").h(0).cx(0, 1).measure_all().build()
        assert bell() == renamed and hash(bell()) == hash(renamed)
        assert len({bell(), renamed}) == 1

    def test_equality_tolerates_float_noise(self):
        a = CircuitBuilder(1).rx(0, 0.5).build()
        b = CircuitBuilder(1).rx(0, 0.5 + 1e-12).build()
        assert a == b
