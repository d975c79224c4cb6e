"""Tests for the fluent CircuitBuilder."""

import numpy as np
import pytest

from repro.ir.builder import CircuitBuilder


class TestCircuitBuilder:
    def test_every_single_qubit_method_adds_one_instruction(self):
        builder = CircuitBuilder(1)
        builder.i(0).h(0).x(0).y(0).z(0).s(0).sdg(0).t(0).tdg(0)
        builder.rx(0, 0.1).ry(0, 0.2).rz(0, 0.3).u3(0, 0.1, 0.2, 0.3)
        circuit = builder.build()
        assert circuit.n_instructions == 13

    def test_every_multi_qubit_method(self):
        circuit = (
            CircuitBuilder(3)
            .cx(0, 1)
            .cy(0, 1)
            .cz(0, 1)
            .ch(0, 1)
            .crz(0, 1, 0.2)
            .cphase(0, 1, 0.3)
            .swap(0, 1)
            .iswap(0, 1)
            .ccx(0, 1, 2)
            .cswap(0, 1, 2)
            .build()
        )
        assert circuit.n_instructions == 10
        assert circuit.n_qubits == 3

    def test_measure_all_measures_every_qubit(self):
        circuit = CircuitBuilder(3).h(0).cx(0, 1).cx(1, 2).measure_all().build()
        assert circuit.n_measurements == 3
        assert circuit.measured_qubits() == (0, 1, 2)

    def test_cnot_alias(self):
        circuit = CircuitBuilder(2).cnot(0, 1).build()
        assert circuit[0].name == "CX"

    def test_unitary_and_permutation_helpers(self):
        circuit = (
            CircuitBuilder(2)
            .unitary(np.eye(2), [0], name="ID2")
            .permutation([0, 1, 3, 2], [0, 1])
            .build()
        )
        assert circuit[0].name == "ID2"
        assert circuit[1].name == "PERM"

    def test_barrier_and_reset(self):
        circuit = CircuitBuilder(2).h(0).barrier(0, 1).reset(1).build()
        assert [i.name for i in circuit] == ["H", "BARRIER", "RESET"]

    def test_append_inlines_other_circuit(self):
        inner = CircuitBuilder(2).h(0).cx(0, 1).build()
        outer = CircuitBuilder(2).x(0).append(inner).build()
        assert outer.n_instructions == 3

    def test_builder_returns_same_circuit_object(self):
        builder = CircuitBuilder(1)
        first = builder.build()
        builder.h(0)
        assert first.n_instructions == 1
