"""Tests for IR transformation passes."""

import math

import numpy as np
import pytest

from repro.exceptions import TransformError
from repro.ir.builder import CircuitBuilder
from repro.ir.parameter import Parameter
from repro.ir.transforms import (
    InverseCancellationPass,
    PassManager,
    RotationMergingPass,
    default_pass_manager,
)


class TestInverseCancellation:
    def test_adjacent_hadamards_cancel(self):
        circuit = CircuitBuilder(1).h(0).h(0).x(0).build()
        out = InverseCancellationPass().run(circuit)
        assert [i.name for i in out] == ["X"]

    def test_cx_pairs_cancel(self):
        circuit = CircuitBuilder(2).cx(0, 1).cx(0, 1).build()
        assert len(InverseCancellationPass().run(circuit)) == 0

    def test_s_sdg_pairs_cancel(self):
        circuit = CircuitBuilder(1).s(0).sdg(0).t(0).tdg(0).build()
        assert len(InverseCancellationPass().run(circuit)) == 0

    def test_different_qubits_do_not_cancel(self):
        circuit = CircuitBuilder(2).h(0).h(1).build()
        assert len(InverseCancellationPass().run(circuit)) == 2

    def test_intervening_disjoint_gates_do_not_block_cancellation(self):
        circuit = CircuitBuilder(2).h(0).x(1).h(0).build()
        out = InverseCancellationPass().run(circuit)
        assert [i.name for i in out] == ["X"]

    def test_intervening_gate_on_same_qubit_blocks_cancellation(self):
        circuit = CircuitBuilder(1).h(0).x(0).h(0).build()
        assert len(InverseCancellationPass().run(circuit)) == 3

    def test_cascading_cancellation(self):
        circuit = CircuitBuilder(1).h(0).x(0).x(0).h(0).build()
        assert len(InverseCancellationPass().run(circuit)) == 0

    def test_measurements_preserved(self):
        circuit = CircuitBuilder(1).h(0).h(0).measure(0).build()
        out = InverseCancellationPass().run(circuit)
        assert [i.name for i in out] == ["MEASURE"]

    def test_semantics_preserved(self):
        circuit = CircuitBuilder(2).h(0).t(0).tdg(0).cx(0, 1).cx(0, 1).ry(1, 0.4).build()
        out = InverseCancellationPass().run(circuit)
        assert np.allclose(circuit.to_unitary(), out.to_unitary(), atol=1e-10)


class TestRotationMerging:
    def test_adjacent_rz_merge(self):
        circuit = CircuitBuilder(1).rz(0, 0.3).rz(0, 0.4).build()
        out = RotationMergingPass().run(circuit)
        assert len(out) == 1
        assert out[0].parameters[0] == pytest.approx(0.7)

    def test_opposite_rotations_vanish(self):
        circuit = CircuitBuilder(1).rx(0, 0.5).rx(0, -0.5).build()
        assert len(RotationMergingPass().run(circuit)) == 0

    def test_full_period_rotation_vanishes(self):
        circuit = CircuitBuilder(1).ry(0, 4 * math.pi).build()
        assert len(RotationMergingPass().run(circuit)) == 0

    def test_different_axes_not_merged(self):
        circuit = CircuitBuilder(1).rx(0, 0.3).rz(0, 0.4).build()
        assert len(RotationMergingPass().run(circuit)) == 2

    def test_different_qubits_not_merged(self):
        circuit = CircuitBuilder(2).rz(0, 0.3).rz(1, 0.4).build()
        assert len(RotationMergingPass().run(circuit)) == 2

    def test_symbolic_rotations_left_alone(self):
        circuit = CircuitBuilder(1).rz(0, Parameter("a")).rz(0, 0.5).build()
        assert len(RotationMergingPass().run(circuit)) == 2

    def test_semantics_preserved(self):
        circuit = CircuitBuilder(1).rz(0, 0.2).rz(0, 0.7).rx(0, 1.1).rx(0, -0.4).build()
        out = RotationMergingPass().run(circuit)
        assert np.allclose(circuit.to_unitary(), out.to_unitary(), atol=1e-10)


class TestPassManager:
    def test_runs_passes_in_order_to_fixed_point(self):
        circuit = CircuitBuilder(1).rz(0, 0.5).rz(0, -0.5).h(0).h(0).build()
        manager = PassManager([RotationMergingPass(), InverseCancellationPass()])
        assert len(manager.run(circuit)) == 0

    def test_single_iteration_mode(self):
        circuit = CircuitBuilder(1).h(0).h(0).build()
        manager = PassManager([InverseCancellationPass()])
        assert len(manager.run(circuit, to_fixed_point=False)) == 0

    def test_invalid_max_iterations(self):
        with pytest.raises(TransformError):
            PassManager(max_iterations=0)

    def test_default_pass_manager_cleans_bell_with_redundancy(self):
        circuit = CircuitBuilder(2).h(0).h(0).h(0).cx(0, 1).rz(1, 0.0).measure_all().build()
        out = default_pass_manager().run(circuit)
        assert [i.name for i in out] == ["H", "CX", "MEASURE", "MEASURE"]

    def test_append_and_len(self):
        manager = PassManager()
        manager.append(InverseCancellationPass())
        assert len(manager) == 1
