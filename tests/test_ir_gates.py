"""Tests for gate definitions: matrices, unitarity, inverses and the registry."""

import math

import numpy as np
import pytest

from repro.exceptions import InvalidGateError
from repro.ir.gates import (
    CCX,
    CH,
    CPhase,
    CRZ,
    CSwap,
    CX,
    CY,
    CZ,
    GATE_REGISTRY,
    H,
    Identity,
    ISwap,
    Measure,
    PermutationGate,
    RX,
    RY,
    RZ,
    S,
    Sdg,
    Swap,
    T,
    Tdg,
    U3,
    UnitaryGate,
    X,
    Y,
    Z,
    create_gate,
)
from repro.ir.parameter import Parameter

_FIXED_GATES = [
    Identity([0]),
    H([0]),
    X([0]),
    Y([0]),
    Z([0]),
    S([0]),
    Sdg([0]),
    T([0]),
    Tdg([0]),
    CX([0, 1]),
    CY([0, 1]),
    CZ([0, 1]),
    CH([0, 1]),
    Swap([0, 1]),
    ISwap([0, 1]),
    CCX([0, 1, 2]),
    CSwap([0, 1, 2]),
]

_PARAMETERIZED_GATES = [
    RX([0], [0.7]),
    RY([0], [1.1]),
    RZ([0], [-0.4]),
    U3([0], [0.3, 0.8, -1.2]),
    CRZ([0, 1], [0.5]),
    CPhase([0, 1], [0.9]),
]


@pytest.mark.parametrize("gate", _FIXED_GATES + _PARAMETERIZED_GATES, ids=lambda g: g.name)
def test_gate_matrices_are_unitary(gate):
    matrix = gate.matrix()
    dim = 2 ** len(gate.qubits)
    assert matrix.shape == (dim, dim)
    assert np.allclose(matrix @ matrix.conj().T, np.eye(dim), atol=1e-10)


@pytest.mark.parametrize("gate", _FIXED_GATES + _PARAMETERIZED_GATES, ids=lambda g: g.name)
def test_gate_inverse_composes_to_identity(gate):
    dim = 2 ** len(gate.qubits)
    product = gate.inverse().matrix() @ gate.matrix()
    assert np.allclose(product, np.eye(dim), atol=1e-10)


class TestSpecificMatrices:
    def test_hadamard_entries(self):
        expected = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        assert np.allclose(H([0]).matrix(), expected)

    def test_x_flips_basis_states(self):
        assert np.allclose(X([0]).matrix(), [[0, 1], [1, 0]])

    def test_s_squared_is_z(self):
        assert np.allclose(S([0]).matrix() @ S([0]).matrix(), Z([0]).matrix())

    def test_t_squared_is_s(self):
        assert np.allclose(T([0]).matrix() @ T([0]).matrix(), S([0]).matrix())

    def test_rz_is_diagonal_phase(self):
        theta = 0.37
        mat = RZ([0], [theta]).matrix()
        assert mat[0, 1] == 0 and mat[1, 0] == 0
        assert np.isclose(mat[1, 1] / mat[0, 0], np.exp(1j * theta))

    def test_rx_pi_equals_x_up_to_phase(self):
        mat = RX([0], [math.pi]).matrix()
        assert np.allclose(mat, -1j * X([0]).matrix(), atol=1e-10)

    def test_ry_pi_over_2_creates_superposition(self):
        mat = RY([0], [math.pi / 2]).matrix()
        column = mat[:, 0]
        assert np.allclose(np.abs(column) ** 2, [0.5, 0.5])

    def test_cx_maps_11_to_10_in_local_ordering(self):
        # Local ordering |q1 q0>, control = q0.  Control=1, target=0 -> index 1
        # must map to control=1, target=1 -> index 3.
        mat = CX([0, 1]).matrix()
        state = np.zeros(4)
        state[1] = 1.0
        assert np.allclose(mat @ state, np.eye(4)[3])

    def test_cz_is_diagonal(self):
        mat = CZ([0, 1]).matrix()
        assert np.allclose(mat, np.diag([1, 1, 1, -1]))

    def test_cphase_angle_pi_equals_cz(self):
        assert np.allclose(CPhase([0, 1], [math.pi]).matrix(), CZ([0, 1]).matrix())

    def test_swap_exchanges_01_and_10(self):
        mat = Swap([0, 1]).matrix()
        assert mat[1, 2] == 1 and mat[2, 1] == 1

    def test_ccx_flips_target_only_when_both_controls_set(self):
        mat = CCX([0, 1, 2]).matrix()
        # controls q0, q1 set, target q2 = 0 -> local index 3 maps to 7.
        assert mat[7, 3] == 1 and mat[3, 7] == 1
        # only one control set: unchanged.
        assert mat[1, 1] == 1 and mat[2, 2] == 1


class TestU3Decomposition:
    @pytest.mark.parametrize(
        "gate",
        [H([0]), X([0]), Y([0]), Z([0]), S([0]), T([0]), RX([0], [0.3]), RY([0], [1.2]), RZ([0], [2.2])],
        ids=lambda g: g.name,
    )
    def test_from_matrix_reproduces_gate_up_to_phase(self, gate):
        u3 = U3.from_matrix(gate.matrix(), qubit=0)
        original = gate.matrix()
        recovered = u3.matrix()
        # Compare up to global phase.
        index = np.unravel_index(np.argmax(np.abs(original)), original.shape)
        phase = original[index] / recovered[index]
        assert np.isclose(abs(phase), 1.0, atol=1e-9)
        assert np.allclose(original, phase * recovered, atol=1e-9)

    def test_from_matrix_rejects_wrong_shape(self):
        with pytest.raises(InvalidGateError):
            U3.from_matrix(np.eye(4), qubit=0)


class TestMatrixGates:
    def test_unitary_gate_requires_unitary_matrix(self):
        with pytest.raises(InvalidGateError):
            UnitaryGate(np.array([[1, 0], [0, 2]]), [0])

    def test_unitary_gate_shape_must_match_qubits(self):
        with pytest.raises(InvalidGateError):
            UnitaryGate(np.eye(2), [0, 1])

    def test_unitary_gate_inverse(self):
        gate = UnitaryGate(H([0]).matrix(), [3], name="MYH")
        assert np.allclose(gate.inverse().matrix() @ gate.matrix(), np.eye(2))

    def test_permutation_gate_matrix_maps_src_to_dst(self):
        gate = PermutationGate([1, 0, 2, 3], [0, 1])
        state = np.zeros(4)
        state[0] = 1.0
        assert np.allclose(gate.matrix() @ state, np.eye(4)[1])

    def test_permutation_must_be_bijective(self):
        with pytest.raises(InvalidGateError):
            PermutationGate([0, 0, 1, 2], [0, 1])

    def test_permutation_length_must_match_qubits(self):
        with pytest.raises(InvalidGateError):
            PermutationGate([0, 1], [0, 1])

    def test_permutation_skips_the_unitarity_product_and_keeps_its_matrix(self, monkeypatch):
        """A bijection's 0/1 matrix is unitary: no ``M @ M†`` + ``allclose``
        (the parent ran both), same matrix bit for bit, same validation."""
        import repro.ir.gates as gates

        perm = [2, 0, 3, 1, 4, 5, 7, 6]
        reference = UnitaryGate(PermutationGate(perm, [0, 1, 2]).matrix(), [0, 1, 2])

        def no_allclose(*args, **kwargs):
            raise AssertionError("PermutationGate proved unitarity twice")

        monkeypatch.setattr(gates.np, "allclose", no_allclose)
        gate = PermutationGate(perm, [0, 1, 2])
        assert gate.matrix().dtype == complex
        assert np.array_equal(gate.matrix(), reference.matrix())
        assert [int(np.argmax(gate.matrix()[:, x])) for x in range(8)] == perm
        with pytest.raises(InvalidGateError):
            PermutationGate(perm, [0, 0, 1])


class TestValidationAndRegistry:
    def test_wrong_qubit_count_rejected(self):
        with pytest.raises(InvalidGateError):
            H([0, 1])

    def test_duplicate_qubits_rejected(self):
        with pytest.raises(InvalidGateError):
            CX([1, 1])

    def test_negative_qubits_rejected(self):
        with pytest.raises(InvalidGateError):
            X([-1])

    def test_wrong_parameter_count_rejected(self):
        with pytest.raises(InvalidGateError):
            RX([0], [])

    def test_measure_has_no_matrix_and_no_inverse(self):
        measure = Measure([0])
        with pytest.raises(InvalidGateError):
            measure.matrix()
        with pytest.raises(InvalidGateError):
            measure.inverse()

    def test_registry_contains_common_aliases(self):
        for alias in ("CNOT", "TOFFOLI", "CP", "MZ", "NOT"):
            assert alias in GATE_REGISTRY

    def test_create_gate_is_case_insensitive(self):
        gate = create_gate("cx", [0, 1])
        assert gate.name == "CX"

    def test_create_gate_unknown_name(self):
        with pytest.raises(InvalidGateError):
            create_gate("FROBNICATE", [0])

    def test_symbolic_parameter_blocks_matrix(self):
        gate = RX([0], [Parameter("theta")])
        assert gate.is_parameterized
        with pytest.raises(Exception):
            gate.matrix()

    def test_bind_produces_concrete_gate(self):
        gate = RX([0], [Parameter("theta")]).bind({"theta": 0.5})
        assert not gate.is_parameterized
        assert np.allclose(gate.matrix(), RX([0], [0.5]).matrix())

    def test_with_qubits_remaps(self):
        gate = CX([0, 1]).with_qubits([3, 5])
        assert gate.qubits == (3, 5)

    def test_to_xasm_rendering(self):
        assert CX([0, 1]).to_xasm() == "CX(q[0], q[1]);"
        assert "RY" in RY([1], [0.5]).to_xasm()
