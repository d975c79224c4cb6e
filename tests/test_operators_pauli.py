"""Tests for the Pauli operator algebra."""

import numpy as np
import pytest

from repro.operators.pauli import I, PauliOperator, PauliTerm, X, Y, Z
from repro.simulator.statevector import StateVector
from repro.ir.builder import CircuitBuilder


class TestPauliTerm:
    def test_factories_produce_single_factor_terms(self):
        term = X(3)
        assert term.paulis == {3: "X"}
        assert term.coefficient == 1.0

    def test_identity_term(self):
        assert I().is_identity
        assert I(5).is_identity

    def test_scalar_multiplication(self):
        term = 2.5 * X(0)
        assert term.coefficient == pytest.approx(2.5)
        assert (X(0) * 2.5).coefficient == pytest.approx(2.5)

    def test_product_of_disjoint_factors(self):
        term = X(0) * Y(1)
        assert term.paulis == {0: "X", 1: "Y"}

    def test_same_qubit_product_uses_pauli_algebra(self):
        assert (X(0) * X(0)).is_identity
        xy = X(0) * Y(0)
        assert xy.paulis == {0: "Z"}
        assert xy.coefficient == pytest.approx(1j)
        yx = Y(0) * X(0)
        assert yx.coefficient == pytest.approx(-1j)

    def test_negation(self):
        assert (-X(0)).coefficient == pytest.approx(-1.0)

    def test_matrix_of_z(self):
        assert np.allclose(Z(0).to_matrix(1), np.diag([1, -1]))

    def test_matrix_ordering_little_endian(self):
        # Z on qubit 0 of a 2-qubit system: diag over |q1 q0> = 00,01,10,11.
        assert np.allclose(Z(0).to_matrix(2), np.diag([1, -1, 1, -1]))
        assert np.allclose(Z(1).to_matrix(2), np.diag([1, 1, -1, -1]))

    def test_commutation(self):
        assert X(0).commutes_with(X(0))
        assert not X(0).commutes_with(Z(0))
        assert (X(0) * X(1)).commutes_with(Z(0) * Z(1))

    def test_qubit_wise_commutation(self):
        assert X(0).qubit_wise_commutes_with(X(0) * Z(1))
        assert not (X(0) * X(1)).qubit_wise_commutes_with(Z(0) * Z(1))

    def test_pauli_string(self):
        assert (X(0) * Z(2)).pauli_string == "X0 Z2"
        assert I().pauli_string == "I"

    def test_invalid_label_rejected(self):
        from repro.exceptions import IRError

        with pytest.raises(IRError):
            PauliTerm({0: "Q"})

    def test_basis_rotation_diagonalises_term(self):
        # After the rotation, the term's Z-parity equals its expectation.
        for term in (X(0), Y(0), Z(0), X(0) * Y(1)):
            state = StateVector(2)
            state.apply_circuit(CircuitBuilder(2).h(0).cx(0, 1).s(1).build())
            oracle = np.vdot(state.data, term.to_matrix(2) @ state.data).real
            assert state.expectation(PauliOperator([term])) == pytest.approx(oracle, abs=1e-9)
            rotated = state.copy()
            rotated.apply_circuit(term.basis_rotation_circuit(2))
            parity = PauliTerm({q: "Z" for q in term.qubits})
            assert rotated.expectation(parity) == pytest.approx(oracle, abs=1e-9)


class TestPauliOperator:
    def test_sum_collects_like_terms(self):
        op = PauliOperator([X(0), X(0)])
        assert op.n_terms == 1
        assert op.terms[0].coefficient == pytest.approx(2.0)

    def test_zero_terms_pruned(self):
        op = X(0) - X(0)
        assert isinstance(op, PauliOperator)
        assert op.n_terms == 0

    def test_scalar_plus_term_builds_operator(self):
        op = 5.907 - 2.1433 * X(0) * X(1)
        assert isinstance(op, PauliOperator)
        assert op.constant == pytest.approx(5.907)
        assert op.n_terms == 2

    def test_deuteron_hamiltonian_matches_matrix_eigenvalue(self):
        H = (
            5.907
            - 2.1433 * X(0) * X(1)
            - 2.1433 * Y(0) * Y(1)
            + 0.21829 * Z(0)
            - 6.125 * Z(1)
        )
        assert H.ground_state_energy(2) == pytest.approx(-1.74886, abs=1e-4)

    def test_operator_products_expand(self):
        op = (X(0) + Y(0)) * (X(0) - Y(0))
        # (X+Y)(X-Y) = X^2 - XY + YX - Y^2 = -XY + YX = -iZ - iZ = -2iZ
        assert op.n_terms == 1
        assert op.terms[0].paulis == {0: "Z"}
        assert op.terms[0].coefficient == pytest.approx(-2j)

    def test_operator_matrix_is_hermitian_for_real_coefficients(self):
        H = 1.5 * X(0) * Z(1) + 0.25 * Y(1) - 2.0
        matrix = H.to_matrix(2)
        assert np.allclose(matrix, matrix.conj().T)

    def test_scalar_multiplication_and_negation(self):
        op = 2.0 * (X(0) + Z(1))
        assert all(np.isclose(t.coefficient, 2.0) for t in op.terms)
        negated = -op
        assert all(np.isclose(t.coefficient, -2.0) for t in negated.terms)

    def test_rsub_scalar(self):
        op = 1.0 - Z(0)
        matrix = op.to_matrix(1)
        assert np.allclose(matrix, np.diag([0.0, 2.0]))

    def test_equality(self):
        a = 2 * X(0) + Z(1)
        b = Z(1) + X(0) + X(0)
        assert a == b
        assert a != (2 * X(0) + Z(0))

    def test_n_qubits(self):
        assert (X(0) * Z(4)).paulis == {0: "X", 4: "Z"}
        assert PauliOperator([X(0) * Z(4)]).n_qubits == 5

    def test_expectation_against_statevector(self):
        # |+> state: <X> = 1, <Z> = 0.
        state = StateVector(1)
        state.apply_circuit(CircuitBuilder(1).h(0).build())
        assert state.expectation(PauliOperator([X(0)])) == pytest.approx(1.0)
        assert state.expectation(PauliOperator([Z(0)])) == pytest.approx(0.0, abs=1e-12)
        assert state.expectation(2.0 + 3.0 * X(0)) == pytest.approx(5.0)
