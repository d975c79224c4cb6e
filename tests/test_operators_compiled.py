"""Compiled observables: exact Pauli expectations grouped by X/Y flip mask."""

import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.config import set_config
from repro.exceptions import ExecutionError
from repro.ir.builder import CircuitBuilder
from repro.ir.parameter import Parameter
from repro.operators import compiled
from repro.operators.compiled import compile_observable
from repro.operators.pauli import PauliOperator, PauliTerm, X, Y, Z
from repro.service import QuantumJobService
from repro.simulator.density import DensityMatrix
from repro.simulator.sampling import SAMPLING_STREAM
from repro.simulator.statevector import StateVector

_SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def operators(draw, max_qubits: int = 5):
    """Random I/X/Y/Z sums: any weight, duplicates, identity, complex coefficients."""
    n = draw(st.integers(min_value=1, max_value=max_qubits))
    coefficient = st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False)
    terms = []
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        labels = draw(st.lists(st.sampled_from("IXYZ"), min_size=n, max_size=n))
        terms.append(PauliTerm(dict(enumerate(labels)), draw(coefficient)))
    if terms and draw(st.booleans()):
        terms.append(terms[0].copy())
    return n, PauliOperator(terms)


def _oracle_matrix(operator: PauliOperator, n: int) -> np.ndarray:
    """``sum Re(c) P`` from ``to_matrix`` — the stated expectation semantics."""
    total = np.zeros((1 << n, 1 << n), dtype=complex)
    for term in operator.terms:
        total += term.coefficient.real * term.copy(1.0).to_matrix(n)
    return total


def _random_state(rng, n: int) -> np.ndarray:
    psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return psi / np.linalg.norm(psi)


def _ising(n: int, field: float = 0.7) -> PauliOperator:
    observable = -field * X(0)
    for qubit in range(1, n):
        observable = observable - field * X(qubit)
    for qubit in range(n - 1):
        observable = observable - Z(qubit) * Z(qubit + 1)
    return observable


class TestHashEqContract:
    def test_equal_terms_hash_equal(self):
        a = PauliTerm({0: "X"}, 1.0)
        b = PauliTerm({0: "X"}, 1.0 + 4e-6)
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_equal_operators_hash_equal(self):
        a = PauliOperator([PauliTerm({0: "X", 1: "Z"}, 1.0), Z(2)])
        b = PauliOperator([Z(2), PauliTerm({0: "X", 1: "Z"}, 1.000009)])
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_structure_still_separates_hashes(self):
        assert len({X(0), Z(0), X(1)}) == 3


class TestDifferential:
    @_SETTINGS
    @given(operators(), st.integers(min_value=0, max_value=2**32 - 1))
    def test_statevector_matches_matrix_oracle(self, case, seed):
        n, operator = case
        psi = _random_state(np.random.default_rng(seed), n)
        expected = np.vdot(psi, _oracle_matrix(operator, n) @ psi).real
        double = StateVector(n, psi).expectation(operator)
        single = StateVector(n, psi, dtype=np.complex64).expectation(operator)
        assert abs(double - expected) <= 1e-12
        assert abs(single - expected) <= 1e-4

    @_SETTINGS
    @given(operators(), st.integers(min_value=0, max_value=2**32 - 1))
    def test_density_matches_matrix_oracle(self, case, seed):
        n, operator = case
        rng = np.random.default_rng(seed)
        weights = rng.dirichlet(np.ones(3))
        rho = sum(w * np.outer(v, v.conj()) for w, v in
                  zip(weights, (_random_state(rng, n) for _ in weights)))
        expected = np.trace(_oracle_matrix(operator, n) @ rho).real
        assert abs(DensityMatrix(n, rho).expectation(operator) - expected) <= 1e-12

    @_SETTINGS
    @given(operators(), st.integers(min_value=0, max_value=2**32 - 1))
    def test_apply_matches_matrix_oracle(self, case, seed):
        """``apply`` is ``sum Re(c) P`` applied to the state, into ``out`` too."""
        n, operator = case
        psi = _random_state(np.random.default_rng(seed), n)
        expected = _oracle_matrix(operator, n) @ psi
        form = compile_observable(operator, n)
        out = np.full_like(psi, np.nan)
        assert form.apply(psi, out) is out
        assert np.max(np.abs(out - expected), initial=0.0) <= 1e-12
        assert np.max(np.abs(form.apply(psi) - expected), initial=0.0) <= 1e-12

    def test_apply_on_a_wider_register_with_xyz_yy_and_constant(self):
        rng = np.random.default_rng(8)
        psi = _random_state(rng, 5)
        observable = 0.4 - 0.9 * X(0) + 0.3 * Y(4) + 1.1 * Z(2) + 0.6 * Y(1) * Y(3)
        expected = observable.to_matrix(5) @ psi
        assert np.max(np.abs(compile_observable(observable, 5).apply(psi) - expected)) <= 1e-12

    def test_lone_term_and_wider_register(self):
        rng = np.random.default_rng(3)
        psi = _random_state(rng, 4)
        term = 0.5 * Y(1) * X(2)
        expected = np.vdot(psi, term.to_matrix(4) @ psi).real
        assert StateVector(4, psi).expectation(term) == pytest.approx(expected, abs=1e-12)

    def test_empty_operator_and_identity(self):
        state = StateVector(2)
        assert state.expectation(X(0) - X(0)) == 0.0
        assert state.expectation(PauliOperator([PauliTerm({}, 2.5 + 1j)])) == 2.5

    def test_qubit_outside_the_state_rejected(self):
        with pytest.raises(ExecutionError):
            StateVector(2).expectation(X(2))


class TestWorkBound:
    def test_expectation_copies_nothing_and_builds_no_circuit(self, monkeypatch):
        def forbidden(*_args, **_kwargs):
            raise AssertionError("expectation must read the state in place")

        state = StateVector(3)
        state.apply_circuit(CircuitBuilder(3).h(0).cx(0, 1).ry(2, 0.4).build())
        observable = 0.3 - X(0) * X(1) + 0.5 * Y(0) * Y(1) + Z(2) + 0.25 * X(2) * Z(0)
        expected = np.vdot(state.data, observable.to_matrix(3) @ state.data).real
        monkeypatch.setattr(StateVector, "copy", forbidden)
        monkeypatch.setattr(StateVector, "apply_circuit", forbidden)
        monkeypatch.setattr(PauliTerm, "basis_rotation_circuit", forbidden)
        assert state.expectation(observable) == pytest.approx(expected, abs=1e-12)

    def test_ising_groups_one_diagonal_and_one_group_per_mask(self):
        form = compile_observable(_ising(10), 10)
        assert form.diagonal is not None and form.diagonal.shape == (1 << 10,)
        assert len(form.groups) == 10
        assert not form.diagonal.flags.writeable

    @pytest.mark.parametrize(
        "shift, lookups",
        [(None, (1, 0)), (0.4, (1, 39))],
        ids=["adjoint", "parameter-shift"],
    )
    def test_gradient_compiles_the_observable_once(self, shift, lookups):
        """One compile per gradient: the adjoint method looks the observable
        up once (one ``H|psi>``), the 2·P sweep once per binding."""
        builder = CircuitBuilder(4, name="compile_once")
        for index in range(20):
            builder.ry(index % 4, Parameter(f"t{index:02d}"))
            if index % 4 == 3:
                builder.cx(0, 1).cx(2, 3)
        observable = 0.123456 * Z(0) * Z(1) - 0.654321 * X(2) + 0.5 * Y(1) * Y(3)
        compiled._compile.cache_clear()
        with QuantumJobService(workers=1, name="compile-once") as service:
            gradient = service.gradient(
                builder.build(), observable, np.full(20, 0.3), shift=shift
            )
        info = compiled._compile.cache_info()
        assert gradient.shape == (20,)
        assert (info.misses, info.hits) == lookups


class TestMemo:
    def test_key_is_exact_content_not_tolerant_equality(self):
        a = PauliOperator([PauliTerm({0: "X"}, 1.0)])
        b = PauliOperator([PauliTerm({0: "X"}, 1.0 + 4e-6)])
        assert a == b
        assert compile_observable(a, 1) is not compile_observable(b, 1)
        assert compile_observable(a, 1) is compile_observable(1.0 * X(0), 1)
        assert compile_observable(a, 1) is not compile_observable(a, 2)
        plus = StateVector(1, [2**-0.5, 2**-0.5])
        assert plus.expectation(b) - plus.expectation(a) == pytest.approx(4e-6, abs=1e-15)

    def test_concurrent_first_builds_agree(self):
        observable = _ising(8) + 0.0123 * Y(3) * Z(4)
        psi = _random_state(np.random.default_rng(5), 8)
        expected = np.vdot(psi, observable.to_matrix(8) @ psi).real
        compiled._compile.cache_clear()
        barrier = threading.Barrier(6, timeout=10)
        values = []

        def worker():
            barrier.wait()
            for _ in range(20):
                values.append(StateVector(8, psi).expectation(observable))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(values) == 120 and len(set(values)) == 1
        assert values[0] == pytest.approx(expected, abs=1e-12)

    def test_compiled_form_never_rides_a_pickle(self):
        observable = _ising(6)
        before = pickle.dumps(observable)
        StateVector(6).expectation(observable)
        after = pickle.dumps(observable)
        assert before == after
        assert b"CompiledObservable" not in after


class TestSampledPath:
    def test_sampled_expectation_matches_parent_recording(self):
        # Value recorded at the parent's inline implementation, same seed,
        # at sampling stream 1 on the host's thread count (two); re-recorded
        # at stream 4, where no thread count moves it.
        assert SAMPLING_STREAM == 4
        set_config(seed=1234)
        ansatz = CircuitBuilder(3).h(0).cx(0, 1).ry(2, 0.3).measure(0).build()
        observable = 0.5 - 1.25 * X(0) * X(1) + 0.75 * Y(1) * Z(2) + 0.3 * Z(0)
        assert repro.observe_expectation(ansatz, observable, shots=500) == -0.6804
