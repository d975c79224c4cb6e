"""Cross-validation of the stabilizer tableau lane against the dense lanes.

Three contracts anchor this file:

* **Deterministic circuits are bitwise identical.**  A Clifford circuit
  whose measurement outcomes are deterministic yields the *same single
  bitstring* from the tableau and from every dense lane, at any seed —
  the tableau's symbolic-phase sampling reduces to a constant.
* **Random-outcome circuits agree distributionally.**  At a fixed seed the
  tableau's histogram over ≤12 qubits matches the statevector lane's
  within a chi-square bound — same sampling law, different bit streams.
* **Routing is sound.**  The classifier lowers exactly the Clifford
  circuits (including Clifford-angle rotations), ``choose_backend`` picks
  the tableau for them and refuses explicit stabilizer requests for anything
  else, and the broker routes automatically without changing results,
  job keys, or the non-Clifford path.
"""

import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms.ghz import ghz_circuit
from repro.cancellation import CancelToken, cancel_scope
from repro.exceptions import AcceleratorError, DeadlineExceeded, ExecutionError
from repro.exec import LocalBackend
from repro.exec import stabilizer
from repro.exec.stabilizer import (
    StabilizerBackend,
    StabilizerTableau,
    estimate_tableau_bytes,
)
from repro.ir.builder import CircuitBuilder
from repro.ir.gates import X
from repro.ir.transforms import clifford
from repro.ir.transforms.clifford import classify_clifford, clear_clifford_cache
from repro.obs import enable_tracing
from repro.operators.pauli import PauliOperator, PauliTerm
from repro.runtime.buffer import AcceleratorBuffer
from repro.runtime.qpp_accelerator import QppAccelerator
from repro.runtime.service_registry import reset_registry
from repro.service import QuantumJobService
from repro.service.admission import estimate_job_bytes
from repro.service.keys import job_key
from repro.simulator.cost_model import choose_backend
from repro.simulator.statevector import StateVector
from repro.testing import reference_marginal_probabilities


@pytest.fixture(autouse=True)
def service_runtime_state():
    """Broker tests resolve accelerators through the process-wide registry;
    reset it so no shared singleton leaks across tests."""
    reset_registry()
    yield
    reset_registry()


def random_clifford_circuit(
    rng: np.random.Generator, n_qubits: int, depth: int, full: bool = False
):
    """A random measured Clifford circuit over the full lowering surface.

    ``full`` adds what the dense lanes cannot sample in one replay or what
    lowers to several tableau ops: mid-circuit resets, CY / iSWAP, and
    Clifford-angle RX / RY / CRZ / CPHASE.
    """
    builder = CircuitBuilder(n_qubits, name=f"clifford_rand_{rng.integers(1 << 30)}")
    single = ("h", "s", "sdg", "x", "y", "z")
    double = ("cx", "cz", "swap", "cy", "iswap") if full else ("cx", "cz", "swap")
    for _ in range(depth):
        if full and rng.random() < 0.1:
            builder.reset(int(rng.integers(n_qubits)))
        elif full and n_qubits > 1 and rng.random() < 0.1:
            a, b = rng.choice(n_qubits, size=2, replace=False)
            getattr(builder, rng.choice(("crz", "cphase")))(
                int(a), int(b), int(rng.integers(4)) * np.pi
            )
        elif n_qubits > 1 and rng.random() < 0.4:
            a, b = rng.choice(n_qubits, size=2, replace=False)
            getattr(builder, rng.choice(double))(int(a), int(b))
        elif rng.random() < 0.25:
            # Clifford-angle rotations must lower, not obstruct.
            k = int(rng.integers(4))
            rotation = rng.choice(("rz", "rx", "ry")) if full else "rz"
            getattr(builder, rotation)(int(rng.integers(n_qubits)), k * np.pi / 2)
        else:
            getattr(builder, rng.choice(single))(int(rng.integers(n_qubits)))
    builder.measure_all()
    return builder.build()


def chi_square(observed: dict, expected: dict, shots: int) -> float:
    """Pearson chi-square of two fixed-shot histograms (expected as model)."""
    total_expected = sum(expected.values())
    stat = 0.0
    for key in set(observed) | set(expected):
        model = expected.get(key, 0) / total_expected * shots
        if model < 1e-12:
            # Observed a key the model gives zero probability: impossible
            # under agreement, so make the statistic fail loudly.
            return float("inf")
        stat += (observed.get(key, 0) - model) ** 2 / model
    return stat


# ---------------------------------------------------------------------------
# Tableau unit behaviour
# ---------------------------------------------------------------------------


class TestTableauGates:
    def test_initial_state_measures_all_zeros(self):
        tab = StabilizerTableau(4)
        assert tab.sample(16, range(4)) == {"0000": 16}

    def test_x_flips_deterministically(self):
        tab = StabilizerTableau(3)
        tab.x_gate(1)
        assert tab.sample(8, range(3)) == {"010": 8}

    def test_h_then_h_is_identity(self):
        tab = StabilizerTableau(2)
        tab.h(0)
        tab.h(0)
        assert tab.sample(8, range(2)) == {"00": 8}

    def test_bell_pair_is_perfectly_correlated(self):
        tab = StabilizerTableau(2)
        tab.h(0)
        tab.cx(0, 1)
        counts = tab.sample(512, range(2), np.random.default_rng(3))
        assert set(counts) == {"00", "11"}
        assert sum(counts.values()) == 512

    def test_swap_moves_excitation(self):
        tab = StabilizerTableau(2)
        tab.x_gate(0)
        tab.swap(0, 1)
        assert tab.sample(8, range(2)) == {"01": 8}

    def test_s_squared_is_z(self):
        # S²|+> = Z|+> = |->; interferometry detects the phase: H S S H |0> = |1>.
        tab = StabilizerTableau(1)
        tab.h(0)
        tab.s(0)
        tab.s(0)
        tab.h(0)
        assert tab.sample(8, [0]) == {"1": 8}

    def test_sdg_inverts_s(self):
        tab = StabilizerTableau(1)
        tab.h(0)
        tab.s(0)
        tab.sdg(0)
        tab.h(0)
        assert tab.sample(8, [0]) == {"0": 8}

    def test_reset_after_superposition_restores_zero(self):
        tab = StabilizerTableau(2)
        tab.h(0)
        tab.cx(0, 1)
        tab.reset(0)
        counts = tab.sample(256, [0], np.random.default_rng(5))
        assert counts == {"0": 256}

    def test_mid_circuit_measurement_collapses(self):
        tab = StabilizerTableau(1)
        tab.h(0)
        first = tab.measure(0)
        second = tab.measure(0)
        # Repeated measurement returns the identical affine form.
        assert np.array_equal(first, second)

    def test_expectation_signs(self):
        tab = StabilizerTableau(2)
        tab.h(0)
        tab.cx(0, 1)
        assert tab.expectation_sign({0: "Z", 1: "Z"}) == 1.0
        assert tab.expectation_sign({0: "X", 1: "X"}) == 1.0
        assert tab.expectation_sign({0: "Y", 1: "Y"}) == -1.0
        assert tab.expectation_sign({0: "Z"}) == 0.0


class TestTableauSizing:
    def test_estimate_is_quadratic_not_exponential(self):
        assert estimate_tableau_bytes(500) < 2_000_000
        assert estimate_tableau_bytes(500) > estimate_tableau_bytes(100)

    def test_admission_uses_tableau_bytes_for_stabilizer_method(self):
        dense = estimate_job_bytes(30, 100)
        tableau = estimate_job_bytes(30, 100, method="stabilizer")
        assert tableau == estimate_tableau_bytes(30, 100)
        assert tableau < dense
        # 500 dense qubits would overflow any budget; the tableau fits.
        assert estimate_job_bytes(500, 100, method="stabilizer") < 2_000_000

    @pytest.mark.parametrize("n_qubits, shots", [(200, 4096), (400, 1024)])
    def test_estimate_bounds_the_measured_peak(self, n_qubits, shots):
        """What admission charges is at least what ``execute`` allocates.

        The circuit is the shape's worst case — every measured qubit random
        (``n`` random bits to draw per shot) and every shot a distinct key —
        and short, so the peak is the tableau's and not the classifier's
        walk over a long gate list.
        """
        builder = CircuitBuilder(n_qubits, name="sizing")
        for qubit in range(n_qubits):
            builder.h(qubit)
        for qubit in range(n_qubits - 1):
            builder.cz(qubit, qubit + 1)
        circuit = builder.measure_all().build()
        backend = StabilizerBackend()
        backend.execute(circuit, 16, seed=1)
        tracemalloc.start()
        try:
            result = backend.execute(circuit, shots, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(result.counts) == shots
        assert result.extra["n_random_bits"] == 0  # all minted while sampling
        assert peak <= estimate_tableau_bytes(n_qubits, shots)


# ---------------------------------------------------------------------------
# Classifier soundness
# ---------------------------------------------------------------------------


class TestCliffordClassifier:
    def test_ghz_is_clifford(self):
        verdict = classify_clifford(ghz_circuit(5))
        assert verdict.is_clifford
        assert verdict.measured_qubits == (0, 1, 2, 3, 4)

    def test_clifford_angle_rotations_lower(self):
        circuit = (
            CircuitBuilder(1, name="rz_angles")
            .h(0)
            .rz(0, np.pi / 2)
            .rz(0, np.pi)
            .rz(0, -np.pi / 2)
            .measure(0)
            .build()
        )
        verdict = classify_clifford(circuit)
        assert verdict.is_clifford
        assert ("s", 0) in verdict.ops
        assert ("z", 0) in verdict.ops
        assert ("sdg", 0) in verdict.ops

    def test_generic_rotation_names_the_obstruction(self):
        circuit = CircuitBuilder(1, name="rz_generic").rz(0, 0.3).measure(0).build()
        verdict = classify_clifford(circuit)
        assert not verdict.is_clifford
        assert "RZ" in verdict.reason

    def test_t_gate_is_not_clifford(self):
        circuit = CircuitBuilder(1, name="t_gate").t(0).measure(0).build()
        assert not classify_clifford(circuit).is_clifford

    def test_toffoli_is_not_clifford(self):
        circuit = CircuitBuilder(3, name="ccx").ccx(0, 1, 2).measure_all().build()
        assert not classify_clifford(circuit).is_clifford

    def test_unbound_parameter_is_not_clifford(self):
        from repro.ir.parameter import Parameter

        theta = Parameter("theta")
        circuit = CircuitBuilder(1, name="sym").rz(0, theta).measure(0).build()
        verdict = classify_clifford(circuit)
        assert not verdict.is_clifford
        assert "unbound" in verdict.reason

    def test_verdicts_are_cached_by_content(self):
        clear_clifford_cache()
        first = classify_clifford(ghz_circuit(4))
        renamed = ghz_circuit(4)
        renamed.name = "same_physics_other_name"
        assert classify_clifford(renamed) is first


class TestCostModelRouting:
    def test_auto_picks_tableau_for_clifford(self):
        verdict = classify_clifford(ghz_circuit(6))
        assert choose_backend(verdict) == "stabilizer"

    def test_auto_keeps_non_clifford_dense(self):
        circuit = CircuitBuilder(2, name="dense").rz(0, 0.3).measure_all().build()
        assert choose_backend(classify_clifford(circuit)) == "statevector"

    def test_explicit_statevector_always_wins(self):
        verdict = classify_clifford(ghz_circuit(6))
        assert choose_backend(verdict, "statevector") == "statevector"

    def test_explicit_stabilizer_on_non_clifford_raises(self):
        circuit = CircuitBuilder(2, name="dense2").rz(0, 0.3).measure_all().build()
        with pytest.raises(ExecutionError, match="not Clifford"):
            choose_backend(classify_clifford(circuit), "stabilizer")

    def test_unknown_method_raises(self):
        with pytest.raises(ExecutionError, match="unknown simulation method"):
            choose_backend(classify_clifford(ghz_circuit(2)), "tensor")


#: Routing table over every ``method`` spelling (``None``: the option is
#: left out) × a Clifford and a non-Clifford circuit, for the three places
#: a method is read: the router itself, the accelerator (a dispatch target,
#: not a router: ``auto`` means dense there) and the broker.  Each cell is
#: the lane that ran or the exact error type.
ROUTING_METHODS = [None, "auto", "AUTO", "statevector", "stabilizer", " Stabilizer ", "tensor"]
ROUTING_TABLE = {
    "router": {
        True: ["stabilizer", "stabilizer", "stabilizer", "statevector",
               "stabilizer", "stabilizer", ExecutionError],
        False: ["statevector", "statevector", "statevector", "statevector",
                ExecutionError, ExecutionError, ExecutionError],
    },
    "accelerator": {
        True: ["statevector", "statevector", "statevector", "statevector",
               "stabilizer", "stabilizer", AcceleratorError],
        False: ["statevector", "statevector", "statevector", "statevector",
                ExecutionError, ExecutionError, AcceleratorError],
    },
    "broker": {
        True: ["stabilizer", "stabilizer", "stabilizer", "statevector",
               "stabilizer", "stabilizer", ExecutionError],
        False: ["statevector", "statevector", "statevector", "statevector",
                ExecutionError, ExecutionError, ExecutionError],
    },
}


def routed_lane(surface, circuit, method):
    """The lane ``surface`` runs ``circuit`` on under ``method``."""
    options = {} if method is None else {"method": method}
    if surface == "router":
        verdict = classify_clifford(circuit)
        return choose_backend(verdict) if method is None else choose_backend(verdict, method)
    if surface == "accelerator":
        buffer = AcceleratorBuffer(circuit.n_qubits)
        QppAccelerator({"threads": 1, **options}).execute(buffer, circuit, 32)
        return buffer.information.get("method", "statevector")
    with QuantumJobService(workers=1, backend_options=options) as service:
        service.submit(circuit, shots=32).result(timeout=30)
        routed = service.metrics().stabilizer_executions
    return "stabilizer" if routed else "statevector"


class TestRoutingTable:
    @pytest.mark.parametrize("surface", sorted(ROUTING_TABLE))
    @pytest.mark.parametrize("is_clifford", [True, False], ids=["clifford", "non_clifford"])
    @pytest.mark.parametrize("index", range(len(ROUTING_METHODS)),
                             ids=[repr(m) for m in ROUTING_METHODS])
    def test_lane_or_error_type(self, surface, is_clifford, index):
        method = ROUTING_METHODS[index]
        expected = ROUTING_TABLE[surface][is_clifford][index]
        circuit = (
            ghz_circuit(4)
            if is_clifford
            else CircuitBuilder(3, name="routing_nc").rx(1, 0.3).cx(0, 1).measure_all().build()
        )
        if isinstance(expected, str):
            assert routed_lane(surface, circuit, method) == expected
            return
        with pytest.raises(expected) as excinfo:
            routed_lane(surface, circuit, method)
        assert type(excinfo.value) is expected


# ---------------------------------------------------------------------------
# Cross-validation against the dense lanes (≤ 12 qubits)
# ---------------------------------------------------------------------------


class TestCrossValidation:
    @pytest.mark.parametrize("n_qubits", [2, 5, 8, 12])
    def test_ghz_counts_match_distribution(self, n_qubits):
        circuit = ghz_circuit(n_qubits)
        shots = 2048
        dense = LocalBackend().execute(circuit, shots, seed=17).counts
        tableau = StabilizerBackend().execute(circuit, shots, seed=17).counts
        assert set(tableau) == set(dense) == {"0" * n_qubits, "1" * n_qubits}
        assert sum(tableau.values()) == shots
        # Fair-coin marginal: both lanes within 5 sigma of shots/2.
        sigma = (shots * 0.25) ** 0.5
        assert abs(tableau["0" * n_qubits] - shots / 2) < 5 * sigma

    @pytest.mark.parametrize("trial", range(6))
    def test_deterministic_circuits_bitwise_identical(self, trial):
        """No-H Clifford circuits are computational-basis permutations: the
        outcome is one bitstring, identical across lanes at *any* seed."""
        rng = np.random.default_rng(100 + trial)
        n = int(rng.integers(3, 9))
        builder = CircuitBuilder(n, name=f"perm_{trial}")
        for _ in range(30):
            if rng.random() < 0.5 and n > 1:
                a, b = rng.choice(n, size=2, replace=False)
                getattr(builder, rng.choice(("cx", "swap")))(int(a), int(b))
            else:
                getattr(builder, rng.choice(("x", "z")))(int(rng.integers(n)))
        builder.measure_all()
        circuit = builder.build()
        dense = LocalBackend().execute(circuit, 64, seed=int(rng.integers(1 << 20))).counts
        tableau = StabilizerBackend().execute(circuit, 64, seed=0).counts
        assert len(dense) == len(tableau) == 1
        assert tableau == dense

    @pytest.mark.parametrize("trial", range(8))
    def test_random_clifford_distributions_agree(self, trial):
        """Chi-square agreement at fixed seeds over random Clifford circuits."""
        rng = np.random.default_rng(2000 + trial)
        n = int(rng.integers(2, 13))
        circuit = random_clifford_circuit(rng, n, depth=40)
        shots = 4096
        dense = LocalBackend().execute(circuit, shots, seed=23).counts
        tableau = StabilizerBackend().execute(circuit, shots, seed=23).counts
        assert sum(tableau.values()) == shots
        # Stabilizer outcomes are uniform over an affine subspace of
        # dimension d ≤ n: degrees of freedom = |support| - 1.
        dof = max(1, len(dense) - 1)
        stat = chi_square(tableau, dense, shots)
        # 5-sigma-ish bound: mean dof, variance 2·dof.
        assert stat < dof + 5 * (2 * dof) ** 0.5 + 10, f"chi2={stat} dof={dof}"

    @pytest.mark.parametrize("trial", range(4))
    def test_expectation_matches_dense(self, trial):
        rng = np.random.default_rng(3000 + trial)
        n = int(rng.integers(2, 7))
        builder = CircuitBuilder(n, name=f"expect_{trial}")
        for _ in range(25):
            if rng.random() < 0.4 and n > 1:
                a, b = rng.choice(n, size=2, replace=False)
                builder.cx(int(a), int(b))
            else:
                getattr(builder, rng.choice(("h", "s", "x", "z")))(int(rng.integers(n)))
        circuit = builder.build()
        terms = []
        for _ in range(4):
            paulis = {
                int(q): str(rng.choice(("X", "Y", "Z")))
                for q in rng.choice(n, size=min(n, 2), replace=False)
            }
            terms.append(PauliTerm(paulis, float(rng.normal())))
        observable = PauliOperator(terms)
        dense = LocalBackend().expectation(circuit, observable, n_qubits=n)
        tableau = StabilizerBackend().expectation(circuit, observable, n_qubits=n)
        assert tableau == pytest.approx(dense, abs=1e-9)

    def test_reset_distribution_matches_dense(self):
        builder = CircuitBuilder(2, name="reset_dist")
        builder.h(0).cx(0, 1).reset(0).h(0).measure_all()
        circuit = builder.build()
        shots = 4096
        dense = LocalBackend().execute(circuit, shots, seed=29).counts
        tableau = StabilizerBackend().execute(circuit, shots, seed=29).counts
        for key in set(dense) | set(tableau):
            assert abs(tableau.get(key, 0) - dense.get(key, 0)) < 5 * (shots * 0.25) ** 0.5

    def test_non_clifford_circuit_fails_loudly(self):
        circuit = CircuitBuilder(1, name="nc").rz(0, 0.3).measure(0).build()
        with pytest.raises(ExecutionError, match="Clifford"):
            StabilizerBackend().execute(circuit, 16)

    def test_fixed_seed_is_reproducible(self):
        circuit = ghz_circuit(6)
        first = StabilizerBackend().execute(circuit, 1024, seed=7).counts
        second = StabilizerBackend().execute(circuit, 1024, seed=7).counts
        assert first == second


# ---------------------------------------------------------------------------
# The moment program: batched evolution == gate by gate == dense
# ---------------------------------------------------------------------------


class _Forced:
    """Stands in for a Generator so ``StateVector.measure`` takes a branch."""

    def __init__(self, outcome: int):
        self.outcome = outcome

    def random(self) -> float:
        return 0.0 if self.outcome else 1.0


def dense_support(circuit) -> set:
    """Exact support of the measured qubits, branching on every reset outcome."""
    n = circuit.n_qubits

    def walk(state, instructions):
        for index, inst in enumerate(instructions):
            if inst.name != "RESET":
                state.apply(inst)
                continue
            (qubit,) = inst.qubits
            p_one = state.probability_of_one(qubit)
            support = set()
            for outcome, p in ((0, 1.0 - p_one), (1, p_one)):
                if p > 1e-9:
                    branch = state.copy()
                    branch.measure(qubit, _Forced(outcome))
                    if outcome:
                        branch.apply(X([qubit]))
                    support |= walk(branch, instructions[index + 1 :])
            return support
        marginal = reference_marginal_probabilities(
            state.probabilities(), tuple(range(n)), n
        )
        return {key for key, p in marginal.items() if p > 1e-9}

    return walk(StateVector(n), list(circuit))


def evolved(ops, n_qubits: int) -> StabilizerTableau:
    """Apply ``(kind, q[, q2])`` tuples one gate at a time."""
    tableau = StabilizerTableau(n_qubits)
    method = {"x": "x_gate", "y": "y_gate", "z": "z_gate"}
    for kind, *qubits in ops:
        getattr(tableau, method.get(kind, kind))(*qubits)
    return tableau


def assert_same_tableau(left: StabilizerTableau, right: StabilizerTableau):
    assert left.n_random_bits == right.n_random_bits
    for name in ("x", "z", "sign", "affine"):
        assert np.array_equal(getattr(left, name), getattr(right, name)), name


class TestMomentProgram:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n_qubits=st.integers(min_value=1, max_value=8),
        depth=st.integers(min_value=0, max_value=48),
    )
    def test_batched_evolution_is_gate_by_gate_evolution(self, seed, n_qubits, depth):
        circuit = random_clifford_circuit(
            np.random.default_rng(seed), n_qubits, depth, full=True
        )
        program = classify_clifford(circuit)
        assert program.is_clifford
        batched = StabilizerTableau(n_qubits)
        StabilizerBackend._evolve(batched, program)
        # Same generators, same signs, same random-bit numbering — whether
        # the ops run a moment at a time, one at a time in moment order, or
        # one at a time in source order (levelling only reorders disjoint
        # gates, and never across a reset).
        assert_same_tableau(batched, evolved(program.ops, n_qubits))
        source_order = [
            (clifford.TABLEAU_OPS[code], inst.qubits[a])
            if code < clifford.FIRST_TWO_QUBIT_OP
            else (clifford.TABLEAU_OPS[code], inst.qubits[a], inst.qubits[b])
            for inst in circuit
            for code, a, b in clifford._lower_instruction(inst)[0]
            if code != clifford._MEASURE
        ]
        assert sorted(source_order) == sorted(program.ops)
        assert_same_tableau(batched, evolved(source_order, n_qubits))
        # Outcomes are uniform over an affine space of at most 2^8 points:
        # 16k shots miss one with probability < 1e-25.
        sampled = batched.sample(1 << 14, range(n_qubits), np.random.default_rng(seed))
        assert set(sampled) == dense_support(circuit)

    def test_moments_hold_same_kind_gates_on_disjoint_qubits(self):
        rng = np.random.default_rng(11)
        program = classify_clifford(random_clifford_circuit(rng, 8, 200, full=True))
        reset = clifford.TABLEAU_OPS.index("reset")
        n_moments = 0
        for code, first, second in program.moments():
            n_moments += 1
            qubits = np.atleast_1d(first).tolist()
            if code >= clifford.FIRST_TWO_QUBIT_OP:
                qubits += np.atleast_1d(second).tolist()
            assert code == reset or len(set(qubits)) == len(qubits)
        assert n_moments == len(program.moment_starts) - 1 < program.n_ops

    def test_a_brickwork_layer_is_a_handful_of_moments(self):
        builder = CircuitBuilder(64, name="layers")
        for layer in range(4):
            for qubit in range(64):
                builder.h(qubit) if (qubit + layer) % 2 else builder.s(qubit)
            for qubit in range(layer % 2, 63, 2):
                builder.cx(qubit, qubit + 1) if qubit % 4 else builder.cz(qubit, qubit + 1)
        program = classify_clifford(builder.measure_all().build())
        assert program.n_ops == 4 * 64 + 2 * 32 + 2 * 31
        assert len(program.moment_starts) - 1 == 4 * 4  # h, s, cx, cz per layer

    def test_program_is_compact(self):
        program = classify_clifford(random_clifford_circuit(np.random.default_rng(5), 8, 400))
        stored = sum(
            getattr(program, name).nbytes
            for name in ("opcodes", "first", "second", "moment_starts")
        )
        assert stored <= 12 * program.n_ops


# ---------------------------------------------------------------------------
# Terminal sampling: the batched forms are the sequential cascade's
# ---------------------------------------------------------------------------


def cascade_forms(tableau: StabilizerTableau, measured) -> np.ndarray:
    """The oracle: measure qubit after qubit on a scratch row view (CHP)."""
    qubits = sorted(set(int(q) for q in measured))
    scratch = tableau._rows(spare=len(qubits))
    forms = np.array([scratch.measure(q) for q in qubits])
    return np.unpackbits(forms, axis=1, count=scratch.width)


POPCOUNTS = [stabilizer._popcount_bytes] + (
    [stabilizer._popcount_words] if hasattr(np, "bitwise_count") else []
)


def assert_forms_match_cascade(circuit, n_qubits: int, measured) -> StabilizerTableau:
    tableau = StabilizerTableau(n_qubits)
    StabilizerBackend._evolve(tableau, classify_clifford(circuit))
    expected = cascade_forms(tableau, measured)
    for popcount in POPCOUNTS:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(stabilizer, "_popcount", popcount)
            forms = tableau.terminal_forms(measured)
        assert forms.dtype == np.uint8
        assert forms.shape == expected.shape, popcount.__name__
        assert np.array_equal(forms, expected), popcount.__name__
    return tableau


def random_measured(rng: np.random.Generator, n_qubits: int) -> list[int]:
    """A random subset of the qubits, unsorted and with duplicates."""
    size = int(rng.integers(1, n_qubits + 1))
    picked = rng.choice(n_qubits, size=size, replace=False)
    return [int(q) for q in np.concatenate([picked, rng.choice(picked, size=size // 3)])]


class TestTerminalForms:
    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n_qubits=st.integers(min_value=1, max_value=64),
        depth=st.integers(min_value=0, max_value=160),
        partial=st.booleans(),
    )
    def test_batched_forms_are_the_cascade_forms(self, seed, n_qubits, depth, partial):
        """Random Clifford circuits with mid-circuit resets, measured whole
        or on an unsorted subset with duplicates: the one-elimination forms
        equal qubit-after-qubit measurement bit for bit, under both
        popcounts — the same affine forms, hence the same draw."""
        rng = np.random.default_rng(seed)
        circuit = random_clifford_circuit(rng, n_qubits, depth, full=True)
        measured = random_measured(rng, n_qubits) if partial else range(n_qubits)
        assert_forms_match_cascade(circuit, n_qubits, measured)

    @pytest.mark.parametrize("n_qubits", [200, 300, 400])
    def test_wide_circuits_match_the_cascade(self, n_qubits):
        rng = np.random.default_rng(n_qubits)
        circuit = random_clifford_circuit(rng, n_qubits, 3 * n_qubits, full=True)
        for measured in (range(n_qubits), random_measured(rng, n_qubits)):
            assert_forms_match_cascade(circuit, n_qubits, measured)

    @pytest.mark.parametrize("n_qubits", [32, 200])
    def test_dense_constraint_products_match_the_cascade(self, n_qubits):
        """CNOT network, H on half the qubits, CNOT network: the X parts
        are n dense vectors of rank n/2, so each ±Z-product is a dense
        combination of stabilizers and the phase pass runs in several
        chunks of ~2n gathered rows."""
        rng = np.random.default_rng(n_qubits)
        builder = CircuitBuilder(n_qubits, name="dense_constraints")
        for layer in range(2):
            for _ in range(4 * n_qubits):
                a, b = rng.choice(n_qubits, size=2, replace=False)
                builder.cx(int(a), int(b))
            for qubit in range(n_qubits // 2) if layer == 0 else ():
                builder.h(qubit)
        for qubit in rng.choice(n_qubits, size=n_qubits // 4, replace=False):
            builder.s(int(qubit))
        circuit = builder.measure_all().build()
        for measured in (range(n_qubits), random_measured(rng, n_qubits)):
            assert_forms_match_cascade(circuit, n_qubits, measured)

    def test_reset_bits_precede_the_terminal_ones(self):
        """Resets mint ``u``'s first: resetting one half of a Bell pair
        leaves the other half equal to the reset's bit ``u₁``, and the
        terminal pair gets the fresh bit ``u₂`` after it."""
        builder = CircuitBuilder(3, name="reset_then_bell")
        builder.h(0).cx(0, 1).reset(1).h(2).cx(2, 1)
        circuit = builder.measure_all().build()
        tableau = assert_forms_match_cascade(circuit, 3, range(3))
        assert tableau.n_random_bits == 1
        #                 (1, u₁, u₂)
        expected = [[0, 1, 0], [0, 0, 1], [0, 0, 1]]
        assert tableau.terminal_forms(range(3)).tolist() == expected

    def test_ghz_400_takes_one_pivot_and_no_measurement(self, monkeypatch):
        """Sampling a 400-qubit GHZ state makes no per-qubit measurement and
        its forward elimination takes exactly one pivot — the X part's rank
        — instead of one step per qubit."""

        def no_measure(self, q):
            raise AssertionError("terminal sampling measured a qubit")

        pivot_steps = []
        eliminate = stabilizer._eliminate

        def counting(rows, span):
            pivots = eliminate(rows, span)
            pivot_steps.append(int((pivots >= 0).sum()))
            return pivots

        monkeypatch.setattr(stabilizer._PauliRows, "measure", no_measure)
        monkeypatch.setattr(stabilizer, "_eliminate", counting)
        tableau = StabilizerTableau(400)
        StabilizerBackend._evolve(tableau, classify_clifford(ghz_circuit(400)))
        counts = tableau.sample(256, range(400), np.random.default_rng(0))
        assert set(counts) == {"0" * 400, "1" * 400}
        # Forward elimination: rank 1.  The reduction of the 399 ZZ
        # constraints then pivots once per constraint row.
        assert pivot_steps == [1, 399]

    def test_sample_span_records_the_random_bits(self):
        tracer = enable_tracing()
        StabilizerBackend().execute(ghz_circuit(50), 64, seed=1)
        builder = CircuitBuilder(4, name="plus4")
        for qubit in range(4):
            builder.h(qubit)
        StabilizerBackend().execute(builder.measure_all().build(), 64, seed=1)
        recorded = [s.attributes["random_bits"] for s in tracer.spans() if s.name == "sample"]
        assert recorded == [1, 4]


# ---------------------------------------------------------------------------
# One tableau job at a time per process
# ---------------------------------------------------------------------------


class TestTableauGate:
    def test_concurrent_jobs_all_return_correct_histograms(self):
        """More threads than cores, switching every 10 µs, all through the
        gate at once: every job's fixed-seed histogram is the one it gets
        alone."""
        circuits = [ghz_circuit(200 + i) for i in range(4)]
        circuits[1] = random_clifford_circuit(np.random.default_rng(8), 200, 600)
        backend = StabilizerBackend()
        expected = [backend.execute(c, 512, seed=9).counts for c in circuits]
        results: list = [None] * len(circuits)
        start = threading.Barrier(len(circuits))

        def run(index):
            start.wait()
            for _ in range(3):
                results[index] = backend.execute(circuits[index], 512, seed=9).counts

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(circuits))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == expected
        assert set(results[0]) == {"0" * 200, "1" * 200}

    def test_deadline_passing_in_the_queue_raises_without_evolving(self, monkeypatch):
        """A job queued behind a long one gives up on its own deadline: typed
        error, bounded wait, no tableau evolved, gate left usable."""
        evolved_widths = []
        holding = threading.Event()
        release = threading.Event()
        real_evolve = StabilizerBackend._evolve

        def slow_evolve(tableau, program):
            evolved_widths.append(tableau.n)
            if tableau.n == 6:  # the long job: sit inside the gate
                holding.set()
                assert release.wait(timeout=30)
            real_evolve(tableau, program)

        monkeypatch.setattr(StabilizerBackend, "_evolve", staticmethod(slow_evolve))
        backend = StabilizerBackend()
        long_job = threading.Thread(target=backend.execute, args=(ghz_circuit(6), 64))
        long_job.start()
        try:
            assert holding.wait(timeout=30)
            started = time.perf_counter()
            with pytest.raises(DeadlineExceeded):
                with cancel_scope(CancelToken(timeout=0.05)):
                    backend.execute(ghz_circuit(5), 64, seed=1)
            waited = time.perf_counter() - started
        finally:
            release.set()
            long_job.join(timeout=30)
        assert 0.04 <= waited < 2.0
        assert evolved_widths == [6]
        # The gate was handed back: the next job runs.
        assert backend.execute(ghz_circuit(5), 64, seed=1).counts
        assert evolved_widths == [6, 5]

    def test_reported_seconds_exclude_the_wait_at_the_gate(self):
        from repro.exec.backend import execution_gate

        backend = StabilizerBackend()
        circuit = ghz_circuit(5)
        backend.execute(circuit, 16, seed=1)
        holding = threading.Event()

        def another_job():
            with execution_gate(None):
                holding.set()
                time.sleep(0.3)

        holder = threading.Thread(target=another_job)
        holder.start()
        assert holding.wait(timeout=30)
        started = time.perf_counter()
        result = backend.execute(circuit, 16, seed=1)
        wall = time.perf_counter() - started
        holder.join(timeout=30)
        assert wall >= 0.25
        assert result.seconds < 0.1


# ---------------------------------------------------------------------------
# Job keys: "auto" routes, explicit methods pin
# ---------------------------------------------------------------------------


class TestMethodKeySemantics:
    def test_auto_method_does_not_change_the_job_key(self):
        circuit = ghz_circuit(4)
        assert job_key(circuit, "qpp", {}) == job_key(circuit, "qpp", {"method": "auto"})

    def test_explicit_method_is_semantic(self):
        circuit = ghz_circuit(4)
        plain = job_key(circuit, "qpp", {})
        pinned = job_key(circuit, "qpp", {"method": "stabilizer"})
        dense = job_key(circuit, "qpp", {"method": "statevector"})
        assert plain != pinned
        assert plain != dense
        assert pinned != dense


# ---------------------------------------------------------------------------
# Broker integration: automatic routing end to end
# ---------------------------------------------------------------------------


class TestBrokerRouting:
    def test_clifford_job_routes_to_tableau(self):
        with QuantumJobService(workers=1) as service:
            result = service.submit(ghz_circuit(8), shots=512).result(timeout=30)
            metrics = service.metrics()
        assert result.total_counts() == 512
        assert set(result.counts) == {"0" * 8, "1" * 8}
        assert metrics.stabilizer_executions == 1
        assert metrics.executions == 1

    def test_hundreds_of_qubits_clear_the_dense_ceiling(self):
        """A 120-qubit GHZ sails past the accelerator's 26-qubit dense limit."""
        with QuantumJobService(workers=1) as service:
            result = service.submit(ghz_circuit(120), shots=256).result(timeout=60)
            metrics = service.metrics()
        assert set(result.counts) == {"0" * 120, "1" * 120}
        assert metrics.stabilizer_executions == 1

    def test_non_clifford_job_stays_dense_and_bit_identical(self):
        circuit = (
            CircuitBuilder(3, name="dense_route")
            .h(0)
            .rx(1, 0.3)
            .cx(0, 1)
            .measure_all()
            .build()
        )
        with QuantumJobService(workers=1) as service:
            auto = service.submit(circuit, shots=256).result(timeout=30)
            metrics = service.metrics()
        with QuantumJobService(
            workers=1, backend_options={"method": "statevector"}
        ) as service:
            pinned = service.submit(circuit, shots=256).result(timeout=30)
        assert metrics.stabilizer_executions == 0
        # Routing changed nothing for the dense path: same seed, same stream.
        assert auto.counts == pinned.counts

    def test_statevector_opt_out_is_honoured_for_clifford(self):
        with QuantumJobService(
            workers=1, backend_options={"method": "statevector"}
        ) as service:
            result = service.submit(ghz_circuit(6), shots=256).result(timeout=30)
            metrics = service.metrics()
        assert result.total_counts() == 256
        assert metrics.stabilizer_executions == 0
        assert metrics.executions == 1

    def test_explicit_stabilizer_on_non_clifford_fails_typed(self):
        circuit = CircuitBuilder(2, name="bad_pin").rz(0, 0.3).measure_all().build()
        with QuantumJobService(
            workers=1, backend_options={"method": "stabilizer"}
        ) as service:
            handle = service.submit(circuit, shots=64)
            with pytest.raises(ExecutionError, match="not Clifford"):
                handle.result(timeout=30)

    def test_unknown_method_rejected_at_construction(self):
        with pytest.raises(ExecutionError, match="unknown simulation method"):
            QuantumJobService(workers=1, backend_options={"method": "tensor"})

    def test_tableau_and_dense_results_share_the_backend_label(self):
        """Routing is an implementation detail: JobResult.backend stays the
        submitted backend name either way."""
        with QuantumJobService(workers=1) as service:
            clifford = service.submit(ghz_circuit(5), shots=128).result(timeout=30)
        assert clifford.backend == "qpp"

    def test_clifford_sweep_routes_every_binding(self):
        from repro.ir.parameter import Parameter

        theta = Parameter("theta")
        circuit = (
            CircuitBuilder(3, name="sweep_clifford")
            .h(0)
            .rz(0, theta)
            .cx(0, 1)
            .cx(1, 2)
            .measure_all()
            .build()
        )
        with QuantumJobService(workers=1) as service:
            handle = service.submit_sweep(
                circuit, [{"theta": 0.0}, {"theta": np.pi / 2}], shots=256
            )
            rows = handle.result(timeout=60)
            metrics = service.metrics()
        assert len(rows) == 2
        assert all(sum(row.counts.values()) == 256 for row in rows)
        assert metrics.stabilizer_executions == 2

    def test_mixed_sweep_stays_dense(self):
        from repro.ir.parameter import Parameter

        theta = Parameter("theta")
        circuit = (
            CircuitBuilder(2, name="sweep_mixed")
            .h(0)
            .rz(0, theta)
            .cx(0, 1)
            .measure_all()
            .build()
        )
        with QuantumJobService(workers=1) as service:
            handle = service.submit_sweep(
                circuit, [{"theta": 0.0}, {"theta": 0.3}], shots=128
            )
            rows = handle.result(timeout=60)
            metrics = service.metrics()
        assert len(rows) == 2
        assert metrics.stabilizer_executions == 0
