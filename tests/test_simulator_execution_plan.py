"""Tests for compiled execution plans, the plan cache, and engine reuse."""

import numpy as np
import pytest

from repro.algorithms.bell import bell_circuit
from repro.algorithms.ghz import ghz_circuit
from repro.algorithms.qft import qft_circuit
from repro.algorithms.shor import period_finding_circuit
from repro.algorithms.vqe import deuteron_ansatz_circuit
from repro.config import set_config
from repro.exceptions import ExecutionError
from repro.ir import gates as G
from repro.ir.builder import CircuitBuilder
from repro.ir.composite import CompositeInstruction
from repro.ir.parameter import Parameter
from repro.ir.transforms import default_pass_manager
from repro.runtime.buffer import AcceleratorBuffer
from repro.runtime.qpp_accelerator import QppAccelerator
from repro.simulator.execution_plan import (
    HANDOFF_BAND_STOP,
    compile_parametric_plan,
    compile_plan,
)
from repro.simulator.parallel_engine import ParallelSimulationEngine
from repro.simulator.plan_cache import PlanCache, get_plan_cache, reset_plan_cache
from repro.simulator.statevector import StateVector


def naive_state(circuit, n_qubits):
    state = StateVector(n_qubits)
    for inst in circuit:
        if inst.is_measurement:
            continue
        state.apply(inst)
    return state.data


def reference_counts(circuit, width, shots, seed, threads=None):
    """The gate-by-gate reference an accelerator job must reproduce: the
    default IR passes, ``StateVector.apply_circuit`` (or per-shot
    trajectories when the circuit resets), and the engine's sampler.
    Returns the counts and the optimised circuit."""
    circuit = default_pass_manager().run(circuit)
    engine = ParallelSimulationEngine(num_threads=threads)
    try:
        if any(inst.name == "RESET" for inst in circuit):
            counts = engine.run_trajectories(width, circuit, shots, seed=seed)
        else:
            state = StateVector(width).apply_circuit(circuit)
            measured = circuit.measured_qubits() or tuple(range(width))
            counts = engine.sample_parallel(state, shots, measured, seed=seed)
    finally:
        engine.close()
    return counts, circuit


def plan_state(circuit, n_qubits, **kwargs):
    plan = compile_plan(circuit, n_qubits, **kwargs)
    return plan.execute(plan.new_state())


# ---------------------------------------------------------------------------
# Property-style equivalence over randomized circuits
# ---------------------------------------------------------------------------


def random_unitary(rng, k):
    dim = 1 << k
    matrix = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(matrix)
    return q


def random_circuit(rng, n_qubits, length):
    """Random mix hitting every kernel class: 1q fixed/rotation gates,
    controlled, diagonal, permutation, dense unitaries, classical perms."""
    circuit = CompositeInstruction("random", n_qubits)
    fixed_1q = [G.H, G.X, G.Y, G.Z, G.S, G.Sdg, G.T, G.Tdg, G.Identity]
    for _ in range(length):
        choice = rng.integers(0, 10)
        qs = [int(q) for q in rng.permutation(n_qubits)]
        if choice < 3:
            circuit.add(fixed_1q[rng.integers(0, len(fixed_1q))]([qs[0]]))
        elif choice < 5:
            cls = [G.RX, G.RY, G.RZ, G.U3][rng.integers(0, 4)]
            params = [float(v) for v in rng.uniform(-3, 3, cls.num_parameters)]
            circuit.add(cls([qs[0]], params))
        elif choice < 7:
            cls = [G.CX, G.CY, G.CZ, G.CH, G.Swap, G.ISwap][rng.integers(0, 6)]
            circuit.add(cls([qs[0], qs[1]]))
        elif choice == 7:
            cls = [G.CRZ, G.CPhase][rng.integers(0, 2)]
            circuit.add(cls([qs[0], qs[1]], [float(rng.uniform(-3, 3))]))
        elif choice == 8:
            cls = [G.CCX, G.CSwap][rng.integers(0, 2)]
            circuit.add(cls(qs[:3]))
        else:
            k = int(rng.integers(2, 4))
            if rng.random() < 0.5:
                perm = [int(p) for p in rng.permutation(1 << k)]
                circuit.add(G.PermutationGate(perm, qs[:k]))
            else:
                circuit.add(G.UnitaryGate(random_unitary(rng, k), qs[:k]))
    return circuit


@pytest.mark.parametrize("fusion_max_qubits", [0, 2])
@pytest.mark.parametrize("optimize", [False, True])
def test_random_circuits_plan_matches_naive(optimize, fusion_max_qubits):
    rng = np.random.default_rng(20260728)
    for _ in range(12):
        n_qubits = int(rng.integers(3, 7))
        circuit = random_circuit(rng, n_qubits, int(rng.integers(5, 30)))
        expected = naive_state(circuit, n_qubits)
        got = plan_state(
            circuit, n_qubits, optimize=optimize, fusion_max_qubits=fusion_max_qubits
        )
        assert np.allclose(got, expected, atol=1e-12)


def test_algorithm_suite_bit_identical_without_fusion_triggering():
    """The bell/ghz/qft/shor suite lowers entirely to exact kernels.

    Diagonal batching is disabled here because batched plans reassociate
    the CPHASE products (ulp-level shifts on generic states; equivalence
    with batching on is covered at 1e-12 in test_simulator_chunked_plan).
    Fusion is pinned off (``fusion_max_qubits=0``): since single-qubit
    layers fuse into GEMM blocks, Shor's Hadamard layers would otherwise
    trigger it, and a fused plan is 1e-12-close, not bit-identical.
    """
    shor = period_finding_circuit(15, 2)
    for circuit, n in [
        (bell_circuit(2), 2),
        (ghz_circuit(5), 5),
        (qft_circuit(6), 6),
        (shor, shor.n_qubits),
    ]:
        assert np.array_equal(
            plan_state(
                circuit, n, optimize=False, batch_diagonals=False, fusion_max_qubits=0
            ),
            naive_state(circuit, n),
        )


def test_kernel_classification_covers_all_classes():
    circuit = (
        CircuitBuilder(4)
        .h(0)  # single
        .cphase(0, 1, 0.4)  # diagonal
        .cx(0, 2)  # permutation
        .build()
    )
    circuit.add(G.CH([1, 3]))  # controlled
    circuit.add(G.PermutationGate([1, 0, 2, 3], [2, 3]))  # gather
    circuit.add(G.ISwap([0, 3]))  # dense
    circuit.add(G.Reset([1]))  # reset
    # Gate for gate: windows would fold the first five into one block.
    plan = compile_plan(circuit, 4, optimize=False, fusion_max_qubits=0)
    assert set(plan.kernel_counts()) == {
        "single",
        "diagonal",
        "permutation",
        "controlled",
        "gather",
        "dense",
        "reset",
    }


def test_fusion_fuses_single_qubit_runs_and_overlapping_blocks():
    circuit = CircuitBuilder(3).h(0).t(0).s(0).build()  # same-qubit run
    circuit.add(G.ISwap([0, 1]))  # overlaps the run's qubit
    plan = compile_plan(circuit, 3, optimize=False, fusion_max_qubits=2)
    assert plan.fused_gates == 4
    assert plan.n_steps == 1
    expected = naive_state(circuit, 3)
    assert np.allclose(plan.execute(plan.new_state()), expected, atol=1e-12)


def test_fusion_merges_disjoint_singles_and_keeps_non_commuting_order():
    """What is true since the window pass (this test used to assert that
    disjoint rotations never merge — the old pass's limitation): concrete
    single-qubit gates on different qubits commute, so a run of them folds
    into one contiguous-window block and ``fused_gates`` counts them; a
    step that does not commute with the run (here a CX) joins the same
    window, whose product keeps every qubit's program order.
    """
    circuit = CircuitBuilder(3).ry(0, 0.3).ry(1, 0.7).ry(2, 1.1).build()
    plan = compile_plan(circuit, 3, fusion_max_qubits=3)
    assert [step.kernel for step in plan.steps] == ["block"]
    assert plan.steps[0].targets == (0, 1, 2)
    assert plan.fused_gates == 3
    assert np.allclose(plan.execute(plan.new_state()), naive_state(circuit, 3), atol=1e-12)

    ordered = (
        CircuitBuilder(3).ry(0, 0.3).ry(1, 0.7).cx(0, 1).ry(0, 0.5).ry(1, 0.9).ry(2, 1.1)
    ).build()
    plan = compile_plan(ordered, 3, optimize=False)
    assert [step.kernel for step in plan.steps] == ["block"]
    assert [step.targets for step in plan.steps] == [(0, 1, 2)]
    assert plan.fused_gates == 6
    assert np.allclose(plan.execute(plan.new_state()), naive_state(ordered, 3), atol=1e-12)

    # fusion_max_qubits=0 is the gate-for-gate plan: nothing merges at all.
    unfused = compile_plan(ordered, 3, optimize=False, fusion_max_qubits=0)
    assert unfused.fused_gates == 0 and unfused.n_steps == 6
    assert np.array_equal(unfused.execute(unfused.new_state()), naive_state(ordered, 3))


def test_plan_width_can_exceed_circuit_width():
    plan = compile_plan(bell_circuit(2).without_measurements(), 4)
    state = plan.execute(plan.new_state())
    assert state.size == 16
    expected = StateVector(4).apply_circuit(bell_circuit(2).without_measurements()).data
    assert np.allclose(state, expected)


def test_plan_rejects_mismatched_state_and_symbolic_circuits():
    plan = compile_plan(bell_circuit(2).without_measurements(), 2)
    with pytest.raises(ExecutionError):
        plan.execute(np.zeros(8, dtype=complex))
    symbolic = CircuitBuilder(1).rx(0, Parameter("t")).build()
    with pytest.raises(ExecutionError):
        compile_plan(symbolic, 1)
    with pytest.raises(ExecutionError):
        compile_parametric_plan(bell_circuit(2), 2)


def test_reset_plan_requires_rng():
    circuit = CircuitBuilder(1).h(0).reset(0).build()
    plan = compile_plan(circuit, 1, optimize=False)
    with pytest.raises(ExecutionError):
        plan.execute(plan.new_state())


# ---------------------------------------------------------------------------
# Parametric plans
# ---------------------------------------------------------------------------


def parametric_ansatz(n_qubits=4):
    theta = [Parameter(f"t{i}") for i in range(n_qubits * 2)]
    builder = CircuitBuilder(n_qubits)
    index = 0
    for qubit in range(n_qubits):
        builder.ry(qubit, theta[index])
        index += 1
    for qubit in range(n_qubits - 1):
        builder.cx(qubit, qubit + 1)
    for qubit in range(n_qubits):
        builder.rz(qubit, theta[index])
        index += 1
    builder.cphase(0, n_qubits - 1, theta[0] * 2.0)
    return builder.build()


def test_parametric_rebind_matches_fresh_binding():
    circuit = parametric_ansatz(4)
    plan = compile_parametric_plan(circuit, 4)
    rng = np.random.default_rng(5)
    for _ in range(4):
        values = [float(v) for v in rng.uniform(-np.pi, np.pi, 8)]
        bound = plan.bind(values)
        got = bound.execute(bound.new_state())
        expected = StateVector(4).apply_circuit(circuit, values).data
        assert np.allclose(got, expected, atol=1e-12)


def test_parametric_bind_accepts_mapping_and_validates_length():
    circuit = CircuitBuilder(2).rx(0, Parameter("a")).ry(1, Parameter("b")).build()
    plan = compile_parametric_plan(circuit, 2)
    by_name = plan.bind({"a": 0.3, "b": 0.9})
    by_order = plan.bind([0.3, 0.9])  # sorted-name convention, like bind()
    assert np.allclose(
        by_name.execute(by_name.new_state()), by_order.execute(by_order.new_state())
    )
    with pytest.raises(ExecutionError):
        plan.bind([0.3])
    with pytest.raises(ExecutionError):
        compile_parametric_plan(circuit, 2)._thread_plan().execute(
            np.array([1, 0, 0, 0], dtype=complex)
        )


def test_statevector_run_uses_parametric_plan_cache():
    cache = reset_plan_cache()
    circuit = parametric_ansatz(3)
    values_a = [0.1] * len(circuit.free_parameters)
    values_b = [0.7] * len(circuit.free_parameters)
    StateVector(3).run(circuit, values_a)
    StateVector(3).run(circuit, values_b)
    stats = cache.stats()
    assert stats.misses == 1 and stats.hits == 1
    got = StateVector(3).run(circuit, values_b).data
    expected = StateVector(3).apply_circuit(circuit, values_b).data
    assert np.allclose(got, expected, atol=1e-12)


# ---------------------------------------------------------------------------
# Plan cache
# ---------------------------------------------------------------------------


class TestPlanCache:
    def test_hit_on_identical_content_different_name(self):
        cache = PlanCache(capacity=4)
        a = CircuitBuilder(2, name="one").h(0).cx(0, 1).build()
        b = CircuitBuilder(2, name="two").h(0).cx(0, 1).build()
        plan_a, hit_a = cache.lookup_or_compile(a)
        plan_b, hit_b = cache.lookup_or_compile(b)
        assert (hit_a, hit_b) == (False, True)
        assert plan_a is plan_b

    def test_distinct_width_and_optimize_are_distinct_entries(self):
        cache = PlanCache(capacity=8)
        circuit = CircuitBuilder(2).h(0).build()
        cache.lookup_or_compile(circuit, 2)
        _, hit_wider = cache.lookup_or_compile(circuit, 3)
        _, hit_unopt = cache.lookup_or_compile(circuit, 2, optimize=False)
        assert not hit_wider and not hit_unopt
        assert len(cache) == 3

    def test_lru_eviction(self):
        cache = PlanCache(capacity=2)
        circuits = [CircuitBuilder(1).rx(0, 0.1 * (i + 1)).build() for i in range(3)]
        for circuit in circuits:
            cache.lookup_or_compile(circuit)
        assert len(cache) == 2
        assert cache.stats().evictions == 1
        # circuit 0 was evicted; circuits 1 and 2 still hit
        _, hit = cache.lookup_or_compile(circuits[0])
        assert not hit
        _, hit = cache.lookup_or_compile(circuits[2])
        assert hit

    def test_mutating_a_circuit_invalidates_the_memoised_hash(self):
        cache = PlanCache(capacity=4)
        circuit = CircuitBuilder(2, name="grow").h(0).build()
        cache.lookup_or_compile(circuit)
        circuit.add(G.CX([0, 1]))
        _, hit = cache.lookup_or_compile(circuit)
        assert not hit

    def test_capacity_validation_and_reset(self):
        with pytest.raises(ExecutionError):
            PlanCache(0)
        cache = reset_plan_cache(capacity=7)
        assert get_plan_cache() is cache
        assert cache.capacity == 7


# ---------------------------------------------------------------------------
# Accelerator integration: identical counts, cached plans
# ---------------------------------------------------------------------------


class TestAcceleratorPlans:
    def _counts(self, circuit, width, options, shots=256, seed=99):
        set_config(seed=seed)
        buffer = AcceleratorBuffer(width)
        QppAccelerator(options).execute(buffer, circuit, shots=shots)
        return buffer.get_measurement_counts(), buffer.information

    @pytest.mark.parametrize(
        "name",
        ["bell", "ghz", "qft", "shor", "vqe"],
    )
    def test_plan_counts_identical_to_gate_by_gate(self, name):
        shor = period_finding_circuit(15, 2)
        vqe = deuteron_ansatz_circuit(0.297)
        suite = {
            "bell": (bell_circuit(2), 2),
            "ghz": (ghz_circuit(4), 4),
            "qft": (qft_circuit(5), 5),
            "shor": (shor, shor.n_qubits),
            "vqe": (vqe, max(vqe.n_qubits, 2)),
        }
        circuit, width = suite[name]
        planned, info = self._counts(circuit, width, {})
        reference, optimized = reference_counts(circuit, width, 256, 99)
        assert planned == reference
        assert info["circuit-depth"] == optimized.depth()
        assert info["circuit-gates"] == optimized.n_gates

    def test_repeat_executions_hit_the_plan_cache(self):
        reset_plan_cache()
        accelerator = QppAccelerator()
        circuit = bell_circuit(2)
        _, first = self._counts(circuit, 2, {})
        set_config(seed=1)
        buffer = AcceleratorBuffer(2)
        accelerator.execute(buffer, circuit, shots=16)
        assert first["plan-cached"] is False
        assert buffer.information["plan-cached"] is True

    def test_trajectory_counts_identical_with_resets(self):
        circuit = (
            CircuitBuilder(3).h(0).cx(0, 1).reset(1).ry(2, 0.8).measure(0).measure(1).measure(2).build()
        )
        planned, _ = self._counts(circuit, 3, {"threads": 2})
        reference, _ = reference_counts(circuit, 3, 256, 99, threads=2)
        assert planned == reference


# ---------------------------------------------------------------------------
# Engine pool reuse (satellite)
# ---------------------------------------------------------------------------


class TestEnginePoolReuse:
    """Pool lifecycle, driven through the two entry points that need worker
    threads: multi-chunk trajectories at the hand-off band's upper edge
    (below it the chunks run inline and no pool exists, which is why these
    tests moved off their 1-qubit circuit) and chunked plan replay."""

    WIDTH = HANDOFF_BAND_STOP.bit_length() - 1
    RESET_CIRCUIT = CircuitBuilder(WIDTH).h(0).reset(0).measure(0).build()

    @staticmethod
    def _chunked_replay(engine):
        plan = compile_plan(bell_circuit(2), 2, chunk_threshold=2)
        return StateVector(2).apply_plan(plan, pool=engine)

    def test_pool_is_reused_across_calls(self):
        engine = ParallelSimulationEngine(num_threads=3)
        assert engine._pool is None  # lazily created
        engine.run_trajectories(self.WIDTH, self.RESET_CIRCUIT, shots=8, seed=1)
        pool = engine._pool
        assert pool is not None
        engine.run_trajectories(self.WIDTH, self.RESET_CIRCUIT, shots=8, seed=2)
        assert engine._pool is pool
        self._chunked_replay(engine)
        assert engine._pool is pool
        engine.close()
        assert engine._pool is None

    def test_close_then_reuse_builds_a_fresh_pool(self):
        engine = ParallelSimulationEngine(num_threads=2)
        engine.run_trajectories(self.WIDTH, self.RESET_CIRCUIT, shots=64, seed=0)
        engine.close()
        counts = engine.run_trajectories(self.WIDTH, self.RESET_CIRCUIT, shots=64, seed=0)
        assert engine._pool is not None
        assert sum(counts.values()) == 64
        engine.close()

    def test_context_manager_tears_the_pool_down(self):
        with ParallelSimulationEngine(num_threads=2) as engine:
            self._chunked_replay(engine)
            assert engine._pool is not None
        assert engine._pool is None

    def test_pool_grows_when_more_workers_needed(self):
        engine = ParallelSimulationEngine(num_threads=2)
        engine.run_trajectories(self.WIDTH, self.RESET_CIRCUIT, shots=10, seed=1)
        small = engine._pool
        engine.num_threads = 5
        engine.run_trajectories(self.WIDTH, self.RESET_CIRCUIT, shots=10, seed=1)
        assert engine._pool is not small
        assert engine._pool_size == 5
        engine.close()
