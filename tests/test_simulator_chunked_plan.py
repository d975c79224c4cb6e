"""Chunk-parallel plan replay and diagonal-batch fusion.

The two contracts under test:

* **Chunked == serial, bitwise** — ``ExecutionPlan.execute(pool=...)`` must
  produce bit-for-bit the amplitudes of the serial replay for every kernel
  class, every worker count, and targets whose stride spans chunk edges
  (high-qubit targets force the column/assignment split paths).
* **Diagonal batching is distribution-equivalent** — collapsing adjacent
  diagonal runs reassociates products (ulp-level amplitude shifts are
  allowed) but must stay within 1e-12 of the unbatched plan and preserve
  fixed-seed counts across the in-process and sharded backends.
"""

import numpy as np
import pytest

from repro.algorithms.bell import bell_circuit
from repro.algorithms.ghz import ghz_circuit
from repro.algorithms.qft import qft_circuit
from repro.algorithms.shor import period_finding_circuit
from repro.algorithms.vqe import deuteron_ansatz_circuit
from repro.exec import LocalBackend, ShardedExecutor
from repro.ir import gates as G
from repro.ir.builder import CircuitBuilder
from repro.ir.composite import CompositeInstruction
from repro.simulator.execution_plan import (
    DEFAULT_CHUNK_THRESHOLD,
    DEFAULT_DIAGONAL_BATCH_MAX_QUBITS,
    compile_parametric_plan,
    compile_plan,
)
from repro.simulator.parallel_engine import ParallelSimulationEngine
from repro.simulator.statevector import StateVector


def random_unitary(rng, k):
    dim = 1 << k
    matrix = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(matrix)
    return q


def random_circuit(rng, n_qubits, length):
    """Random mix hitting every kernel class (mirrors the execution-plan
    tests), biased to also target the *highest* qubit so chunk splits must
    handle strides spanning chunk edges."""
    circuit = CompositeInstruction("random", n_qubits)
    fixed_1q = [G.H, G.X, G.Y, G.Z, G.S, G.T, G.Identity]
    top = n_qubits - 1
    for i in range(length):
        choice = rng.integers(0, 10)
        qs = [int(q) for q in rng.permutation(n_qubits)]
        if i % 4 == 0 and qs[0] != top:
            # Force regular coverage of the top qubit (stride = half state).
            qs.remove(top)
            qs.insert(0, top)
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


@pytest.fixture
def engine():
    with ParallelSimulationEngine(num_threads=3) as eng:
        yield eng


# ---------------------------------------------------------------------------
# Chunked replay == serial replay, bitwise
# ---------------------------------------------------------------------------


class TestChunkedBitwiseIdentity:
    @pytest.mark.parametrize("workers", [2, 3, 4, 5])
    def test_randomized_circuits_all_kernels(self, workers):
        rng = np.random.default_rng(20260728 + workers)
        with ParallelSimulationEngine(num_threads=workers) as eng:
            for _ in range(6):
                n_qubits = int(rng.integers(4, 8))
                circuit = random_circuit(rng, n_qubits, int(rng.integers(8, 30)))
                plan = compile_plan(circuit, n_qubits, chunk_threshold=2)
                serial = plan.execute(plan.new_state())
                chunked = plan.execute(plan.new_state(), pool=eng)
                assert np.array_equal(serial, chunked)

    def test_stride_spans_chunk_edge(self, engine):
        """Targets on the top qubit: rows collapse to 1, so the single-qubit
        kernel must column-split and the dense/controlled kernels must pick
        free axes below the target."""
        n = 6
        circuit = CompositeInstruction("edge", n)
        circuit.add(G.H([n - 1]))
        circuit.add(G.RZ([n - 1], [0.7]))
        circuit.add(G.CX([n - 1, 0]))
        circuit.add(G.CH([n - 1, n - 2]))
        circuit.add(G.ISwap([0, n - 1]))
        circuit.add(G.CPhase([n - 2, n - 1], [0.3]))
        circuit.add(G.PermutationGate([1, 0, 3, 2], [n - 2, n - 1]))
        plan = compile_plan(circuit, n, optimize=False, chunk_threshold=2)
        serial = plan.execute(plan.new_state())
        chunked = plan.execute(plan.new_state(), pool=engine)
        assert np.array_equal(serial, chunked)

    def test_chunked_from_random_input_state(self, engine):
        rng = np.random.default_rng(11)
        n = 7
        circuit = random_circuit(rng, n, 25)
        plan = compile_plan(circuit, n, chunk_threshold=2)
        state = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        state /= np.linalg.norm(state)
        serial = plan.execute(state.copy())
        chunked = plan.execute(state.copy(), pool=engine)
        assert np.array_equal(serial, chunked)

    def test_below_threshold_states_stay_serial(self, engine):
        plan = compile_plan(bell_circuit(2), 2)  # default threshold = 2^16
        assert plan.chunk_threshold == DEFAULT_CHUNK_THRESHOLD
        # No chunk program is ever built for sub-threshold states.
        plan.execute(plan.new_state(), pool=engine)
        assert plan._chunk_programs == {}

    def test_parametric_plans_chunk_after_rebinding(self, engine):
        ansatz = deuteron_ansatz_circuit().without_measurements()
        parametric = compile_parametric_plan(ansatz, 2, chunk_threshold=2)
        for theta in (0.1, 0.59, -1.3):
            plan = parametric.bind([theta])
            serial = plan.execute(plan.new_state())
            plan = parametric.bind([theta])
            chunked = plan.execute(plan.new_state(), pool=engine)
            assert np.array_equal(serial, chunked)

    def test_trajectories_with_reset_fixed_seed_identity(self):
        builder = CircuitBuilder(4, name="reset_chunked")
        builder.h(0)
        builder.cx(0, 1)
        builder.reset(1)
        builder.cphase(1, 2, 0.5)
        builder.cphase(2, 3, 0.25)
        builder.h(3)
        for q in range(4):
            builder.measure(q)
        circuit = builder.build()
        with ParallelSimulationEngine(num_threads=1) as eng:
            serial = eng.run_trajectories(4, circuit, 64, seed=9)
        # chunk_threshold is compiled into the plan, so exercise the chunked
        # trajectory path through a low-threshold plan + single-chunk engine.
        plan = compile_plan(circuit, 4, optimize=False, chunk_threshold=2)
        with ParallelSimulationEngine(num_threads=3) as eng:
            from repro.simulator.parallel_engine import BranchTree, replay_trajectory_chunk

            rng = np.random.default_rng(np.random.SeedSequence(9).spawn(1)[0])
            tree = BranchTree(plan, circuit.measured_qubits(), 4, pool=eng)
            chunked = replay_trajectory_chunk(tree, 64, rng)
        assert serial == chunked


# ---------------------------------------------------------------------------
# Diagonal batching
# ---------------------------------------------------------------------------


class TestDiagonalBatching:
    def test_qft_step_count_shrinks(self):
        unbatched = compile_plan(qft_circuit(8), 8, batch_diagonals=False)
        batched = compile_plan(qft_circuit(8), 8)
        assert batched.n_steps < unbatched.n_steps
        assert batched.batched_diagonals > 0
        assert unbatched.batched_diagonals == 0

    @pytest.mark.parametrize(
        "name,circuit,width",
        [
            ("qft", qft_circuit(6), 6),
            ("shor", period_finding_circuit(15, 2), None),
            ("vqe", deuteron_ansatz_circuit(0.59), 2),
        ],
    )
    def test_algorithm_equivalence(self, name, circuit, width):
        n = width if width is not None else circuit.n_qubits
        unbatched = compile_plan(circuit, n, batch_diagonals=False)
        batched = compile_plan(circuit, n)
        a = unbatched.execute(unbatched.new_state())
        b = batched.execute(batched.new_state())
        assert np.allclose(a, b, atol=1e-12)

    def test_randomized_equivalence_on_generic_states(self):
        rng = np.random.default_rng(77)
        for _ in range(8):
            n = int(rng.integers(3, 7))
            circuit = random_circuit(rng, n, 30)
            unbatched = compile_plan(circuit, n, batch_diagonals=False)
            batched = compile_plan(circuit, n)
            state = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            state /= np.linalg.norm(state)
            a = unbatched.execute(state.copy())
            b = batched.execute(state.copy())
            assert np.allclose(a, b, atol=1e-12)

    def test_union_capped_at_max_qubits(self):
        n = 10
        circuit = CompositeInstruction("ladder", n)
        for q in range(n - 1):
            circuit.add(G.CPhase([q, q + 1], [0.1 * (q + 1)]))
        plan = compile_plan(circuit, n, optimize=False)
        for step in plan.steps:
            assert len(step.targets) <= DEFAULT_DIAGONAL_BATCH_MAX_QUBITS
        assert plan.n_steps < n - 1  # runs did merge
        unbatched = compile_plan(circuit, n, optimize=False, batch_diagonals=False)
        assert np.allclose(
            plan.execute(plan.new_state()),
            unbatched.execute(unbatched.new_state()),
            atol=1e-12,
        )

    def test_parametric_diagonals_not_merged(self):
        """Symbolic RZ/CPHASE steps must keep their own rebindable steps."""
        from repro.ir.parameter import Parameter

        theta = Parameter("theta")
        n = 3
        circuit = CompositeInstruction("sym", n)
        circuit.add(G.S([0]))
        circuit.add(G.RZ([0], [theta]))
        circuit.add(G.T([0]))
        parametric = compile_parametric_plan(circuit, n, optimize=False)
        plan = parametric.bind({"theta": 0.9})
        bound = circuit.bind({"theta": 0.9})
        expected = StateVector(n).apply_circuit(bound).data
        got = plan.execute(plan.new_state())
        assert np.allclose(got, expected, atol=1e-12)
        # Rebinding again still works (the parametric step was untouched).
        plan = parametric.bind({"theta": -0.4})
        bound = circuit.bind({"theta": -0.4})
        assert np.allclose(
            plan.execute(plan.new_state()),
            StateVector(n).apply_circuit(bound).data,
            atol=1e-12,
        )

    def test_single_diagonals_unbatched_stay_bitwise_exact(self):
        """A lone diagonal step (no adjacent run) is never rewritten, so the
        plan stays bit-identical to the gate-by-gate path."""
        circuit = CircuitBuilder(3).h(0).cphase(0, 1, 0.4).h(1).build()
        plan = compile_plan(circuit, 3, optimize=False)
        naive = StateVector(3)
        for inst in circuit:
            if not inst.is_measurement:
                naive.apply(inst)
        assert np.array_equal(plan.execute(plan.new_state()), naive.data)


# ---------------------------------------------------------------------------
# Fixed-seed counts identity: chunked + sharded + batched
# ---------------------------------------------------------------------------


def algorithm_suite():
    shor = period_finding_circuit(15, 2)
    vqe = deuteron_ansatz_circuit(0.59)
    return {
        "bell": (bell_circuit(2), 2),
        "ghz": (ghz_circuit(5), 5),
        "qft": (qft_circuit(6), 6),
        "shor": (shor, shor.n_qubits),
        "vqe": (vqe, max(vqe.n_qubits, 2)),
    }


class TestShardedChunkedCountsIdentity:
    def test_fixed_seed_counts_identical_local_vs_sharded_chunked(self):
        """Chunk-parallel replay inside shard workers must not move a single
        count: low thresholds force chunking wherever the worker has more
        than one thread, and chunked == serial bitwise keeps the histograms
        frozen."""
        local = LocalBackend(engine=ParallelSimulationEngine(num_threads=2))
        with ShardedExecutor(2, name="chunk-identity") as sharded:
            for name, (circuit, width) in algorithm_suite().items():
                reference = local.execute(
                    circuit, 256, n_qubits=width, seed=4242, chunk_threshold=2
                )
                result = sharded.execute(
                    circuit, 256, n_qubits=width, seed=4242, chunk_threshold=2
                )
                assert dict(result.counts) == dict(reference.counts), name
        local.close()

    def test_local_chunked_counts_match_unchunked(self):
        """Same engine threads (sampling streams are per-thread-count), so
        the only difference is whether the replay chunks — which must not
        move a single count."""
        backend = LocalBackend(engine=ParallelSimulationEngine(num_threads=3))
        for name, (circuit, width) in algorithm_suite().items():
            unchunked = backend.execute(
                circuit, 512, n_qubits=width, seed=7, chunk_threshold=1 << 30
            )
            chunked = backend.execute(
                circuit, 512, n_qubits=width, seed=7, chunk_threshold=2
            )
            assert dict(unchunked.counts) == dict(chunked.counts), name
        backend.close()
