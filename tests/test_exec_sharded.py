"""Tests for ``ShardedExecutor``, the name kept over in-process execution.

The process lane it named was retired (``BENCH_dispatch_grid.json``); the
name is a :class:`~repro.exec.backend.LocalBackend` owning an engine on
``processes`` threads.  What stays load-bearing is *deterministic
results*: with a fixed seed its counts are bit-identical to the in-process
path (``test_fixed_seed_contract.py`` holds that across threads and checks
that no process is ever started).
"""

import numpy as np
import pytest

from repro.algorithms.bell import bell_circuit
from repro.algorithms.ghz import ghz_circuit
from repro.algorithms.qft import qft_circuit
from repro.algorithms.shor import period_finding_circuit
from repro.algorithms.vqe import deuteron_ansatz_circuit, deuteron_hamiltonian
from repro.exceptions import ExecutionError
from repro.exec import ExecutionResult, LocalBackend, ShardedExecutor
from repro.ir import gates as G
from repro.ir.composite import CompositeInstruction
from repro.simulator.parallel_engine import ParallelSimulationEngine


def algorithm_suite():
    return {
        "bell": bell_circuit(2),
        "ghz": ghz_circuit(5),
        "qft": qft_circuit(4),
        "shor": period_finding_circuit(7, 2),
        "vqe": deuteron_ansatz_circuit(0.59),
    }


def random_circuit(rng, n_qubits, length):
    """Random mix over every kernel class, with all qubits measured."""
    circuit = CompositeInstruction("random", n_qubits)
    for _ in range(length):
        choice = int(rng.integers(0, 6))
        qs = [int(q) for q in rng.permutation(n_qubits)]
        if choice == 0:
            circuit.add(G.H([qs[0]]))
        elif choice == 1:
            circuit.add(G.RY([qs[0]], [float(rng.uniform(-3, 3))]))
        elif choice == 2:
            circuit.add(G.CX([qs[0], qs[1]]))
        elif choice == 3:
            circuit.add(G.CPhase([qs[0], qs[1]], [float(rng.uniform(-3, 3))]))
        elif choice == 4:
            circuit.add(G.Swap([qs[0], qs[1]]))
        else:
            circuit.add(G.T([qs[0]]))
    for q in range(n_qubits):
        circuit.add(G.Measure([q]))
    return circuit


@pytest.fixture(scope="module")
def sharded2():
    executor = ShardedExecutor(2, name="test-shard")
    yield executor
    executor.close()


class TestDeterministicEquivalence:
    @pytest.mark.parametrize("algorithm", ["bell", "qft", "vqe"])
    def test_counts_match_single_thread_engine(self, sharded2, algorithm):
        circuit = algorithm_suite()[algorithm]
        local = LocalBackend(engine=ParallelSimulationEngine(num_threads=1))
        reference = local.execute(circuit, 256, seed=77)
        sharded = sharded2.execute(circuit, 256, seed=77)
        assert isinstance(sharded, ExecutionResult)
        assert dict(sharded.counts) == dict(reference.counts)

    def test_randomized_circuits_fixed_seed_equivalence(self, sharded2):
        rng = np.random.default_rng(2026)
        local = LocalBackend(engine=ParallelSimulationEngine(num_threads=2))
        for trial in range(4):
            circuit = random_circuit(rng, 5, 20)
            seed = int(rng.integers(0, 2**31))
            reference = local.execute(circuit, 128, seed=seed)
            sharded = sharded2.execute(circuit, 128, seed=seed)
            assert dict(sharded.counts) == dict(reference.counts), f"trial {trial}"

    def test_expectation_bit_identical(self, sharded2):
        ansatz = deuteron_ansatz_circuit(0.59).without_measurements()
        observable = deuteron_hamiltonian()
        local = LocalBackend().expectation(ansatz, observable)
        remote = sharded2.expectation(ansatz, observable)
        assert remote == local  # exact float equality, not approx

    def test_parametric_execution(self, sharded2):
        ansatz = deuteron_ansatz_circuit()  # symbolic
        local = LocalBackend(engine=ParallelSimulationEngine(num_threads=2))
        reference = local.execute(ansatz, 256, seed=5, params=[0.59])
        sharded = sharded2.execute(ansatz, 256, seed=5, params=[0.59])
        assert dict(sharded.counts) == dict(reference.counts)
        with pytest.raises(ExecutionError, match="unbound"):
            sharded2.execute(ansatz, 16, seed=5)


class TestLifecycle:
    def test_engine_runs_processes_threads(self):
        with ShardedExecutor(3, name="threads") as executor:
            assert executor.processes == 3
            assert executor.engine.num_threads == 3

    def test_close_is_idempotent(self):
        executor = ShardedExecutor(2, name="lifecycle")
        executor.close()
        executor.close()

    def test_context_manager_runs_and_closes(self):
        with ShardedExecutor(1, name="ctx") as executor:
            assert executor.execute(bell_circuit(2), 8, seed=0).total_counts() == 8

    def test_invalid_construction(self):
        with pytest.raises(ExecutionError):
            ShardedExecutor(0)
