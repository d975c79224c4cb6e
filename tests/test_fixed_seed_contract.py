"""The fixed-seed contract as one property: ``threads`` never moves a
job's counts, and no dispatch shape starts a process.

A job's shots are one draw on one generator (``SAMPLING_STREAM`` 4), so
every dense lane — :class:`~repro.exec.backend.LocalBackend`, the qpp
accelerator, :class:`~repro.exec.sharded.ShardedExecutor` (a name kept
over the local lane) and the job broker — returns byte-identical counts at
every ``threads`` ∈ {1, 2, 3}.  Each (job, threads, lane) is its own row,
so a failure names the lane that drifted.  The recorded digests are the
one-thread counts of the commit before stream 4 (one thread drew one chunk
there, so it drew this stream), which makes each row fail wherever a split
of the shots survives.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing

import pytest

from repro.algorithms.bell import bell_circuit
from repro.algorithms.ghz import ghz_circuit
from repro.algorithms.qft import qft_circuit
from repro.algorithms.shor import period_finding_circuit
from repro.algorithms.vqe import deuteron_ansatz_circuit
from repro.benchmark.workloads import figure3_workload
from repro.config import set_config
from repro.core.executor import run_parallel
from repro.exec import LocalBackend, ShardedExecutor
from repro.ir.builder import CircuitBuilder
from repro.ir.parameter import Parameter
from repro.runtime.buffer import AcceleratorBuffer
from repro.runtime.qpp_accelerator import QppAccelerator
from repro.service import QuantumJobService
from repro.simulator.parallel_engine import ParallelSimulationEngine
from repro.simulator.sampling import SAMPLING_STREAM

SEED = 2024


def digest(counts) -> str:
    items = json.dumps(sorted(counts.items()), separators=(",", ":"))
    return hashlib.sha256(items.encode()).hexdigest()[:16]


def dense(n_qubits: int, measured=None):
    builder = CircuitBuilder(n_qubits, name=f"contract_dense_{n_qubits}")
    for layer in range(2):
        for qubit in range(n_qubits):
            builder.ry(qubit, 0.41 * (qubit + 1) + 0.63 * layer)
        for qubit in range(n_qubits - 1):
            builder.cx(qubit, qubit + 1)
    if measured is None:
        return builder.measure_all().build()
    for qubit in measured:
        builder.measure(qubit)
    return builder.build()


def reset_job(n_qubits: int = 5):
    builder = CircuitBuilder(n_qubits, name=f"contract_reset_{n_qubits}")
    last = n_qubits - 1
    for qubit in range(n_qubits):
        builder.ry(qubit, 0.3 + 0.2 * qubit)
    for qubit in range(last):
        builder.cx(qubit, qubit + 1)
    builder.reset(last).h(last).cx(last, 0).reset(2).ry(2, 0.7)
    return builder.measure_all().build()


def ansatz():
    builder = CircuitBuilder(4, name="contract_ansatz")
    for qubit in range(4):
        builder.ry(qubit, Parameter(f"t{qubit}"))
    for qubit in range(3):
        builder.cx(qubit, qubit + 1)
    return builder.measure_all().build()


#: The sweep row under test: binding 1 of these, as a member of the sweep.
BINDINGS = ([0.1, 0.9, 1.7, 2.5], [1.3, 0.4, 2.2, 0.8], [2.0, 2.0, 0.5, 0.5])

#: job -> (circuit factory, shots, options).  ``dense`` draws by
#: ``multinomial``, ``wide`` by inverse CDF (1 024 bins, 300 shots),
#: ``partial`` measures three of seven qubits out of order, ``single``
#: replays in complex64, ``reset`` and ``reset-wide`` walk a branch tree
#: (``multinomial`` and inverse-CDF leaves), ``sweep`` is a sweep row of a
#: parametric plan; the rest are the paper's and the algorithm suite's
#: kernels.
JOBS = {
    "bell": (lambda: bell_circuit(2), 512, {}),
    "dense": (lambda: dense(6), 1000, {}),
    "ghz": (lambda: ghz_circuit(5), 512, {}),
    "partial": (lambda: dense(7, measured=(5, 1, 3)), 700, {}),
    "qft": (lambda: qft_circuit(4), 512, {}),
    "reset": (reset_job, 400, {}),
    "reset-wide": (lambda: reset_job(10), 200, {}),
    "shor": (lambda: period_finding_circuit(7, 2), 512, {}),
    "single": (lambda: dense(6), 1000, {"precision": "single"}),
    "sweep": (ansatz, 500, {}),
    "vqe": (lambda: deuteron_ansatz_circuit(0.59), 512, {}),
    "wide": (lambda: dense(10), 300, {}),
}

#: One-thread ``LocalBackend`` counts at the commit before stream 4.
RECORDED = {
    "bell": "371010c87ffbdb02",
    "dense": "68735984369fa30a",
    "ghz": "7b6ac2ee17d3901d",
    "partial": "397884340d23bbda",
    "qft": "b333e23b9b7a3377",
    "reset": "5fa128f231360a89",
    "reset-wide": "52028b23a74b2377",
    "shor": "3588e85b22a2cbd3",
    "single": "68735984369fa30a",  # complex64 replay samples the same counts here
    "sweep": "754a0761d950af69",
    "vqe": "23c95bb925d99244",
    "wide": "8eea0bfd542ab99f",
}


def backend_counts(backend, job: str) -> dict:
    factory, shots, options = JOBS[job]
    circuit = factory()
    if job == "sweep":
        rows = backend.execute_sweep(circuit, BINDINGS, shots, seed=SEED, **options)
        return dict(rows[1].counts)
    return dict(backend.execute(circuit, shots, seed=SEED, **options).counts)


def accelerator_counts(job: str, options: dict) -> dict:
    factory, shots, job_options = JOBS[job]
    circuit = factory()
    if job == "sweep":
        circuit = circuit.bind(BINDINGS[1])
    set_config(seed=SEED)
    buffer = AcceleratorBuffer(circuit.n_qubits)
    QppAccelerator({**options, **job_options}).execute(buffer, circuit, shots=shots)
    return buffer.get_measurement_counts()


def local_counts(job: str, threads: int) -> dict:
    with LocalBackend(engine=ParallelSimulationEngine(num_threads=threads)) as local:
        return backend_counts(local, job)


def sharded_counts(job: str, threads: int) -> dict:
    with ShardedExecutor(threads, name="contract") as sharded:
        return backend_counts(sharded, job)


def broker_counts(job: str, threads: int) -> dict:
    """Counts served by a fresh broker on the dense lane (``method``
    ``statevector``: the Clifford jobs would otherwise go to the tableau,
    whose sampler draws a different stream)."""
    factory, shots, options = JOBS[job]
    circuit = factory()
    set_config(seed=SEED)
    backend_options = {"threads": threads, "method": "statevector", **options}
    with QuantumJobService(
        workers=2, backend_options=backend_options, name="contract"
    ) as service:
        if job == "sweep":
            rows = service.submit_sweep(circuit, BINDINGS, shots=shots).result(timeout=60)
            return dict(rows[1].counts)
        return dict(service.submit(circuit, shots=shots).result(timeout=60).counts)


#: lane -> ``(job, threads) -> counts``.
LANES = {
    "broker": broker_counts,
    "local": local_counts,
    "qpp": lambda job, threads: accelerator_counts(job, {"threads": threads}),
    "sharded": sharded_counts,
}


@pytest.mark.parametrize("lane", sorted(LANES))
@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("job", sorted(JOBS))
def test_counts_are_byte_identical_at_every_threads_setting(job, threads, lane):
    assert SAMPLING_STREAM == 4
    counts = LANES[lane](job, threads)
    assert digest(counts) == RECORDED[job]
    assert sum(counts.values()) == JOBS[job][1]


def test_no_process_is_ever_started():
    """The retired process lane's name, a broker batch and the paper's
    parallel variant all run in this process, and the name's fixed-seed
    counts are the local lane's, byte for byte."""
    executor = ShardedExecutor(2, name="no-process")
    try:
        executor.compile(JOBS["dense"][0]())
        sharded = {job: backend_counts(executor, job) for job in sorted(JOBS)}
        assert multiprocessing.active_children() == []
    finally:
        executor.close()
    with LocalBackend() as local:
        assert sharded == {job: backend_counts(local, job) for job in sorted(JOBS)}
    with QuantumJobService(workers=2, name="no-process") as service:
        handles = [service.submit(JOBS[job][0](), shots=64) for job in ("bell", "ghz", "qft")]
        assert [h.result(timeout=30).total_counts() for h in handles] == [64] * 3
        assert multiprocessing.active_children() == []
    run_parallel(figure3_workload().tasks, 2)
    assert multiprocessing.active_children() == []
