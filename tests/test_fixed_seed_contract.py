"""The fixed-seed contract as one property: ``threads`` and ``processes``
never move a job's counts.

A job's shots are one draw on one generator (``SAMPLING_STREAM`` 4), so
every lane — :class:`~repro.exec.backend.LocalBackend`, the qpp
accelerator, :class:`~repro.exec.sharded.ShardedExecutor` on the job's
content-affine shard or on a pinned one — returns byte-identical counts at
every ``threads`` ∈ {1, 2, 3} × ``processes`` ∈ {0, 2}.  The recorded
digests are the one-thread counts of the commit before stream 4 (one
thread drew one chunk there, so it drew this stream), which makes each row
fail wherever a split of the shots survives.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.algorithms.bell import bell_circuit
from repro.algorithms.ghz import ghz_circuit
from repro.algorithms.qft import qft_circuit
from repro.algorithms.shor import period_finding_circuit
from repro.algorithms.vqe import deuteron_ansatz_circuit
from repro.config import set_config
from repro.exec import LocalBackend, ShardedExecutor, shutdown_sharded_executors
from repro.ir.builder import CircuitBuilder
from repro.ir.parameter import Parameter
from repro.runtime.buffer import AcceleratorBuffer
from repro.runtime.qpp_accelerator import QppAccelerator
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


@pytest.fixture(scope="module")
def sharded2():
    with ShardedExecutor(2, name="contract") as executor:
        yield executor
    shutdown_sharded_executors()


def backend_counts(backend, job: str, **kwargs) -> dict:
    factory, shots, options = JOBS[job]
    circuit = factory()
    if job == "sweep":
        rows = backend.execute_sweep(circuit, BINDINGS, shots, seed=SEED, **options)
        return dict(rows[1].counts)
    return dict(backend.execute(circuit, shots, seed=SEED, **options, **kwargs).counts)


def accelerator_counts(job: str, options: dict) -> dict:
    factory, shots, job_options = JOBS[job]
    circuit = factory()
    if job == "sweep":
        circuit = circuit.bind(BINDINGS[1])
    set_config(seed=SEED)
    buffer = AcceleratorBuffer(circuit.n_qubits)
    QppAccelerator({**options, **job_options}).execute(buffer, circuit, shots=shots)
    return buffer.get_measurement_counts()


def lanes(job: str, threads: int, processes: int, sharded2) -> dict[str, dict]:
    """Every lane's counts for ``job`` at one (threads, processes) setting."""
    if processes == 0:
        with LocalBackend(engine=ParallelSimulationEngine(num_threads=threads)) as local:
            counts = {"local": backend_counts(local, job)}
        counts["qpp"] = accelerator_counts(job, {"threads": threads})
        return counts
    counts = {
        "qpp": accelerator_counts(job, {"threads": threads, "processes": processes}),
        "sharded": backend_counts(sharded2, job),
    }
    if job != "sweep":  # a sweep fans its bindings over the shards itself
        for shard in range(sharded2.processes):
            counts[f"sharded-pinned{shard}"] = backend_counts(sharded2, job, shard=shard)
    return counts


@pytest.mark.parametrize("processes", [0, 2])
@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("job", sorted(JOBS))
def test_counts_are_byte_identical_at_every_threads_and_processes(
    job, threads, processes, sharded2
):
    assert SAMPLING_STREAM == 4
    counts = lanes(job, threads, processes, sharded2)
    assert {lane: digest(c) for lane, c in counts.items()} == {
        lane: RECORDED[job] for lane in counts
    }
    assert all(sum(c.values()) == JOBS[job][1] for c in counts.values())
