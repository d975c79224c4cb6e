"""Seed-driven inputs and closed-loop drivers for the six workloads.

Every workload is a class with the same five steps:

``__init__(seed)``   build the single ``numpy`` generator that drives input
                     generation (the program never sees the seed, only the
                     generated circuits, bindings and shot counts);
``prepare()``        set-up a user pays before the first op: construct the
                     service, pre-fill caches, warm lazy pools;
``next_block()``     generate the inputs of the next block (untimed);
``run_block(block)`` run the block closed-loop through the program's public
                     entry points and return what the clients observed;
``close()``          stop every thread and process the workload started.

Blocks of one workload all have the same stratified composition — the same
kinds, widths and shot counts in the same order — so a block costs the same
whatever the seed; the seed only moves angles, graphs and qubit orders.
README.md records why each workload was chosen.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
import zlib
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field

import networkx as nx
import numpy as np

from repro import QuantumJobService, set_config
from repro.algorithms.qaoa import qaoa_circuit
from repro.algorithms.qft import qft_circuit
from repro.benchmark.harness import BenchmarkHarness
from repro.benchmark.workloads import figure3_workload, figure4_workload, figure5_workload
from repro.core.executor import run_parallel
from repro.ir.builder import CircuitBuilder
from repro.ir.parameter import Parameter
from repro.ir.serialization import circuit_content_hash
from repro.operators import X, Z

#: Client threads per workload never exceed the host's cores.
NPROC = os.cpu_count() or 1
#: The program's own sampling seed; fixed so a workload seed only moves inputs.
SAMPLING_SEED = 1234
#: Seconds a client waits for one result before the op counts as failed.
RESULT_TIMEOUT = 120.0


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


@dataclass
class Job:
    """One submission: what the program receives, plus what the oracle needs."""

    circuit: object
    shots: int
    kind: str
    #: Reset-free circuit with the same output distribution (oracle only).
    reference: object | None = None
    #: Exact set of bitstrings the result may contain (oracle only).
    support: tuple[str, ...] | None = None
    #: Deep-check this job against the gate-by-gate reference.
    sampled: bool = False


def _angles(rng: np.random.Generator, n: int) -> list[float]:
    return [float(a) for a in rng.uniform(-np.pi, np.pi, n)]


def ansatz_circuit(rng, n_qubits: int, layers: int, name: str = "ansatz"):
    """Hardware-efficient RY/CX ansatz with random angles, all qubits measured."""
    builder = CircuitBuilder(n_qubits, name=name)
    for _ in range(layers):
        for qubit, angle in enumerate(_angles(rng, n_qubits)):
            builder.ry(qubit, angle)
        for qubit in range(n_qubits - 1):
            builder.cx(qubit, qubit + 1)
    return builder.measure_all().build()


def qaoa_maxcut_circuit(rng, n_qubits: int):
    """QAOA p=1 on a random 3-regular graph (``n_qubits`` must be even)."""
    graph = nx.random_regular_graph(3, n_qubits, seed=int(rng.integers(2**31)))
    gamma, beta = (float(a) for a in rng.uniform(0.0, np.pi, 2))
    builder = CircuitBuilder(n_qubits, name="qaoa")
    builder.append(qaoa_circuit(graph, [gamma], [beta]))
    return builder.measure_all().build()


def qft_behind_ry_circuit(rng, n_qubits: int):
    """A random RY layer (so the input is not |0..0>) followed by the QFT."""
    builder = CircuitBuilder(n_qubits, name="qft_ry")
    for qubit, angle in enumerate(_angles(rng, n_qubits)):
        builder.ry(qubit, angle)
    builder.append(qft_circuit(n_qubits))
    return builder.measure_all().build()


def reset_circuit(rng, n_qubits: int):
    """Mid-circuit-reset circuit with a known reset-free equivalent.

    The last qubit is put in |+>, reset, then used as a CX target.  It is in
    a product state when reset, so both reset outcomes leave the same state
    and the output distribution equals that of the circuit without the H
    and the RESET — which the oracle evolves gate by gate.  The program
    still sees a RESET and takes the per-shot trajectory path.
    """
    last = n_qubits - 1
    first, second = _angles(rng, last), _angles(rng, last)

    def build(with_reset: bool):
        builder = CircuitBuilder(n_qubits, name="reset" if with_reset else "reset_ref")
        for qubit, angle in enumerate(first):
            builder.ry(qubit, angle)
        for qubit in range(last - 1):
            builder.cx(qubit, qubit + 1)
        if with_reset:
            builder.h(last).reset(last)
        builder.cx(0, last)
        for qubit, angle in enumerate(second):
            builder.ry(qubit, angle)
        return builder.measure_all().build()

    return build(True), build(False)


def ghz_chain_circuit(rng, n_qubits: int):
    """GHZ state grown along a random qubit order (distinct per job)."""
    order = [int(q) for q in rng.permutation(n_qubits)]
    builder = CircuitBuilder(n_qubits, name="ghz_chain")
    builder.h(order[0])
    for control, target in zip(order[:-1], order[1:]):
        builder.cx(control, target)
    return builder.measure_all().build()


def brickwork_circuit(rng, n_qubits: int, depth: int):
    """Random H/S/CX/CZ brickwork — Clifford, so the tableau runs it."""
    builder = CircuitBuilder(n_qubits, name="brickwork")
    for layer in range(depth):
        for qubit, gate in enumerate(rng.integers(3, size=n_qubits)):
            if gate == 0:
                builder.h(qubit)
            elif gate == 1:
                builder.s(qubit)
        pairs = range(layer % 2, n_qubits - 1, 2)
        for qubit, gate in zip(pairs, rng.integers(2, size=len(pairs))):
            if gate:
                builder.cx(qubit, qubit + 1)
            else:
                builder.cz(qubit, qubit + 1)
    return builder.measure_all().build()


def parametric_ansatz(n_qubits: int, layers: int, closing_layer: bool, name: str):
    """Symbolic RY/CX ansatz; returns (circuit, parameter count)."""
    builder = CircuitBuilder(n_qubits, name=name)
    index = 0
    for layer in range(layers + (1 if closing_layer else 0)):
        for qubit in range(n_qubits):
            builder.ry(qubit, Parameter(f"t{index:03d}"))
            index += 1
        if layer < layers:
            for qubit in range(n_qubits - 1):
                builder.cx(qubit, qubit + 1)
    return builder.measure_all().build(), index


def ising_observable(n_qubits: int, field_strength: float = 0.7):
    """Transverse-field Ising chain: -sum Z_i Z_{i+1} - h sum X_i."""
    observable = -field_strength * X(0)
    for qubit in range(1, n_qubits):
        observable = observable - field_strength * X(qubit)
    for qubit in range(n_qubits - 1):
        observable = observable - Z(qubit) * Z(qubit + 1)
    return observable


# ---------------------------------------------------------------------------
# Closed-loop clients
# ---------------------------------------------------------------------------


@dataclass
class BlockOutcome:
    """What the clients of one block observed."""

    wall_s: float
    cpu_s: float
    attempted: int
    #: Latency (s) of each op that returned a result, in completion order.
    latencies: list[float] = field(default_factory=list)
    #: Ops that raised, timed out or returned a histogram of the wrong size.
    failed: int = 0
    #: (job, counts) pairs kept for the oracle's deep check.
    samples: list[tuple[Job, dict]] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)


@contextmanager
def timed(outcome: BlockOutcome):
    """Time the enclosed block into ``outcome`` (wall and process CPU)."""
    cpu0, wall0 = time.process_time(), time.perf_counter()
    yield
    outcome.wall_s = time.perf_counter() - wall0
    outcome.cpu_s = time.process_time() - cpu0


def _client(service, jobs, window, outcome, lock, start):
    """One closed-loop client: at most ``window`` submissions outstanding.

    A done-callback stamps each completion, so a job that finishes while
    the client is busy with an older one is not charged the client's delay.
    The client consumes every result (sums the histogram) inside the timed
    region, as a caller would.
    """
    pending: deque = deque()
    latencies, samples, errors = [], [], []
    failed = 0

    def finish(entry):
        nonlocal failed
        job, handle, submitted, stamp = entry
        try:
            result = handle.result(timeout=RESULT_TIMEOUT)
            total = sum(result.counts.values())
        except Exception as exc:  # a failed op is counted, never fatal
            failed += 1
            errors.append(f"{job.kind}: {type(exc).__name__}: {exc}")
            return
        if total != job.shots:
            failed += 1
            errors.append(f"{job.kind}: {total} counts for {job.shots} shots")
            return
        latencies.append(stamp[0] - submitted)
        if job.sampled:
            samples.append((job, dict(result.counts)))

    start.wait()
    for job in jobs:
        if len(pending) == window:
            finish(pending.popleft())
        stamp = [0.0]
        submitted = time.perf_counter()
        try:
            handle = service.submit(job.circuit, shots=job.shots)
        except Exception as exc:
            failed += 1
            errors.append(f"{job.kind}: submit {type(exc).__name__}: {exc}")
            continue
        handle.add_done_callback(lambda _h, s=stamp: s.__setitem__(0, time.perf_counter()))
        pending.append((job, handle, submitted, stamp))
    while pending:
        finish(pending.popleft())
    with lock:
        outcome.latencies.extend(latencies)
        outcome.samples.extend(samples)
        outcome.errors.extend(errors)
        outcome.failed += failed


def run_clients(service, jobs, clients: int, window: int) -> BlockOutcome:
    """Run ``jobs`` through ``service`` from ``clients`` closed-loop threads.

    Jobs are dealt round-robin, so each client sees the block's stratified
    mix.  The timed region is barrier-release to last join.
    """
    outcome = BlockOutcome(0.0, 0.0, attempted=len(jobs))
    lock = threading.Lock()
    start = threading.Event()
    threads = [
        threading.Thread(
            target=_client,
            args=(service, jobs[index::clients], window, outcome, lock, start),
            name=f"e2e-client-{index}",
        )
        for index in range(clients)
    ]
    for thread in threads:
        thread.start()
    with timed(outcome):
        start.set()
        for thread in threads:
            thread.join()
    return outcome


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """Common shape of a workload; see the module docstring."""

    name = ""
    #: What one op is (what ``ops_per_s`` and the latencies count).
    op = "job"
    clients = 1
    window = 1

    def __init__(self, seed: int):
        # One generator per workload, decorrelated across workloads by name.
        self.rng = np.random.default_rng([seed, zlib.crc32(self.name.encode())])
        self.service: QuantumJobService | None = None
        self._hashes: list[str] = []
        self._digest_open = True

    # -- inputs --------------------------------------------------------------
    def _record(self, circuits) -> None:
        """Fold generated circuits into the inputs digest (set-up + block 0)."""
        if self._digest_open:
            self._hashes.extend(circuit_content_hash(c) for c in circuits)

    def inputs_digest(self) -> str:
        """Hash of the ordered content hashes of set-up and block-0 inputs.

        Later blocks continue the same generator stream, so two runs whose
        digests agree ran the same inputs for as many blocks as both ran.
        """
        return hashlib.sha256("".join(self._hashes).encode()).hexdigest()[:16]

    # -- lifecycle -------------------------------------------------------------
    def prepare(self) -> None:
        set_config(seed=SAMPLING_SEED)
        self.service = QuantumJobService(workers=2, name=f"e2e-{self.name}")
        self.service.start()

    def next_block(self):
        jobs = self.make_jobs()
        self._record(job.circuit for job in jobs)
        self._digest_open = False
        return jobs

    def make_jobs(self) -> list[Job]:
        raise NotImplementedError

    def run_block(self, block) -> BlockOutcome:
        return run_clients(self.service, block, self.clients, self.window)

    def trace_jobs(self, block) -> list[Job]:
        """The (circuit, shots) jobs the traced run replays level by level."""
        return list(block)

    def uncontended_op_seconds(self, spans, values) -> float:
        """One op's latency with nothing else running — what the traced run
        divides the contended latency by.  ``spans`` maps a layer to the
        durations of this workload's traced ops, ``values`` holds the probe
        metrics.  A broker op is one ``submit -> result``."""
        return sum(spans["service.submit_result"]) / len(spans["service.submit_result"])

    def close(self) -> None:
        if self.service is not None:
            self.service.shutdown()
            self.service = None

    def _submit_all(self, jobs: list[Job]) -> None:
        """Pre-fill helper: run ``jobs`` to completion, failing loudly."""
        for handle in [self.service.submit(j.circuit, shots=j.shots) for j in jobs]:
            handle.result(timeout=RESULT_TIMEOUT)


class PaperKernels(Workload):
    """Figures 3-5 in wall clock: both kernels of each figure in parallel."""

    name = "paper_kernels"
    op = "round"
    rounds_per_block = 50

    def prepare(self) -> None:
        set_config(seed=SAMPLING_SEED)
        self.harness = BenchmarkHarness(mode="real")
        self.figures = [figure3_workload(), figure4_workload(), figure5_workload()]
        for workload in self.figures:
            self._record(workload.circuits())
        for _ in range(3):  # spawn the qcor_async pool, compile the plans
            self._round()

    def _round(self) -> None:
        for workload in self.figures:
            self.harness.run_variant(workload, "parallel", NPROC)

    def next_block(self):
        self._digest_open = False
        return self.rounds_per_block

    def run_block(self, block) -> BlockOutcome:
        outcome = BlockOutcome(0.0, 0.0, attempted=block)
        with timed(outcome):
            for _ in range(block):
                started = time.perf_counter()
                try:
                    self._round()
                except Exception as exc:
                    outcome.failed += 1
                    outcome.errors.append(f"round: {type(exc).__name__}: {exc}")
                    continue
                outcome.latencies.append(time.perf_counter() - started)
        # The harness keeps timings only, so the oracle's histograms come
        # from one untimed round through the function the harness calls.
        for workload in self.figures:
            report = run_parallel(workload.tasks, NPROC)
            for task, result in zip(workload.tasks, report.results):
                bell = task.name.startswith("bell")
                job = Job(task.build_circuit(), task.shots, task.name,
                          support=("00", "11") if bell else None, sampled=True)
                outcome.samples.append((job, dict(result.counts)))
        return outcome

    def trace_jobs(self, block) -> list[Job]:
        return [
            Job(task.build_circuit(), task.shots, task.name)
            for workload in self.figures
            for task in workload.tasks
        ]

    def uncontended_op_seconds(self, spans, values) -> float:
        # A round is six kernels; the bare work under it is what the
        # accelerator spends on them.
        return sum(spans["runtime.qpp_execute"])

    def close(self) -> None:
        pass


class BrokerCold(Workload):
    """Never-repeated mid-size jobs: every cache misses, every layer runs."""

    name = "broker_cold"
    clients = min(2, NPROC)
    widths = (10, 11, 12, 13, 14)
    even_widths = (10, 12, 14, 10, 12)  # 3-regular graphs need an even order
    reset_width, reset_shots = 8, 64
    per_kind = 5

    def prepare(self) -> None:
        super().prepare()
        warm = [Job(ansatz_circuit(self.rng, 4, 1), 16, "warm") for _ in range(2)]
        reset, _ = reset_circuit(self.rng, 4)
        warm.append(Job(reset, 4, "warm"))
        self._record(job.circuit for job in warm)
        self._submit_all(warm)

    def make_jobs(self) -> list[Job]:
        rng, jobs = self.rng, []
        for index in range(self.per_kind):
            width = self.widths[index % len(self.widths)]
            even = self.even_widths[index % len(self.even_widths)]
            reset, reference = reset_circuit(rng, self.reset_width)
            jobs += [
                Job(ansatz_circuit(rng, width, 3), 1024, "ansatz"),
                Job(qaoa_maxcut_circuit(rng, even), 1024, "qaoa"),
                Job(qft_behind_ry_circuit(rng, width), 2048, "qft"),
                Job(reset, self.reset_shots, "reset", reference=reference),
            ]
        for job in jobs[:4]:  # one of each kind per block
            job.sampled = True
        return jobs


class BrokerWarm(Workload):
    """Cache reads beside cache writes over a working set that overflows."""

    name = "broker_warm"
    clients = min(2, NPROC)
    window = 8
    working_set = 64
    capacity = 256  # the service's default result-cache capacity
    zipf_exponent = 1.3
    ops_per_block = 1000
    new_keys_per_block = 10
    burst = 4
    hit_shots = (256, 512, 1024, 2048, 4096)

    def prepare(self) -> None:
        super().prepare()
        rng = self.rng
        # The working set, each entry holding 4096 shots.
        self.hot = [
            Job(ansatz_circuit(rng, 8 + index % 5, 2, name="hot"), 4096, "prefill")
            for index in range(self.working_set)
        ]
        # Earlier arrivals fill the cache to capacity, so from the first
        # timed op every new key evicts one — the steady state of a cache
        # smaller than its traffic, instead of a transient that a short run
        # never leaves.
        filler = [self._new_circuit() for _ in range(self.capacity - self.working_set)]
        self._record(job.circuit for job in self.hot + filler)
        self._submit_all(filler)
        self._submit_all(self.hot)
        self.recent = filler[-self.new_keys_per_block:]
        ranks = np.arange(1, self.working_set + 1, dtype=float)
        weights = ranks ** -self.zipf_exponent
        self.popularity = weights / weights.sum()

    def _new_circuit(self) -> Job:
        return Job(ansatz_circuit(self.rng, 8, 2, name="new"), 1024, "miss")

    def make_jobs(self) -> list[Job]:
        """95 % subsampled hits, 1 % top-ups, 4 % bursts of new circuits.

        Top-ups ask the keys that arrived one block earlier for twice their
        shots, once each, so a top-up always reads, executes the missing
        half, merges and writes — never degenerates into a hit — and no two
        requests for one key are in flight together.
        """
        rng = self.rng
        fresh = [self._new_circuit() for _ in range(self.new_keys_per_block)]
        special: list[list[Job]] = [[job] * self.burst for job in fresh]
        special += [[Job(job.circuit, 2 * job.shots, "top_up")] for job in self.recent]
        self.recent = fresh
        n_hits = self.ops_per_block - sum(len(group) for group in special)
        picks = rng.choice(self.working_set, size=n_hits, p=self.popularity)
        shots = rng.choice(self.hit_shots, size=n_hits)
        jobs = [Job(self.hot[k].circuit, int(s), "hit") for k, s in zip(picks, shots)]
        # Spread the special groups evenly through the block; a burst stays
        # contiguous on one client (even slot, stride = number of clients).
        stride = len(jobs) // (len(special) + 1)
        for index, group in enumerate(special):
            at = (index + 1) * stride + index * self.burst
            at -= at % self.clients
            for offset, job in enumerate(group):
                jobs.insert(at + offset * self.clients, job)
        jobs[0].sampled = True
        special[0][0].sampled = True
        special[-1][0].sampled = True
        return jobs

    def trace_jobs(self, block) -> list[Job]:
        # A tenth of the block keeps the traced levels short; the mix of
        # hits, top-ups and bursts is preserved by striding.
        return list(block[::10])


class LargeState(Workload):
    """States at or above the chunk threshold: replay and sampling are everything."""

    name = "large_state"

    def prepare(self) -> None:
        super().prepare()
        warm = Job(ansatz_circuit(self.rng, 16, 1), 1024, "warm")
        self._record([warm.circuit])
        self._submit_all([warm])  # spawns the engine's chunk-replay threads

    def make_jobs(self) -> list[Job]:
        rng = self.rng
        jobs = [
            Job(ansatz_circuit(rng, 16, 2), 1024, "ansatz16"),
            Job(qft_behind_ry_circuit(rng, 16), 1024, "qft16"),
            Job(ansatz_circuit(rng, 17, 1), 1024, "ansatz17"),
        ]
        jobs[int(rng.integers(len(jobs)))].sampled = True
        return jobs


class CliffordWide(Workload):
    """Wide Clifford jobs: classifier + tableau, the dense path bypassed."""

    name = "clifford_wide"
    clients = min(2, NPROC)
    #: Evenly spaced, so the latency percentiles sit on a slope of the cost
    #: curve instead of the gap between two width classes.
    widths = tuple(range(50, 401, 50))
    depth = 8

    def prepare(self) -> None:
        super().prepare()
        warm = [Job(ghz_chain_circuit(self.rng, 8), 16, "warm"),
                Job(brickwork_circuit(self.rng, 8, 2), 16, "warm")]
        self._record(job.circuit for job in warm)
        self._submit_all(warm)

    def make_jobs(self) -> list[Job]:
        rng, jobs = self.rng, []
        for width in self.widths:
            support = ("0" * width, "1" * width)
            jobs.append(Job(ghz_chain_circuit(rng, width), 1024, "ghz",
                            support=support, sampled=True))
            jobs.append(Job(brickwork_circuit(rng, width, self.depth), 1024, "brickwork"))
        return jobs


@dataclass
class VqeIteration:
    """Inputs of one optimiser iteration."""

    bindings: list[list[float]]
    #: Row of ``bindings`` the oracle re-submits alone.
    sampled_row: int


class VqeSweep(Workload):
    """Optimiser iterations: a shot sweep, a parameter-shift gradient, a step."""

    name = "vqe_sweep"
    op = "binding"
    iterations_per_block = 3
    n_bindings = 16
    repeated = 4
    shots = 1024
    step = 0.1

    def prepare(self) -> None:
        super().prepare()
        self.sweep_circuit, self.n_sweep_params = parametric_ansatz(12, 2, False, "vqe_sweep12")
        self.grad_circuit, n_grad = parametric_ansatz(10, 1, True, "vqe_grad10")
        self.observable = ising_observable(10)
        self.theta = np.array(_angles(self.rng, n_grad))
        self._hashes.append(hashlib.sha256(self.theta.tobytes()).hexdigest())
        self._record([self.sweep_circuit, self.grad_circuit])
        self.previous = [_angles(self.rng, self.n_sweep_params) for _ in range(self.n_bindings)]
        self.ops_per_iteration = self.n_bindings + 2 * n_grad
        self.run_iteration(self.next_iteration())  # compile both parametric plans

    def next_iteration(self) -> VqeIteration:
        rng = self.rng
        fresh = [_angles(rng, self.n_sweep_params)
                 for _ in range(self.n_bindings - self.repeated)]
        bindings = self.previous[: self.repeated] + fresh
        if self._digest_open:
            self._hashes.append(hashlib.sha256(np.asarray(bindings).tobytes()).hexdigest())
        self.previous = bindings[::-1]
        return VqeIteration(bindings, self.repeated + int(rng.integers(len(fresh))))

    def next_block(self):
        block = [self.next_iteration() for _ in range(self.iterations_per_block)]
        self._digest_open = False
        return block

    def run_iteration(self, iteration: VqeIteration):
        """One iteration; returns (sweep rows, theta used, gradient)."""
        rows = self.service.submit_sweep(
            self.sweep_circuit, iteration.bindings, shots=self.shots
        ).result(timeout=RESULT_TIMEOUT)
        theta = self.theta.copy()
        gradient = self.service.gradient(self.grad_circuit, self.observable, theta)
        self.theta = theta - self.step * gradient
        return rows, theta, gradient

    def run_block(self, block) -> BlockOutcome:
        outcome = BlockOutcome(0.0, 0.0, attempted=len(block) * self.ops_per_iteration)
        with timed(outcome):
            for iteration in block:
                self._timed_iteration(iteration, outcome)
        return outcome

    def _timed_iteration(self, iteration: VqeIteration, outcome: BlockOutcome) -> None:
        started = time.perf_counter()
        try:
            rows, theta, gradient = self.run_iteration(iteration)
            totals = [sum(row.counts.values()) for row in rows]
        except Exception as exc:
            outcome.failed += self.ops_per_iteration
            outcome.errors.append(f"iteration: {type(exc).__name__}: {exc}")
            return
        outcome.latencies.append(time.perf_counter() - started)
        bad = sum(total != self.shots for total in totals)
        outcome.failed += bad
        if bad:
            outcome.errors.append(f"{bad} sweep rows with the wrong shot total")
        row = iteration.sampled_row
        job = Job(self.sweep_circuit.bind(iteration.bindings[row]), self.shots,
                  "sweep_row", sampled=True)
        outcome.samples.append((job, dict(rows[row].counts)))
        outcome.samples.append((Job(self.grad_circuit, 0, "gradient"),
                                {"theta": theta, "gradient": gradient,
                                 "observable": self.observable}))

    def trace_jobs(self, block) -> list[Job]:
        iteration = block[0]
        return [Job(self.sweep_circuit.bind(b), self.shots, "sweep_row")
                for b in iteration.bindings]


    def uncontended_op_seconds(self, spans, values) -> float:
        # An iteration is one sweep and one gradient.
        return (values["service.sweep_ms_per_binding"] * self.n_bindings
                + values["service.gradient_ms"]) / 1e3


WORKLOADS = {
    cls.name: cls
    for cls in (PaperKernels, BrokerCold, BrokerWarm, LargeState, VqeSweep, CliffordWide)
}
