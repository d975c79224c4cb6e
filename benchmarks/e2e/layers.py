"""The traced run: every layer's public functions timed from outside.

A traced run of one workload has four parts, all on this process:

1. **Count block** — one block through the workload's normal closed-loop
   clients (no spans).  It gives the contended latency that
   ``service.contention_factor`` compares against and, being a fixed
   number of ops, the seed-fixed counters of ``service.metrics()``.
2. **Level replay** — the next block's jobs (plus a small fixed set of
   *reference* jobs) run on one thread at successively deeper entry points:
   ``service.submit -> result``, ``QppAccelerator.execute``,
   ``LocalBackend.execute`` / ``StabilizerBackend.execute``, then the
   leaves.  Caches are reset between levels through public calls so every
   level sees the cache state the level above saw, and circuits are
   re-created through their public serialised form so no level inherits a
   hash another level memoised on the object.  Each call is one span; a
   layer's self time is its span minus its children's for the same op.
3. **Probes** — layers no job of the workload reaches (the paper-figure
   harness, the sweep entry points, the optional process lanes, the memory
   bandwidth yardstick) are timed on fixed inputs.
4. **Hygiene** — leaked segments and orphan processes after everything is
   closed.

A layer metric is the median over the workload's own ops that reached the
layer.  When none did (the tableau on a dense workload, the dense kernels on
the Clifford workload) the median over the reference jobs stands in, so every
number is a measurement; ``sources`` in the result file says which.  No span
is recorded inside ``src/`` and the program's own tracer stays off.
"""

from __future__ import annotations

import json
import os
import statistics
import time
import zlib
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

import oracle
from host import hygiene, last_level_cache_bytes
from stats import self_times
from workloads import (
    NPROC, RESULT_TIMEOUT, SAMPLING_SEED, WORKLOADS, Job, VqeSweep,
    ansatz_circuit, ghz_chain_circuit, reset_circuit,
)

from repro import QuantumJobService, get_accelerator
from repro.benchmark.harness import BenchmarkHarness
from repro.benchmark.workloads import figure3_workload, figure4_workload, figure5_workload
from repro.core.api import finalize, initialize
from repro.core.race_detector import get_race_detector
from repro.core.threading_api import qcor_async
from repro.exec import LocalBackend, ShardedExecutor
from repro.exec.shm import SharedStatePool
from repro.exec.stabilizer import StabilizerBackend
from repro.ir.serialization import circuit_content_hash, circuit_from_dict, circuit_to_dict
from repro.ir.transforms.clifford import classify_clifford, clear_clifford_cache
from repro.runtime.buffer import AcceleratorBuffer
from repro.service import ResultCache, job_key, subsample_counts
from repro.simulator.execution_plan import compile_parametric_plan
from repro.simulator.parallel_engine import ParallelSimulationEngine
from repro.simulator.plan_cache import PlanCache, get_plan_cache, reset_plan_cache
from repro.simulator.sampling import sample_counts
from repro.simulator.statevector import StateVector

BACKEND = "qpp"
#: Repetitions of a microsecond-scale call; the median is reported.
MICRO_REPEATS = 50
FIGURE_REPEATS = 10
STREAM_ARRAY_CAP = 128 << 20
ROOT = "service.submit_result"


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


def seconds_of(function, *args, **kwargs) -> float:
    """Wall seconds of one call (its value is dropped)."""
    started = time.perf_counter()
    function(*args, **kwargs)
    return time.perf_counter() - started


def median_seconds(function, repeats: int) -> float:
    return statistics.median(seconds_of(function) for _ in range(repeats))


class SpanLog:
    """In-memory span records, written out when the run ends."""

    def __init__(self):
        self.spans: list[dict] = []

    def call(self, op, layer: str, parent: str | None, function, *args, **kwargs):
        """Time one call into a layer and record it as a span of ``op``."""
        start = time.perf_counter()
        value = function(*args, **kwargs)
        end = time.perf_counter()
        self.spans.append({"op_id": op.op_id, "layer": layer, "parent_layer": parent,
                           "start": start, "end": end, "reference": op.reference})
        return value

    def write(self, path) -> None:
        path.parent.mkdir(exist_ok=True)
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


@dataclass
class TracedOp:
    op_id: int
    job: Job
    #: True for the fixed reference jobs appended to the workload's own.
    reference: bool
    n_qubits: int = 0
    #: Shots the backend had to execute (0 = served from the result cache).
    executed: int = 0
    #: The result-cache entry the op found (``None`` = no entry).
    held: object | None = None
    #: The circuit's plan and Clifford verdict were cached when the op ran.
    seen_before: bool = False
    route: str = ""  # "hit" | "dense" | "trajectory" | "stabilizer" | "failed"


def fresh(circuit):
    """The same circuit as a new object, through its public serialised form."""
    return circuit_from_dict(circuit_to_dict(circuit))


def reference_jobs(seed: int) -> list[Job]:
    """Fixed jobs that reach every layer, whatever the workload.

    One mid-size dense circuit three times (a miss, a subsampled hit, a
    top-up), a trajectory circuit, a wide Clifford circuit and one state at
    the chunk threshold.
    """
    rng = np.random.default_rng([seed, zlib.crc32(b"reference")])
    mid = ansatz_circuit(rng, 12, 2, name="reference_mid")
    reset, _ = reset_circuit(rng, 8)
    return [
        Job(mid, 1024, "reference_miss"),
        Job(mid, 512, "reference_hit"),
        Job(mid, 2048, "reference_top_up"),
        Job(reset, 64, "reference_reset"),
        Job(ghz_chain_circuit(rng, 100), 1024, "reference_ghz"),
        Job(ansatz_circuit(rng, 16, 1, name="reference_large"), 1024, "reference_large"),
    ]


# ---------------------------------------------------------------------------
# Level replay
# ---------------------------------------------------------------------------


def observe(ops: list[TracedOp], service) -> int:
    """Pass A: run the ops through the workload's own service, in order, and
    record the cache state each one met.  Returns the number that failed."""
    failed = 0
    for op in ops:
        job = op.job
        op.n_qubits = max(job.circuit.n_qubits, 1)
        op.held = service.cache.peek(job_key(job.circuit, BACKEND, service.backend_options))
        op.executed = max(0, job.shots - (op.held.shots if op.held is not None else 0))
        plan_hits = get_plan_cache().stats().hits
        try:
            result = service.submit(job.circuit, shots=job.shots).result(timeout=RESULT_TIMEOUT)
        except Exception:
            failed += 1
            op.route = "failed"
            continue
        failed += sum(result.counts.values()) != job.shots
        op.seen_before = op.held is not None or get_plan_cache().stats().hits > plan_hits
        if op.executed == 0:
            op.route = "hit"
        elif classify_clifford(job.circuit).is_clifford:
            op.route = "stabilizer"
        elif any(inst.name == "RESET" for inst in job.circuit):
            op.route = "trajectory"
        else:
            op.route = "dense"
    return failed


class Replayer:
    """Pass B: one op at a time, at every depth, against the state pass A saw.

    All depths of one op run back to back, so a drift in the host's speed
    between ops cannot show up as a layer's self time.  Before each call the
    process-wide plan and Clifford caches and the scratch service's result
    cache are put — through public calls — in the state the op met in pass
    A: empty for a circuit never seen, warm for a repeated one, holding the
    entry a hit or a top-up read.
    """

    def __init__(self, log: SpanLog, options):
        self.log = log
        self.options = dict(options)
        self.service = QuantumJobService(workers=2, name="e2e-replay").start()
        self.accelerator = get_accelerator(BACKEND, self.options)
        self.engine = ParallelSimulationEngine()
        self.tableau = StabilizerBackend()
        self.rng = np.random.default_rng(SAMPLING_SEED)
        #: Measurements that are not spans of the tree, keyed (name, reference).
        self.side: dict[tuple[str, bool], list] = defaultdict(list)
        # Spawn the engine's threads before any timed call.
        warm = StateVector(2)
        self.engine.sample_parallel(warm, 8, (0, 1), seed=SAMPLING_SEED)

    def close(self) -> None:
        self.service.shutdown()
        self.engine.close()

    def _stage(self, op: TracedOp, key: str, plans: PlanCache | None = None) -> None:
        reset_plan_cache()
        clear_clifford_cache()
        self.service.cache.clear()
        if op.held is not None:
            self.service.cache.store(key, op.held.counts, op.held.backend)
        if op.seen_before and op.route != "hit":
            warm = fresh(op.job.circuit)
            classify_clifford(warm)
            if op.route != "stabilizer":
                # (an empty PlanCache is falsy, so test for None)
                cache = plans if plans is not None else get_plan_cache()
                cache.get_or_compile(warm, op.n_qubits)

    def _last(self) -> float:
        span = self.log.spans[-1]
        return span["end"] - span["start"]

    def replay(self, op: TracedOp) -> None:
        log, job, n = self.log, op.job, op.n_qubits
        key = job_key(job.circuit, BACKEND, self.options)
        executes = op.route in ("dense", "trajectory")

        self._stage(op, key)
        circuit = fresh(job.circuit)
        log.call(op, ROOT, None, lambda: self.service.submit(circuit, shots=job.shots)
                 .result(timeout=RESULT_TIMEOUT))
        if executes:
            self._stage(op, key)
            log.call(op, "runtime.qpp_execute", ROOT, self.accelerator.execute,
                     AcceleratorBuffer(n), fresh(job.circuit), op.executed)
            plans = PlanCache()
            backend = LocalBackend(engine=self.engine, plan_cache=plans)
            self._stage(op, key, plans)
            log.call(op, "exec.local_execute", "runtime.qpp_execute", backend.execute,
                     fresh(job.circuit), op.executed, n_qubits=n, seed=SAMPLING_SEED)
        self._leaves(op)

    def _leaves(self, op: TracedOp) -> None:
        """The leaves, each called directly.

        The tree holds the calls the backend really makes — pooled replay,
        pooled sampling; their serial twins are timed beside them.
        """
        log, job, n, side, ref = self.log, op.job, op.n_qubits, self.side, op.reference
        local = "exec.local_execute"
        plans = PlanCache()
        results = ResultCache()
        circuit = fresh(job.circuit)
        key = log.call(op, "service.job_key", ROOT, job_key, circuit, BACKEND, self.options)
        # The key derivation hashes the circuit; the hash alone is timed
        # beside it (on an object as new as the key's) for ``ir.content_hash_us``.
        side["content_hash", ref].append(seconds_of(circuit_content_hash, fresh(job.circuit)))
        self._stage(op, key, plans)
        if op.held is not None:
            results.store(key, op.held.counts, op.held.backend)
        entry = log.call(op, "service.cache_lookup", ROOT, results.lookup, key, job.shots)
        side["lookup_hit" if op.route == "hit" else "lookup_miss", ref].append(self._last())
        if op.route == "hit":
            log.call(op, "service.cache_subsample", ROOT, subsample_counts,
                     entry.counts, job.shots, self.rng)
            return
        log.call(op, "ir.classify_clifford", ROOT, classify_clifford, circuit)
        if op.route == "stabilizer":
            counts = log.call(op, "exec.stabilizer_execute", ROOT, self.tableau.execute,
                              circuit, op.executed, n_qubits=n, seed=SAMPLING_SEED).counts
        else:
            plan, was_cached = log.call(op, "simulator.compile", local,
                                        plans.lookup_or_compile, circuit, n)
            if not was_cached:
                side["compile", ref].append(self._last())
                side["plan_steps", ref].append(plan.n_steps)
            if op.route == "trajectory":
                counts = log.call(op, "simulator.trajectory", local,
                                  self.engine.run_trajectories, n, circuit, op.executed,
                                  seed=SAMPLING_SEED, plan=plan)
            else:
                serial = seconds_of(plan.execute, plan.new_state())
                state = StateVector(n, dtype=plan.dtype)
                log.call(op, "simulator.replay", local, state.apply_plan, plan,
                         pool=self.engine)
                side["replay", ref].append((serial, self._last(), plan, op))
                measured = plan.measured_qubits or tuple(range(n))
                side["sample", ref].append(seconds_of(
                    sample_counts, state.probabilities(), op.executed, measured, n, self.rng))
                counts = log.call(op, "simulator.sample_parallel", local,
                                  self.engine.sample_parallel, state, op.executed,
                                  measured, seed=SAMPLING_SEED)
        log.call(op, "service.cache_store", ROOT, results.top_up, key, counts, BACKEND)
        side["top_up" if op.held is not None else "store", ref].append(self._last())


# ---------------------------------------------------------------------------
# Probes on fixed inputs
# ---------------------------------------------------------------------------


def probe_core() -> dict[str, float]:
    """The paper's figures in wall clock, the model's error, the thread API."""
    values: dict[str, float] = {}
    real, modeled = BenchmarkHarness(mode="real"), BenchmarkHarness(mode="modeled")
    figures = {"fig3": figure3_workload(), "fig4": figure4_workload(),
               "fig5": figure5_workload()}
    for name, workload in figures.items():
        seconds = {
            variant: median_seconds(
                lambda: real.run_variant(workload, variant, NPROC), FIGURE_REPEATS)
            for variant in ("parallel", "one-by-one")
        }
        speedup = seconds["one-by-one"] / seconds["parallel"]
        model = (modeled.run_variant(workload, "one-by-one", NPROC).duration
                 / modeled.run_variant(workload, "parallel", NPROC).duration)
        values[f"core.{name}_parallel_ms"] = 1e3 * seconds["parallel"]
        values[f"core.{name}_one_by_one_ms"] = 1e3 * seconds["one-by-one"]
        values[f"core.{name}_parallel_speedup"] = speedup
        values[f"benchmark.{name}_model_error"] = abs(model - speedup) / speedup

    def initialize_finalize():
        initialize()
        finalize()

    values["core.initialize_finalize_us"] = 1e6 * median_seconds(
        initialize_finalize, MICRO_REPEATS)
    values["core.qcor_async_roundtrip_us"] = 1e6 * median_seconds(
        lambda: qcor_async(lambda: None).result(), MICRO_REPEATS)
    values["runtime.get_accelerator_us"] = 1e6 * median_seconds(
        lambda: get_accelerator(BACKEND, {"threads": 1}), MICRO_REPEATS)
    return values


def probe_sweep(workload) -> dict[str, float]:
    """The sweep entry points, on a prepared ``VqeSweep``'s own inputs."""
    values: dict[str, float] = {}
    circuit, n_qubits = workload.sweep_circuit, workload.sweep_circuit.n_qubits
    first, second = workload.next_iteration(), workload.next_iteration()
    bindings = first.bindings

    values["simulator.compile_parametric_ms"] = 1e3 * seconds_of(
        compile_parametric_plan, fresh(circuit), n_qubits)
    plan = compile_parametric_plan(circuit, n_qubits)
    values["simulator.bind_us"] = 1e6 * statistics.median(
        seconds_of(plan.bind, binding) for binding in bindings)

    backend = LocalBackend(plan_cache=PlanCache())
    try:
        backend.compile(circuit, n_qubits)  # the sweep rows time rebinds, not the compile
        values["exec.execute_sweep_ms_per_binding"] = 1e3 / len(bindings) * seconds_of(
            backend.execute_sweep, circuit, bindings, workload.shots, seed=SAMPLING_SEED)
        shifted = [list(workload.theta + delta) for delta in
                   np.eye(workload.theta.size) * (np.pi / 2)]
        backend.compile(workload.grad_circuit, workload.grad_circuit.n_qubits)
        values["exec.expectation_sweep_ms_per_binding"] = 1e3 / len(shifted) * seconds_of(
            backend.expectation_sweep, workload.grad_circuit, workload.observable, shifted)
    finally:
        backend.close()

    # The first sweep fills the member keys the second one repeats a quarter
    # of — the steady state of the workload's iterations — so the second is
    # the one timed.
    service = workload.service
    service.submit_sweep(circuit, first.bindings, shots=workload.shots).result(
        timeout=RESULT_TIMEOUT)
    rows = []
    values["service.sweep_ms_per_binding"] = 1e3 / len(second.bindings) * seconds_of(
        lambda: rows.extend(
            service.submit_sweep(circuit, second.bindings, shots=workload.shots).result(
                timeout=RESULT_TIMEOUT)))
    values["service.sweep_member_hit_rate"] = (
        sum(row.from_cache for row in rows) / len(rows))
    values["service.gradient_ms"] = 1e3 * seconds_of(
        service.gradient, workload.grad_circuit, workload.observable, workload.theta)
    return values


def probe_stream_copy(cache_bytes: int) -> tuple[float, int]:
    """Sustained copy bandwidth (GB/s, read + write) and the array size used.

    Each array is four times the last-level cache, but at most
    ``STREAM_ARRAY_CAP``: a virtual machine reports its host's whole shared
    cache (260 MB where this was written, for 2 cores), and first-touching
    gigabytes costs tens of seconds of page faults there.  Both sizes are
    stated in the result file.
    """
    size = min(max(4 * cache_bytes, 64 << 20), STREAM_ARRAY_CAP)
    source = np.ones(size // 8, dtype=np.float64)
    target = np.empty_like(source)
    np.copyto(target, source)  # first touch
    seconds = median_seconds(lambda: np.copyto(target, source), 3)
    return 2 * source.nbytes / seconds / 1e9, source.nbytes


def probe_lanes(replay: tuple, backend_seconds: float) -> dict[str, float]:
    """The optional process lanes on one large op; pools closed after.

    ``replay`` is the (serial seconds, pooled seconds, plan, op) record of
    the widest dense op the leaves replayed.
    """
    serial, pooled, plan, op = replay
    values = {"simulator.chunked_speedup": serial / pooled}
    pool = SharedStatePool(NPROC)
    try:
        StateVector(op.n_qubits, dtype=plan.dtype).apply_plan(plan, pool=pool)  # spawn
        shm = seconds_of(StateVector(op.n_qubits, dtype=plan.dtype).apply_plan, plan, pool=pool)
    finally:
        pool.close()
    values["exec.shm_replay_ms"] = 1e3 * shm
    values["exec.shm_speedup"] = serial / shm
    executor = ShardedExecutor(NPROC)
    try:
        sharded = seconds_of(executor.execute, fresh(op.job.circuit), op.executed,
                             n_qubits=op.n_qubits, seed=SAMPLING_SEED)
    finally:
        executor.close()
    values["exec.sharded_execute_ms"] = 1e3 * sharded
    values["exec.sharded_speedup"] = backend_seconds / sharded
    return values


# ---------------------------------------------------------------------------
# The traced run
# ---------------------------------------------------------------------------


def layer_metrics(log: SpanLog, side, own: set[int]) -> tuple[dict, dict, tuple, dict]:
    """Per-layer medians from the spans and the side measurements.

    Returns (values, sources, widest replay record, span durations keyed
    (layer, reference)).  A metric's samples are the workload's own ops that
    reached the layer; when none did, the reference jobs' — ``sources``
    records which.
    """
    values: dict[str, float] = {}
    sources: dict[str, str] = {}
    durations: dict[tuple[str, bool], list[float]] = defaultdict(list)
    selfs: dict[tuple[str, bool], list[float]] = defaultdict(list)
    for span in log.spans:
        durations[span["layer"], span["reference"]].append(span["end"] - span["start"])
    for (op_id, layer), seconds in self_times(log.spans).items():
        selfs[layer, op_id not in own].append(seconds)

    def pick(table, key, metric) -> list:
        mine = table.get((key, False))
        sources[metric] = "workload" if mine else "reference"
        return mine or table[key, True]

    def median_of(metric, key, table=durations, scale=1e3):
        values[metric] = scale * statistics.median(pick(table, key, metric))

    median_of("service.submit_result_ms", ROOT)
    median_of("service.self_ms", ROOT, selfs)
    median_of("runtime.qpp_execute_ms", "runtime.qpp_execute")
    median_of("runtime.qpp_self_ms", "runtime.qpp_execute", selfs)
    median_of("exec.local_execute_ms", "exec.local_execute")
    median_of("exec.local_self_ms", "exec.local_execute", selfs)
    median_of("exec.stabilizer_execute_ms", "exec.stabilizer_execute")
    median_of("simulator.trajectory_ms", "simulator.trajectory")
    median_of("simulator.sample_parallel_ms", "simulator.sample_parallel")
    median_of("ir.classify_clifford_us", "ir.classify_clifford", scale=1e6)
    median_of("service.job_key_us", "service.job_key", scale=1e6)
    median_of("service.cache_subsample_us", "service.cache_subsample", scale=1e6)
    median_of("ir.content_hash_us", "content_hash", side, 1e6)
    median_of("service.cache_hit_lookup_us", "lookup_hit", side, 1e6)
    median_of("service.cache_miss_lookup_us", "lookup_miss", side, 1e6)
    median_of("service.cache_store_us", "store", side, 1e6)
    median_of("service.cache_top_up_us", "top_up", side, 1e6)
    median_of("simulator.compile_ms", "compile", side)
    median_of("simulator.sample_ms", "sample", side)
    values["simulator.plan_steps_count"] = sum(
        pick(side, "plan_steps", "simulator.plan_steps_count"))
    replays = pick(side, "replay", "simulator.replay_ms")
    values["simulator.replay_ms"] = 1e3 * statistics.median(r[0] for r in replays)
    values["simulator.replay_chunked_ms"] = 1e3 * statistics.median(r[1] for r in replays)

    leaf_layers = {s["layer"] for s in log.spans} - {s["parent_layer"] for s in log.spans}
    roots = {s["op_id"]: s["end"] - s["start"] for s in log.spans if s["layer"] == ROOT}
    leaf_sum: dict[int, float] = defaultdict(float)
    for span in log.spans:
        if span["layer"] in leaf_layers:
            leaf_sum[span["op_id"]] += span["end"] - span["start"]
    values["trace.leaf_share"] = statistics.median(
        leaf_sum[op_id] / roots[op_id] for op_id in roots if op_id in own)

    # The widest dense op (the workload's own on a tie) stands for the
    # large-state regime: lanes only engage at or above the chunk threshold.
    widest = max(side["replay", False] + side["replay", True],
                 key=lambda r: (r[3].n_qubits, not r[3].reference))
    return values, sources, widest, durations


def traced_run(name: str, seed: int, spans_path, units: dict[str, str]) -> dict:
    """Run the four parts for one workload; ``units`` maps each per-layer
    metric BENCHMARK.json names to its unit."""
    values: dict[str, float] = {"host.loadavg_before": os.getloadavg()[0]}
    problems: list[str] = []
    cache_bytes = last_level_cache_bytes()
    values["host.stream_copy_gbps"], stream_bytes = probe_stream_copy(cache_bytes)

    # -- 1. count block -------------------------------------------------------
    reset_plan_cache()
    clear_clifford_cache()
    workload = WORKLOADS[name](seed)
    workload.prepare()
    # The paper's kernels have no service on their path; their jobs are
    # observed on a default one.
    service = workload.service or QuantumJobService(workers=2, name="e2e-observe").start()
    log = SpanLog()
    replayer = Replayer(log, service.backend_options)
    # Set-up's own executions and compilations are not the block's.
    before, plans_before = service.metrics(), get_plan_cache().stats()
    try:
        block = workload.next_block()
        outcome = workload.run_block(block)
        contended = statistics.fmean(outcome.latencies)
        attempted, failed = outcome.attempted, outcome.failed
        problems += outcome.errors
        for job, payload in outcome.samples:
            found = oracle.check_sample(job, payload)
            failed += bool(found)
            problems += found
        plans_after = get_plan_cache().stats()
        compiles = plans_after.misses - plans_before.misses
        plan_hits = plans_after.hits - plans_before.hits
        values["simulator.plan_compiles_count"] = compiles
        values["simulator.plan_cache_hit_rate"] = (
            plan_hits / (plan_hits + compiles) if plan_hits + compiles else 0.0)
        after = service.metrics() if workload.service is not None else None

        # -- 2. level replay --------------------------------------------------
        traced_block = workload.next_block() if workload.service is not None else block
        ops = [TracedOp(i, job, False)
               for i, job in enumerate(workload.trace_jobs(traced_block))]
        own = {op.op_id for op in ops}
        ops += [TracedOp(len(ops) + i, job, True)
                for i, job in enumerate(reference_jobs(seed))]
        failed += observe(ops, service)
        attempted += len(ops)
        after = after or service.metrics()
        for op in ops:
            if op.route != "failed":
                replayer.replay(op)

        # -- 3. probes --------------------------------------------------------
        values.update(probe_core())
        sweeper = workload if isinstance(workload, VqeSweep) else VqeSweep(seed)
        if sweeper is not workload:
            sweeper.prepare()
        try:
            values.update(probe_sweep(sweeper))
        finally:
            if sweeper is not workload:
                sweeper.close()
    finally:
        replayer.close()
        if workload.service is None:
            service.shutdown()
        workload.close()

    layer_values, sources, widest, durations = layer_metrics(log, replayer.side, own)
    values.update(layer_values)
    serial, _, plan, wide_op = widest
    computed = (plan.n_steps * 2 * np.dtype(plan.dtype).itemsize * (1 << wide_op.n_qubits)
                / serial / 1e9)
    values["simulator.replay_gbps_computed"] = computed
    values["simulator.replay_bw_fraction"] = computed / values["host.stream_copy_gbps"]
    backend_seconds = next(
        span["end"] - span["start"] for span in log.spans
        if span["op_id"] == wide_op.op_id and span["layer"] == "exec.local_execute")
    values.update(probe_lanes(widest, backend_seconds))

    own_spans = {layer: seconds for (layer, reference), seconds in durations.items()
                 if not reference}
    values["service.contention_factor"] = contended / workload.uncontended_op_seconds(
        own_spans, values)

    # Counters of the count block alone (of the observed jobs for the
    # paper's kernels): after minus before.
    lookups = after.cache.lookups - before.cache.lookups
    values["service.cache_hit_rate"] = (
        (after.cache.hits - before.cache.hits) / lookups if lookups else 0.0)
    values["service.cache_evictions_count"] = after.cache.evictions - before.cache.evictions
    values["service.top_ups_count"] = after.cache.top_ups - before.cache.top_ups
    values["service.coalesced_count"] = after.coalesced - before.coalesced
    values["service.executions_count"] = after.executions - before.executions
    values["service.stabilizer_executions_count"] = (
        after.stabilizer_executions - before.stabilizer_executions)
    values["core.race_reports_count"] = get_race_detector().race_count()

    # -- 4. hygiene -----------------------------------------------------------
    log.write(spans_path)
    left = hygiene()
    values["exec.leaked_shm_segments_count"] = left["leaked_shm_segments"]
    values["exec.orphan_processes_count"] = left["orphan_processes"]
    for metric in ("core.race_reports_count", "exec.leaked_shm_segments_count",
                   "exec.orphan_processes_count"):
        if values[metric]:
            problems.append(f"{metric} is {values[metric]}, must be 0")

    return {
        "inputs_digest": workload.inputs_digest(),
        "attempted": attempted, "failed": failed,
        "correct": failed == 0 and not problems, "problems": problems[:20],
        "traced_ops": len(own), "reference_ops": len(ops) - len(own),
        "spans": len(log.spans), "spans_file": spans_path.name,
        "last_level_cache_bytes": cache_bytes, "stream_copy_array_bytes": stream_bytes,
        "sources": sources,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in values.items()},
    }
