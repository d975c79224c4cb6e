"""Branch-memoised trajectories: a reset job replays each branch once.

Checked here:

* **Identity.**  :func:`sample_trajectories` walks a lazily built tree
  of reset-outcome branches; its counts equal the per-shot loop it replaced
  (:mod:`repro.testing.trajectory_oracle`) as a dict *and* in item order —
  0-4 resets, full and partial measurement, both precisions, one-shot draws
  by ``multinomial`` and by inverse CDF, the memo bound, and process shards
  (every ``threads`` / ``processes`` setting draws one stream:
  ``test_fixed_seed_contract.py``).
* **Work bound** the per-shot loop fails: a job's kernels run once per
  distinct branch, not once per shot.
* **Cancellation** stays bounded once no shot replays a plan step.
* **Bytes**: a tree peaks within its admission estimate, and the broker
  reserves it for reset jobs.
* **Observability**: the ``replay`` span carries ``branches`` and
  ``segment_replays``.
"""

from __future__ import annotations

import math
import time
import tracemalloc

import numpy as np
import pytest

from repro.cancellation import CancelToken, cancel_scope
from repro.exceptions import DeadlineExceeded
from repro.exec import LocalBackend, ShardedExecutor
from repro.ir.builder import CircuitBuilder
from repro.obs import enable_tracing
from repro.obs.profiler import ReplayProfiler, profiler_installed
from repro.service import QuantumJobService
from repro.service.admission import estimate_job_bytes
from repro.simulator import parallel_engine
from repro.simulator.execution_plan import compile_plan
from repro.simulator.parallel_engine import (
    BRANCH_MEMO_MAX_BYTES,
    BranchTree,
    ParallelSimulationEngine,
    branch_memo_bytes,
    sample_trajectories,
)
from repro.simulator.sampling import SAMPLING_STREAM
from repro.testing import reference_sample_trajectories, reference_trajectory_counts


def random_reset_circuit(seed: int, n_qubits: int, resets: int, measured=None):
    """Random RY/RZ/H/CX layers with ``resets`` resets between them."""
    rng = np.random.default_rng(seed)
    builder = CircuitBuilder(n_qubits, name=f"branches_{seed}_{n_qubits}_{resets}")
    for layer in range(resets + 1):
        for _ in range(3 * n_qubits):
            qubit = int(rng.integers(n_qubits))
            kind = int(rng.integers(4))
            if kind == 0:
                builder.ry(qubit, float(rng.uniform(0.0, math.pi)))
            elif kind == 1:
                builder.rz(qubit, float(rng.uniform(0.0, math.pi)))
            elif kind == 2:
                builder.h(qubit)
            else:
                other = (qubit + 1 + int(rng.integers(n_qubits - 1))) % n_qubits
                builder.cx(qubit, other)
        if layer < resets:
            builder.reset(int(rng.integers(n_qubits)))
    if measured is None:
        builder.measure_all()
    else:
        for qubit in measured:
            builder.measure(qubit)
    return builder.build()


def layered_reset_circuit(n_qubits: int, resets: int):
    """An RY layer and a CX ladder before and between ``resets`` resets."""
    builder = CircuitBuilder(n_qubits, name=f"layered_reset_{n_qubits}_{resets}")
    for layer in range(resets + 1):
        for qubit in range(n_qubits):
            builder.ry(qubit, 0.3 + 0.11 * qubit + 0.07 * layer)
        for qubit in range(n_qubits - 1):
            builder.cx(qubit, qubit + 1)
        if layer < resets:
            builder.reset(layer)
    return builder.measure_all().build()


def assert_same_histogram(counts, reference):
    assert counts == reference
    assert list(counts.items()) == list(reference.items())


def engine_counts(circuit, n_qubits, shots, seed, threads, plan):
    with ParallelSimulationEngine(num_threads=threads) as engine:
        return engine.run_trajectories(n_qubits, circuit, shots, seed=seed, plan=plan)


# ---------------------------------------------------------------------------
# Identity against the per-shot loop
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("precision", ["double", "single"])
@pytest.mark.parametrize("partial", [False, True])
@pytest.mark.parametrize("resets", [0, 1, 2, 3, 4])
def test_memoised_counts_equal_the_per_shot_loop(resets, partial, precision):
    assert SAMPLING_STREAM == 4
    n_qubits = 5
    measured = (0, 2, 3) if partial else None
    seed = 100 * resets + 10 * partial + 1
    circuit = random_reset_circuit(seed, n_qubits, resets, measured)
    plan = compile_plan(circuit, n_qubits, precision=precision)
    measured = circuit.measured_qubits()
    counts = engine_counts(circuit, n_qubits, 150, seed, 1, plan)
    reference = reference_trajectory_counts(plan, 150, seed, measured, n_qubits)
    assert_same_histogram(counts, reference)


@pytest.mark.parametrize("threads", [1, 2])
def test_inverse_cdf_leaves_equal_the_per_shot_loop(threads):
    # 10 measured qubits: 1024 bins, so every one-shot draw is inverse CDF.
    circuit = random_reset_circuit(7, 10, 2)
    plan = compile_plan(circuit, 10)
    counts = engine_counts(circuit, 10, 120, 3, threads, plan)
    reference = reference_trajectory_counts(plan, 120, 3, tuple(range(10)), 10)
    assert_same_histogram(counts, reference)


@pytest.mark.parametrize("max_bytes", [0, 600, 2000])
def test_branches_past_the_memo_bound_replay_from_an_ancestor(max_bytes, monkeypatch):
    # 5 qubits: a state is 512 bytes, a leaf sampler 256.  0 memoises
    # nothing (every shot replays from |0...0>); 600 only the root; 2000
    # part of the tree.
    monkeypatch.setattr(parallel_engine, "BRANCH_MEMO_MAX_BYTES", max_bytes)
    circuit = random_reset_circuit(11, 5, 3)
    plan = compile_plan(circuit, 5)
    measured = circuit.measured_qubits()
    tree = BranchTree(plan, measured, 5)
    counts = sample_trajectories(tree, 200, np.random.default_rng(8))
    reference = reference_sample_trajectories(plan, 200, np.random.default_rng(8), measured, 5)
    assert_same_histogram(counts, reference)
    assert tree.memo_bytes <= max_bytes
    assert tree.segment_replays > tree.branches


@pytest.fixture(scope="module")
def sharded2():
    with ShardedExecutor(2, name="branch-tree") as executor:
        yield executor


@pytest.mark.parametrize("resets, partial", [(1, False), (2, False), (3, True)])
def test_sharded_trajectories_equal_the_per_shot_loop(sharded2, resets, partial):
    measured = (1, 2, 4) if partial else None
    circuit = random_reset_circuit(40 + resets, 6, resets, measured)
    result = sharded2.execute(circuit, 300, n_qubits=6, seed=21, optimize=False)
    plan = compile_plan(circuit, 6, optimize=False)
    reference = reference_trajectory_counts(plan, 300, 21, circuit.measured_qubits(), 6)
    assert_same_histogram(dict(result.counts), reference)


# ---------------------------------------------------------------------------
# Work bound
# ---------------------------------------------------------------------------


def test_segment_replays_are_bounded_by_distinct_branches():
    resets, shots = 3, 256
    circuit = random_reset_circuit(3, 6, resets)
    plan = compile_plan(circuit, 6)
    segments, _ = plan.segments()
    # At most min(2^d, shots) distinct branches end segment d.
    bound = sum(min(1 << d, shots) * seg.n_steps for d, seg in enumerate(segments))
    profiler = ReplayProfiler()
    with profiler_installed(profiler):
        engine_counts(circuit, 6, shots, 9, 2, plan)
    kernels = profiler.snapshot().kernels
    calls = sum(t.calls for name, t in kernels.items() if name != "reset")
    assert 0 < calls <= bound < shots * plan.n_steps

    tree = BranchTree(plan, circuit.measured_qubits(), 6)
    sample_trajectories(tree, shots, np.random.default_rng(9))
    assert tree.segment_replays == tree.branches <= (2 << resets) - 1


# ---------------------------------------------------------------------------
# Cancellation
# ---------------------------------------------------------------------------


def test_a_long_reset_job_honours_a_short_deadline_promptly():
    circuit = layered_reset_circuit(8, 2)
    with ParallelSimulationEngine(num_threads=1) as engine:
        engine.run_trajectories(8, circuit, 16, seed=0)  # build caches first
        token = CancelToken(timeout=0.05)
        started = time.perf_counter()
        with cancel_scope(token), pytest.raises(DeadlineExceeded):
            engine.run_trajectories(8, circuit, 200_000, seed=1)
    assert time.perf_counter() - started < 1.0


# ---------------------------------------------------------------------------
# Bytes
# ---------------------------------------------------------------------------


def traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_16_qubit_three_reset_job_peaks_within_the_memo_bound():
    n_qubits, resets = 16, 3
    circuit = layered_reset_circuit(n_qubits, resets)
    plan = compile_plan(circuit, n_qubits)
    measured = circuit.measured_qubits()
    engine = ParallelSimulationEngine(num_threads=1)
    # Warm per-process caches (key tables, scratch buffers) untraced.
    engine.run_trajectories(n_qubits, circuit, 4, seed=0, plan=plan)
    reference_sample_trajectories(plan, 1, np.random.default_rng(0), measured, n_qubits)
    # The per-shot loop's peak does not grow with shots: 8 stand for 512.
    today = traced_peak(
        lambda: reference_sample_trajectories(
            plan, 8, np.random.default_rng(0), measured, n_qubits
        )
    )
    peak = traced_peak(
        lambda: engine.run_trajectories(n_qubits, circuit, 512, seed=0, plan=plan)
    )
    engine.close()
    memo = branch_memo_bytes(n_qubits, resets)
    assert memo <= BRANCH_MEMO_MAX_BYTES
    assert peak <= today + memo


def test_estimate_job_bytes_counts_the_memo_for_reset_jobs():
    plain = estimate_job_bytes(12, 512)
    assert estimate_job_bytes(12, 512, resets=0) == plain
    assert estimate_job_bytes(12, 512, resets=2) == plain + branch_memo_bytes(12, 2)
    # Single precision: inner states halve, leaf samplers do not.
    single = estimate_job_bytes(12, 512, "single", resets=2)
    assert single - estimate_job_bytes(12, 512, "single") == branch_memo_bytes(12, 2, 8)
    # Wide jobs reserve the bound, not the full tree.
    assert branch_memo_bytes(24, 4) == BRANCH_MEMO_MAX_BYTES


def test_the_broker_reserves_the_memo_for_a_reset_job():
    tracer = enable_tracing()
    circuit = layered_reset_circuit(6, 2)
    with QuantumJobService(
        workers=1, backend_options={"method": "statevector"}
    ) as service:
        handle = service.submit(circuit, shots=64)
        handle.result(timeout=60)
        trace_id = handle.trace_id
    admission = [s for s in tracer.spans(trace_id) if s.name == "admission"]
    assert admission
    requested = admission[0].attributes["requested_bytes"]
    assert requested == estimate_job_bytes(6, 64, resets=2)


# ---------------------------------------------------------------------------
# Observability
# ---------------------------------------------------------------------------


def replay_spans(tracer, trace_id):
    return [
        s
        for s in tracer.spans(trace_id)
        if s.name == "replay" and s.attributes.get("mode") == "trajectories"
    ]


def test_the_replay_span_attributes_the_tree():
    tracer = enable_tracing()
    circuit = layered_reset_circuit(6, 1)
    with LocalBackend(engine=ParallelSimulationEngine(num_threads=2)) as backend:
        with tracer.span("job") as root:
            backend.execute(circuit, 64, seed=3)
    (span,) = replay_spans(tracer, root.trace_id)
    # The root and both outcomes of the one reset, each replayed once.
    assert span.attributes["branches"] == 3
    assert span.attributes["segment_replays"] == 3
    assert span.attributes["shots"] == 64


def test_sharded_replay_spans_attribute_the_tree(sharded2):
    tracer = enable_tracing()
    circuit = layered_reset_circuit(6, 1)
    with tracer.span("job") as root:
        sharded2.execute(circuit, 64, n_qubits=6, seed=3)
    spans = replay_spans(tracer, root.trace_id)
    assert len(spans) == 1  # one tree per job, on one shard
    for span in spans:
        # The root and whichever outcomes the job's 64 shots took.
        assert 2 <= span.attributes["branches"] == span.attributes["segment_replays"] <= 3
