"""End-to-end observability across the broker/shard execution stack.

The acceptance property for the tracing subsystem: one traced job submitted
to :class:`QuantumJobService` yields a *single* stitched span tree — from
queue-wait through compile, replay (including spans recorded inside shard
worker *processes*) to result reconcile — that exports as valid Prometheus
text and Chrome trace-event JSON.  Failure
propagation matters as much: a shard worker SIGKILLed mid-batch must leave
a complete parent trace with an error-tagged attempt span and the
respawn/retry spans under the same trace id.
"""

import json
import os
import signal

from repro.algorithms.ghz import ghz_circuit
from repro.algorithms.qft import qft_circuit
from repro.exec import LocalBackend, ShardedExecutor
from repro.ir.serialization import circuit_content_hash
from repro.obs import (
    enable_profiler,
    enable_tracing,
    get_tracer,
    to_chrome_trace,
    to_prometheus,
)
from repro.service import QuantumJobService


def span_names(tracer, trace_id):
    return {s.name for s in tracer.spans(trace_id)}


def assert_single_rooted_tree(spans):
    """Every span's parent is in the trace (or it is the unique root)."""
    ids = {s.span_id for s in spans}
    roots = [s for s in spans if s.parent_id is None]
    assert len(roots) == 1, f"expected one root, got {[s.name for s in roots]}"
    for span in spans:
        if span.parent_id is not None:
            assert span.parent_id in ids, f"dangling parent on {span.name!r}"
    assert len({s.trace_id for s in spans}) == 1


class TestServiceTrace:
    def test_untraced_job_has_no_trace_id_and_records_nothing(self):
        with QuantumJobService(workers=1) as service:
            handle = service.submit(ghz_circuit(3), shots=64)
            handle.result(timeout=60)
            assert handle.trace_id is None
        assert get_tracer().spans() == []

    def test_in_process_job_yields_one_stitched_tree(self):
        tracer = enable_tracing()
        # Pin the dense lane: this test asserts the statevector span shape
        # (compile/replay/sample), which auto-routing would bypass for GHZ.
        with QuantumJobService(
            workers=2, backend_options={"method": "statevector"}
        ) as service:
            handle = service.submit(ghz_circuit(4), shots=128)
            handle.result(timeout=60)
            trace_id = handle.trace_id
        assert trace_id is not None
        spans = tracer.spans(trace_id)
        assert_single_rooted_tree(spans)
        names = span_names(tracer, trace_id)
        # The full in-process lifecycle, submit thread + dispatcher thread.
        assert {
            "job",
            "queue-wait",
            "cache-lookup",
            "backend-execute",
            "compile",
            "replay",
            "sample",
            "reconcile",
        } <= names

    def test_chunked_lane_replay_span_reaches_the_root_trace(self):
        """Above a forced chunk threshold the replay runs on the engine's
        threads; its span names that lane and sits in the job's one tree."""
        tracer = enable_tracing()
        options = {"method": "statevector", "chunk-threshold": 2}
        with QuantumJobService(workers=1, backend_options=options) as service:
            handle = service.submit(qft_circuit(6), shots=64)
            handle.result(timeout=60)
            trace_id = handle.trace_id
        spans = tracer.spans(trace_id)
        assert_single_rooted_tree(spans)
        assert {"job", "queue-wait", "compile", "replay", "reconcile"} <= span_names(
            tracer, trace_id
        )
        lanes = {s.attributes.get("lane") for s in spans if s.name == "replay"}
        assert lanes == {"ParallelSimulationEngine"}

    def test_cache_hit_closes_the_root_with_a_cache_span(self):
        tracer = enable_tracing()
        with QuantumJobService(workers=1) as service:
            first = service.submit(ghz_circuit(3), shots=64)
            first.result(timeout=60)
            second = service.submit(ghz_circuit(3), shots=32)
            result = second.result(timeout=60)
            assert result.from_cache
        spans = tracer.spans(second.trace_id)
        assert_single_rooted_tree(spans)
        assert span_names(tracer, second.trace_id) == {"job", "cache-hit"}
        (root,) = [s for s in spans if s.name == "job"]
        assert root.attributes.get("from_cache") is True

    def test_two_jobs_get_two_distinct_traces(self):
        tracer = enable_tracing()
        with QuantumJobService(workers=1, enable_cache=False) as service:
            a = service.submit(ghz_circuit(3), shots=32)
            b = service.submit(qft_circuit(3), shots=32)
            a.result(timeout=60)
            b.result(timeout=60)
        assert a.trace_id != b.trace_id
        for handle in (a, b):
            assert_single_rooted_tree(tracer.spans(handle.trace_id))

    def test_sampled_out_job_records_nothing(self):
        tracer = enable_tracing(sample_rate=0.0)
        with QuantumJobService(workers=1) as service:
            handle = service.submit(ghz_circuit(3), shots=32)
            handle.result(timeout=60)
            assert handle.trace_id is None
        assert tracer.spans() == []


class TestCrossProcessTrace:
    def test_sharded_job_stitches_worker_process_spans(self):
        tracer = enable_tracing()
        # Pin the dense lane: the shard-dispatch spans under test only
        # exist on the statevector path.
        with QuantumJobService(
            workers=1, processes=2,
            backend_options={"method": "statevector"},
        ) as service:
            handle = service.submit(ghz_circuit(4), shots=256)
            handle.result(timeout=120)
            trace_id = handle.trace_id
            snapshot = service.metrics()
        spans = tracer.spans(trace_id)
        assert_single_rooted_tree(spans)
        names = span_names(tracer, trace_id)
        assert {"job", "shard-dispatch", "shard-attempt", "shard-replay"} <= names
        # Worker-side spans really crossed the process boundary.
        parent_pid = os.getpid()
        worker_spans = [s for s in spans if s.name == "shard-replay"]
        assert worker_spans and all(s.pid != parent_pid for s in worker_spans)
        # And they carry the worker's own execution stages underneath.
        assert {"compile", "replay", "sample"} <= names
        # Both exporters accept the run's artefacts.
        chrome = json.loads(to_chrome_trace(spans))
        assert any(e["ph"] == "X" for e in chrome["traceEvents"])
        assert "repro_process_shards 2" in to_prometheus(snapshot)

    def test_sharded_profile_merges_into_parent_profiler(self):
        profiler = enable_profiler()
        with ShardedExecutor(2, name="obs-profile") as executor:
            executor.execute(qft_circuit(4), 128, seed=5)
        snap = profiler.snapshot()
        # Shot sharding replays the plan on every shard; both workers'
        # kernel counts fold into one profile.
        assert snap.total_calls > 0
        assert snap.total_kernel_seconds > 0.0

    def test_tracing_does_not_perturb_sharded_results(self):
        circuit = qft_circuit(4)
        with ShardedExecutor(2, name="obs-bits-ref") as executor:
            reference = executor.execute(circuit, 512, seed=11)
        enable_tracing()
        tracer = get_tracer()
        with ShardedExecutor(2, name="obs-bits-traced") as executor:
            with tracer.span("job"):
                traced = executor.execute(circuit, 512, seed=11)
        assert dict(traced.counts) == dict(reference.counts)


class TestFailureTrace:
    def test_sigkilled_shard_worker_leaves_a_complete_error_tagged_trace(self):
        """Kill a shard worker mid-batch: the job must still resolve, and
        its trace must be a complete tree containing the error-tagged
        attempt span plus the respawned retry under the same trace id."""
        tracer = enable_tracing()
        executor = ShardedExecutor(2, name="obs-kill")
        try:
            pids = executor.shard_pids()
            circuit = ghz_circuit(4)
            # The job runs on its content-affine shard: kill that one.
            os.kill(pids[executor.shard_for(circuit_content_hash(circuit))], signal.SIGKILL)
            with tracer.span("job") as root:
                result = executor.execute(circuit, 512, seed=9)
            assert result.total_counts() == 512
            trace_id = root.trace_id
        finally:
            executor.close()
        spans = tracer.spans(trace_id)
        assert_single_rooted_tree(spans)
        attempts = [s for s in spans if s.name == "shard-attempt"]
        failed = [s for s in attempts if s.error]
        retried = [s for s in attempts if not s.error]
        assert failed, "the killed attempt must appear as an error-tagged span"
        assert failed[0].attributes.get("respawned") is True
        assert "died" in failed[0].error
        assert retried, "the respawned retry must appear under the same trace"
        assert {s.trace_id for s in attempts} == {trace_id}
        # The retry executed: its worker spans are in the tree too.
        assert "shard-replay" in span_names(tracer, trace_id)

class TestServiceMetricsIntegration:
    def test_snapshot_reports_quantiles(self):
        with QuantumJobService(workers=1, enable_cache=False) as service:
            for _ in range(3):
                service.submit(ghz_circuit(3), shots=32).result(timeout=60)
            snapshot = service.metrics()
        agg = snapshot.backend_latency[service.backend]
        assert agg.executions == 3
        assert agg.histogram is not None
        assert 0.0 < agg.p50_seconds <= agg.p95_seconds <= agg.p99_seconds
        # The snapshot renders as Prometheus text without a profile too.
        text = to_prometheus(snapshot)
        assert "repro_backend_latency_seconds_bucket" in text
