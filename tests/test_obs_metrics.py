"""Tests for latency histograms, backend-label validation, and exporters.

Covers :mod:`repro.obs.metrics` (bucket placement, quantile interpolation,
merging), the satellite fix making ``ServiceMetrics.observe_latency``
validate its backend label the way ``increment`` always has, and the
Prometheus / JSON / Chrome-trace renderers in :mod:`repro.obs.export`.
"""

import json

import pytest

from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    LatencyHistogram,
    Tracer,
    chrome_trace_events,
    to_chrome_trace,
    to_json,
    to_prometheus,
)
from repro.service.metrics import (
    BackendLatency,
    ServiceMetrics,
    normalize_backend_label,
)


class TestLatencyHistogram:
    def test_observation_lands_in_the_le_bucket(self):
        hist = LatencyHistogram(bounds=(0.001, 0.01, 0.1))
        hist.observe(0.001)  # exactly on a bound -> that bucket (le semantics)
        hist.observe(0.0005)
        hist.observe(0.05)
        hist.observe(5.0)  # overflow
        snap = hist.snapshot()
        assert snap.counts == (2, 0, 1, 1)
        assert snap.count == 4
        assert snap.total_seconds == pytest.approx(5.0515)
        assert snap.min_seconds == 0.0005
        assert snap.max_seconds == 5.0

    def test_quantiles_interpolate_within_buckets(self):
        hist = LatencyHistogram(bounds=(1.0, 2.0))
        for _ in range(100):
            hist.observe(1.5)
        snap = hist.snapshot()
        # All mass in the (1, 2] bucket: every quantile lands inside it.
        assert 1.0 <= snap.p50_seconds <= 2.0
        assert 1.0 <= snap.p99_seconds <= 2.0
        assert snap.mean_seconds == pytest.approx(1.5)

    def test_quantiles_clamped_to_observed_range(self):
        hist = LatencyHistogram()
        hist.observe(0.003)
        snap = hist.snapshot()
        # One sample: every quantile IS that sample, not a bucket edge.
        assert snap.p50_seconds == pytest.approx(0.003)
        assert snap.p99_seconds == pytest.approx(0.003)

    def test_overflow_quantile_reports_observed_max(self):
        hist = LatencyHistogram(bounds=(0.001,))
        hist.observe(42.0)
        assert hist.snapshot().p99_seconds == pytest.approx(42.0)

    def test_empty_histogram(self):
        snap = LatencyHistogram().snapshot()
        assert snap.count == 0
        assert snap.mean_seconds == 0.0
        assert snap.p95_seconds == 0.0

    def test_quantile_validates_range(self):
        with pytest.raises(ValueError):
            LatencyHistogram().snapshot().quantile(1.5)

    def test_merge_folds_counts_and_extrema(self):
        a = LatencyHistogram()
        b = LatencyHistogram()
        a.observe(0.001)
        b.observe(1.0)
        b.observe(0.0001)
        a.merge(b)
        snap = a.snapshot()
        assert snap.count == 3
        assert snap.min_seconds == 0.0001
        assert snap.max_seconds == 1.0

    def test_merge_rejects_mismatched_bounds(self):
        with pytest.raises(ValueError, match="bounds"):
            LatencyHistogram(bounds=(1.0,)).merge(LatencyHistogram(bounds=(2.0,)))

    def test_cumulative_counts_end_at_total(self):
        hist = LatencyHistogram(bounds=(0.01, 0.1))
        for s in (0.005, 0.05, 0.5):
            hist.observe(s)
        assert hist.snapshot().cumulative_counts() == (1, 2, 3)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            LatencyHistogram(bounds=())
        with pytest.raises(ValueError):
            LatencyHistogram(bounds=(0.0, 1.0))

    def test_default_buckets_are_sorted_and_positive(self):
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(DEFAULT_LATENCY_BUCKETS)
        assert all(b > 0 for b in DEFAULT_LATENCY_BUCKETS)


class TestBackendLabelValidation:
    """Satellite fix: observe_latency now mirrors increment's strictness."""

    def test_labels_are_trimmed_and_lowercased(self):
        assert normalize_backend_label("  QPP ") == "qpp"
        assert normalize_backend_label("shard-2.local:9") == "shard-2.local:9"

    @pytest.mark.parametrize(
        "junk", ["", "   ", "-leading", "has space", "semi;colon", 'quo"te', None, 7]
    )
    def test_junk_labels_raise_key_error(self, junk):
        with pytest.raises(KeyError):
            normalize_backend_label(junk)

    def test_observe_latency_rejects_unknown_junk_like_increment(self):
        metrics = ServiceMetrics()
        with pytest.raises(KeyError):
            metrics.increment("no_such_counter")
        with pytest.raises(KeyError):
            metrics.observe_latency("", 0.1)
        with pytest.raises(KeyError):
            metrics.observe_latency(None, 0.1)
        # No phantom backend was minted by the failed observations.
        assert metrics.snapshot().backend_latency == {}

    def test_observe_latency_normalises_before_bucketing(self):
        metrics = ServiceMetrics()
        metrics.observe_latency("QPP", 0.01)
        metrics.observe_latency(" qpp ", 0.02)
        snap = metrics.snapshot()
        assert list(snap.backend_latency) == ["qpp"]
        assert snap.backend_latency["qpp"].executions == 2


class TestBackendLatencyQuantiles:
    def test_snapshot_reports_quantiles_per_backend(self):
        metrics = ServiceMetrics()
        for ms in (1, 2, 3, 4, 200):
            metrics.observe_latency("local", ms / 1000.0)
        agg = metrics.snapshot().backend_latency["local"]
        assert agg.executions == 5
        assert agg.histogram is not None
        assert agg.p50_seconds < agg.p95_seconds <= agg.p99_seconds
        assert agg.p99_seconds <= 0.2 + 1e-9
        assert agg.mean_seconds == pytest.approx(0.042)

    def test_legacy_construction_falls_back_to_mean(self):
        agg = BackendLatency(executions=4, total_seconds=2.0)
        assert agg.histogram is None
        assert agg.p50_seconds == agg.p95_seconds == agg.mean_seconds == 0.5


class TestExporters:
    def _snapshot(self):
        metrics = ServiceMetrics()
        metrics.increment("submitted", 3)
        metrics.increment("completed", 2)
        metrics.observe_latency("local", 0.004)
        metrics.observe_latency("local", 0.040)
        return metrics.snapshot(queue_depth=1, active_workers=2)

    def test_prometheus_text_structure(self):
        text = to_prometheus(self._snapshot())
        assert "# TYPE repro_jobs_submitted_total counter" in text
        assert "repro_jobs_submitted_total 3" in text
        assert "repro_queue_depth 1" in text
        assert "repro_active_workers 2" in text
        # The retired process-shard lane's rows are gone.
        assert "shard" not in text and "breaker" not in text
        # Histogram exposition: cumulative buckets, +Inf, sum and count.
        assert '_bucket{backend="local",le="+Inf"} 2' in text
        assert 'repro_backend_latency_seconds_count{backend="local"} 2' in text
        # Every sample line is "name{labels} value" with a float-parsable value.
        for line in text.strip().splitlines():
            if line.startswith("#"):
                continue
            name_part, value = line.rsplit(" ", 1)
            float(value)
            assert name_part.startswith("repro_")

    def test_prometheus_cumulative_buckets_are_monotonic(self):
        text = to_prometheus(self._snapshot())
        running = [
            float(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("repro_backend_latency_seconds_bucket")
        ]
        assert running == sorted(running)
        assert running[-1] == 2

    def test_json_export_round_trips(self):
        doc = json.loads(to_json(self._snapshot()))
        assert doc["submitted"] == 3
        assert doc["active_workers"] == 2
        assert not [key for key in doc if "shard" in key or "breaker" in key]
        hist = doc["backend_latency"]["local"]["histogram"]
        assert hist["count"] == 2
        assert hist["p95_seconds"] >= hist["p50_seconds"]

    def test_chrome_trace_is_loadable_json_with_lane_metadata(self):
        tracer = Tracer()
        tracer.enable()
        with tracer.span("job", attrs={"shots": 8}) as root:
            with tracer.span("replay") as child:
                child.mark_error("boom")
        doc = json.loads(to_chrome_trace(tracer.spans(root.trace_id)))
        events = doc["traceEvents"]
        metas = [e for e in events if e["ph"] == "M"]
        slices = [e for e in events if e["ph"] == "X"]
        assert metas and metas[0]["name"] == "thread_name"
        assert len(slices) == 2
        for e in slices:
            assert isinstance(e["tid"], int)
            assert e["dur"] >= 0
        by_name = {e["name"]: e for e in slices}
        assert by_name["job"]["args"]["shots"] == 8
        assert by_name["replay"]["cat"] == "error"
        assert by_name["replay"]["args"]["parent_id"] == root.span_id

    def test_chrome_trace_accepts_raw_dict_payloads(self):
        payload = {
            "name": "remote",
            "trace_id": "t",
            "span_id": "s",
            "parent_id": None,
            "start_wall": 2.0,
            "duration": 0.001,
            "pid": 99,
            "thread": "shm-0",
        }
        events = chrome_trace_events([payload])
        slices = [e for e in events if e["ph"] == "X"]
        assert slices[0]["pid"] == 99
        assert slices[0]["ts"] == pytest.approx(2.0e6)
