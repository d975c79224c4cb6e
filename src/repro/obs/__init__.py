"""Zero-dependency observability for the execution stack.

Three pillars, all off by default:

* :mod:`repro.obs.trace` — structured spans with parent/child links whose
  context propagates across dispatcher threads, so one broker job yields a
  single tree: queue-wait → cache lookup → compile → replay → result
  reconcile.
* :mod:`repro.obs.metrics` — fixed-bucket latency histograms (p50/p95/p99)
  backing the broker's :class:`~repro.service.metrics.MetricsSnapshot`.
* :mod:`repro.obs.profiler` — opt-in per-kernel replay profiler attributing
  plan-replay time to each kernel class; the measured constants the
  calibration roadmap item needs.

:mod:`repro.obs.export` renders any of it as Prometheus text exposition,
plain JSON, or Chrome trace-event JSON (loadable in Perfetto).
"""

from __future__ import annotations

from .export import chrome_trace_events, to_chrome_trace, to_json, to_prometheus
from .metrics import DEFAULT_LATENCY_BUCKETS, HistogramSnapshot, LatencyHistogram
from .profiler import (
    KernelTiming,
    ProfileSnapshot,
    ReplayProfiler,
    active_profiler,
    disable_profiler,
    enable_profiler,
)
from .trace import (
    Span,
    TraceContext,
    Tracer,
    disable_tracing,
    enable_tracing,
    get_tracer,
)

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "HistogramSnapshot",
    "KernelTiming",
    "LatencyHistogram",
    "ProfileSnapshot",
    "ReplayProfiler",
    "Span",
    "TraceContext",
    "Tracer",
    "active_profiler",
    "chrome_trace_events",
    "disable_profiler",
    "disable_tracing",
    "enable_profiler",
    "enable_tracing",
    "get_tracer",
    "to_chrome_trace",
    "to_json",
    "to_prometheus",
]
