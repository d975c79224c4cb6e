"""Exporters: Prometheus text, JSON, and Chrome trace-event JSON.

The renderers are duck-typed over the broker's
:class:`~repro.service.metrics.MetricsSnapshot` (absent fields render as
zero) so this module imports nothing from the service layer — the
dependency points one way, ``service → obs``, and the exporters keep
working on any snapshot-shaped object a test hands them.

Chrome trace-event output targets the stable subset of the format that
``chrome://tracing`` and Perfetto both load: complete (``"ph": "X"``)
events with microsecond ``ts``/``dur``, plus ``M``-phase metadata naming
each thread lane.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, Mapping

from .metrics import HistogramSnapshot
from .profiler import ProfileSnapshot
from .trace import Span

__all__ = ["chrome_trace_events", "to_chrome_trace", "to_json", "to_prometheus"]


def _fmt(value: float) -> str:
    """Prometheus float formatting: integers bare, floats via repr."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


#: (snapshot attribute, metric suffix, TYPE, HELP)
_COUNTER_FIELDS = (
    ("submitted", "jobs_submitted_total", "jobs accepted by submit/try_submit"),
    ("completed", "jobs_completed_total", "jobs resolved successfully"),
    ("failed", "jobs_failed_total", "jobs resolved with an error"),
    ("rejected", "jobs_rejected_total", "try_submit calls bounced by backpressure"),
    ("coalesced", "jobs_coalesced_total", "jobs attached to a pending identical batch"),
    ("cache_hits", "cache_hits_total", "jobs served entirely from the result cache"),
    ("executions", "executions_total", "backend executions dispatched"),
    (
        "sharded_executions",
        "sharded_executions_total",
        "executions routed to the process-sharded backend",
    ),
    (
        "sharded_plan_hits",
        "sharded_plan_hits_total",
        "sharded executions replaying an already-compiled worker plan",
    ),
    (
        "sweep_bindings",
        "sweep_bindings_total",
        "parameter-sweep bindings accepted via submit_sweep",
    ),
    (
        "sweep_fanout",
        "sweep_fanout_total",
        "sweep chunks fanned out to execution lanes",
    ),
    ("executed_shots", "executed_shots_total", "shots actually simulated"),
    ("served_shots", "served_shots_total", "shots delivered to clients"),
    ("shard_respawns", "shard_respawns_total", "shard workers respawned after dying"),
    (
        "breaker_fallbacks",
        "breaker_fallbacks_total",
        "batches degraded off a tripped execution lane",
    ),
    (
        "admission_rejected",
        "admission_rejected_jobs_total",
        "jobs resolved with AdmissionRejected",
    ),
    (
        "admission_admitted",
        "admission_admitted_total",
        "admission tickets granted",
    ),
    (
        "admission_rejected_tickets",
        "admission_rejected_tickets_total",
        "admission tickets refused (over budget or wait expired)",
    ),
    (
        "admission_waited",
        "admission_waited_total",
        "granted admission tickets that queued for the budget",
    ),
)

_GAUGE_FIELDS = (
    ("queue_depth", "queue_depth", "client jobs awaiting dispatch"),
    ("active_workers", "active_workers", "dispatcher threads alive"),
    ("process_shards", "process_shards", "process shards serving executions"),
    ("uptime_seconds", "uptime_seconds", "seconds since the service started"),
    (
        "admission_inflight_bytes",
        "admission_inflight_bytes",
        "bytes reserved by in-flight admission tickets",
    ),
    (
        "admission_inflight_tickets",
        "admission_inflight_tickets",
        "admission tickets granted and not yet released",
    ),
    (
        "admission_resident_bytes",
        "admission_resident_bytes",
        "bytes measured resident outside admission tickets",
    ),
)

#: (snapshot state attribute, snapshot trips attribute, lane label)
_BREAKER_FIELDS = (
    ("breaker_state", "breaker_trips", "sharded"),
)

#: Breaker states as an enum gauge (healthy → degraded order).
_BREAKER_STATE_VALUES = {"closed": 0, "half-open": 1, "open": 2}

_CACHE_FIELDS = ("hits", "partial_hits", "misses", "insertions", "top_ups", "evictions")
_PLAN_CACHE_FIELDS = ("hits", "misses", "evictions")


def to_prometheus(
    snapshot: Any,
    *,
    profile: ProfileSnapshot | None = None,
    namespace: str = "repro",
) -> str:
    """Render a metrics snapshot in Prometheus text exposition format."""
    lines: list[str] = []

    def emit(suffix: str, kind: str, help_text: str, samples: list[tuple[str, float]]):
        name = f"{namespace}_{suffix}"
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")
        for labels, value in samples:
            lines.append(f"{name}{labels} {_fmt(value)}")

    for attr, suffix, help_text in _COUNTER_FIELDS:
        emit(suffix, "counter", help_text, [("", float(getattr(snapshot, attr, 0)))])
    for attr, suffix, help_text in _GAUGE_FIELDS:
        emit(suffix, "gauge", help_text, [("", float(getattr(snapshot, attr, 0)))])

    budget = getattr(snapshot, "admission_budget_bytes", None)
    if budget is not None:
        emit(
            "admission_budget_bytes",
            "gauge",
            "admission memory budget (absent when accounting is disabled)",
            [("", float(budget))],
        )
    emit(
        "breaker_state",
        "gauge",
        "lane circuit-breaker state (0=closed, 1=half-open, 2=open)",
        [
            (
                f'{{lane="{lane}"}}',
                float(
                    _BREAKER_STATE_VALUES.get(
                        str(getattr(snapshot, state_attr, "closed")), 0
                    )
                ),
            )
            for state_attr, _, lane in _BREAKER_FIELDS
        ],
    )
    emit(
        "breaker_trips_total",
        "counter",
        "times each lane circuit breaker tripped open",
        [
            (f'{{lane="{lane}"}}', float(getattr(snapshot, trips_attr, 0)))
            for _, trips_attr, lane in _BREAKER_FIELDS
        ],
    )

    depths = tuple(getattr(snapshot, "shard_queue_depths", ()) or ())
    if depths:
        emit(
            "shard_inflight",
            "gauge",
            "work submissions in flight per shard",
            [(f'{{shard="{i}"}}', float(d)) for i, d in enumerate(depths)],
        )

    cache = getattr(snapshot, "cache", None)
    if cache is not None:
        emit(
            "result_cache_entries",
            "gauge",
            "entries in the result cache",
            [("", float(getattr(cache, "size", 0)))],
        )
        for field_name in _CACHE_FIELDS:
            emit(
                f"result_cache_{field_name}_total",
                "counter",
                f"result cache {field_name.replace('_', ' ')}",
                [("", float(getattr(cache, field_name, 0)))],
            )
    plan_cache = getattr(snapshot, "plan_cache", None)
    if plan_cache is not None:
        emit(
            "plan_cache_entries",
            "gauge",
            "compiled plans held by the plan cache",
            [("", float(getattr(plan_cache, "size", 0)))],
        )
        for field_name in _PLAN_CACHE_FIELDS:
            emit(
                f"plan_cache_{field_name}_total",
                "counter",
                f"plan cache {field_name}",
                [("", float(getattr(plan_cache, field_name, 0)))],
            )

    latency = getattr(snapshot, "backend_latency", None) or {}
    if latency:
        name = f"{namespace}_backend_latency_seconds"
        lines.append(f"# HELP {name} backend execution latency")
        lines.append(f"# TYPE {name} histogram")
        for backend in sorted(latency):
            agg = latency[backend]
            hist: HistogramSnapshot | None = getattr(agg, "histogram", None)
            label = f'backend="{backend}"'
            if hist is not None and hist.count:
                cumulative = hist.cumulative_counts()
                for bound, running in zip(hist.bounds, cumulative):
                    lines.append(
                        f'{name}_bucket{{{label},le="{_fmt(bound)}"}} {running}'
                    )
                lines.append(f'{name}_bucket{{{label},le="+Inf"}} {hist.count}')
                lines.append(f"{name}_sum{{{label}}} {_fmt(hist.total_seconds)}")
                lines.append(f"{name}_count{{{label}}} {hist.count}")
            else:
                executions = int(getattr(agg, "executions", 0))
                total = float(getattr(agg, "total_seconds", 0.0))
                lines.append(f'{name}_bucket{{{label},le="+Inf"}} {executions}')
                lines.append(f"{name}_sum{{{label}}} {_fmt(total)}")
                lines.append(f"{name}_count{{{label}}} {executions}")

    if profile is not None:
        name = f"{namespace}_replay_kernel_seconds_total"
        lines.append(f"# HELP {name} replay time attributed to each kernel class")
        lines.append(f"# TYPE {name} counter")
        for kernel in sorted(profile.kernels):
            timing = profile.kernels[kernel]
            lines.append(f'{name}{{kernel="{kernel}"}} {_fmt(timing.seconds)}')
        calls = f"{namespace}_replay_kernel_calls_total"
        lines.append(f"# HELP {calls} kernel invocations during profiled replays")
        lines.append(f"# TYPE {calls} counter")
        for kernel in sorted(profile.kernels):
            timing = profile.kernels[kernel]
            lines.append(f'{calls}{{kernel="{kernel}"}} {timing.calls}')

    return "\n".join(lines) + "\n"


def _histogram_dict(hist: HistogramSnapshot) -> dict[str, Any]:
    return {
        "bounds": list(hist.bounds),
        "counts": list(hist.counts),
        "count": hist.count,
        "total_seconds": hist.total_seconds,
        "mean_seconds": hist.mean_seconds,
        "p50_seconds": hist.p50_seconds,
        "p95_seconds": hist.p95_seconds,
        "p99_seconds": hist.p99_seconds,
    }


def to_json(
    snapshot: Any,
    *,
    profile: ProfileSnapshot | None = None,
    indent: int | None = None,
) -> str:
    """Render a metrics snapshot (and optional profile) as a JSON document."""
    doc: dict[str, Any] = {}
    for attr, suffix, _ in _COUNTER_FIELDS + _GAUGE_FIELDS:
        doc[attr] = getattr(snapshot, attr, 0)
    doc["shard_queue_depths"] = list(getattr(snapshot, "shard_queue_depths", ()) or ())
    doc["admission"] = {
        "budget_bytes": getattr(snapshot, "admission_budget_bytes", None),
        "inflight_bytes": getattr(snapshot, "admission_inflight_bytes", 0),
        "inflight_tickets": getattr(snapshot, "admission_inflight_tickets", 0),
        "resident_bytes": getattr(snapshot, "admission_resident_bytes", 0),
        "admitted": getattr(snapshot, "admission_admitted", 0),
        "rejected": getattr(snapshot, "admission_rejected_tickets", 0),
        "waited": getattr(snapshot, "admission_waited", 0),
    }
    doc["breakers"] = {
        lane: {
            "state": str(getattr(snapshot, state_attr, "closed")),
            "trips": int(getattr(snapshot, trips_attr, 0)),
        }
        for state_attr, trips_attr, lane in _BREAKER_FIELDS
    }
    for section in ("cache", "plan_cache"):
        stats = getattr(snapshot, section, None)
        if stats is not None:
            doc[section] = {
                k: v
                for k, v in vars(stats).items()
                if isinstance(v, (int, float))
            }
    latency = getattr(snapshot, "backend_latency", None) or {}
    doc["backend_latency"] = {}
    for backend, agg in latency.items():
        entry: dict[str, Any] = {
            "executions": getattr(agg, "executions", 0),
            "total_seconds": getattr(agg, "total_seconds", 0.0),
            "mean_seconds": getattr(agg, "mean_seconds", 0.0),
        }
        hist = getattr(agg, "histogram", None)
        if hist is not None:
            entry["histogram"] = _histogram_dict(hist)
        doc["backend_latency"][backend] = entry
    if profile is not None:
        doc["replay_profile"] = {
            "kernels": {
                name: {"calls": t.calls, "seconds": t.seconds}
                for name, t in profile.kernels.items()
            },
        }
    return json.dumps(doc, indent=indent, sort_keys=True)


def chrome_trace_events(spans: Iterable[Span | Mapping[str, Any]]) -> list[dict]:
    """Spans as Chrome trace events (complete ``X`` events + lane metadata).

    ``tid`` must be an integer in the trace-event format, so thread names
    are mapped to stable small integers per pid and announced through
    ``thread_name`` metadata events.
    """
    events: list[dict] = []
    lanes: dict[tuple[int, str], int] = {}
    for span in spans:
        if isinstance(span, Span):
            span = span.to_dict()
        pid = int(span.get("pid", 0))
        thread = str(span.get("thread", "")) or "main"
        lane_key = (pid, thread)
        tid = lanes.get(lane_key)
        if tid is None:
            tid = len([k for k in lanes if k[0] == pid]) + 1
            lanes[lane_key] = tid
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": thread},
                }
            )
        args = dict(span.get("attributes") or {})
        args["trace_id"] = span.get("trace_id")
        args["span_id"] = span.get("span_id")
        if span.get("parent_id"):
            args["parent_id"] = span["parent_id"]
        error = span.get("error")
        if error:
            args["error"] = error
        events.append(
            {
                "name": str(span.get("name", "span")),
                "cat": "error" if error else "repro",
                "ph": "X",
                "ts": float(span.get("start_wall", 0.0)) * 1e6,
                "dur": max(0.0, float(span.get("duration") or 0.0)) * 1e6,
                "pid": pid,
                "tid": tid,
                "args": args,
            }
        )
    return events


def to_chrome_trace(spans: Iterable[Span | Mapping[str, Any]]) -> str:
    """Spans as a Chrome/Perfetto-loadable trace-event JSON document."""
    return json.dumps(
        {"traceEvents": chrome_trace_events(spans), "displayTimeUnit": "ms"}
    )
