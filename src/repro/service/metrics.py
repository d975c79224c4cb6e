"""Broker metrics: counters, per-backend latency histograms, and snapshots.

All mutation goes through one lock; :meth:`ServiceMetrics.snapshot` returns
an immutable :class:`MetricsSnapshot` so monitoring code can read a
consistent view without holding up the dispatch path.

Latencies are recorded into fixed-bucket histograms
(:class:`~repro.obs.metrics.LatencyHistogram`), so the snapshot reports
p50/p95/p99 per backend — the mean alone hides exactly the tail a broker
exists to manage.  :attr:`BackendLatency.mean_seconds` is retained for
compatibility with pre-histogram consumers.
"""

from __future__ import annotations

import re
import threading
import time
from dataclasses import dataclass, field
from typing import Mapping

from ..obs.metrics import HistogramSnapshot, LatencyHistogram
from ..simulator.plan_cache import PlanCacheStats
from .cache import CacheStats

__all__ = [
    "BackendLatency",
    "MetricsSnapshot",
    "ServiceMetrics",
    "normalize_backend_label",
]

#: Valid (normalised) backend labels: the registered accelerator names plus
#: the execution-backend names ("local", "sharded", "density", "qpp", ...).
_BACKEND_LABEL = re.compile(r"[a-z0-9][a-z0-9_.:-]*")


def normalize_backend_label(backend: object) -> str:
    """Normalise a backend label, rejecting junk instead of bucketing it.

    ``increment`` has always raised ``KeyError`` on unknown counter names
    while ``observe_latency`` silently created a bucket for any string —
    so a typo'd caller minted phantom backends that lived in every
    subsequent snapshot.  Latency labels now face the same contract:
    trimmed, lower-cased, and validated against the accelerator-name
    charset, with ``KeyError`` (matching ``increment``) on anything else.
    """
    if not isinstance(backend, str):
        raise KeyError(f"backend label must be a string, got {type(backend).__name__}")
    label = backend.strip().lower()
    if not label or not _BACKEND_LABEL.fullmatch(label):
        raise KeyError(f"invalid backend label {backend!r}")
    return label


@dataclass(frozen=True)
class BackendLatency:
    """Aggregate execution latency observed on one backend."""

    executions: int
    total_seconds: float
    #: Full fixed-bucket distribution (``None`` only for legacy constructions).
    histogram: HistogramSnapshot | None = None

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.executions if self.executions else 0.0

    def _quantile(self, q: float) -> float:
        if self.histogram is None:
            return self.mean_seconds
        return self.histogram.quantile(q)

    @property
    def p50_seconds(self) -> float:
        return self._quantile(0.50)

    @property
    def p95_seconds(self) -> float:
        return self._quantile(0.95)

    @property
    def p99_seconds(self) -> float:
        return self._quantile(0.99)


@dataclass(frozen=True)
class MetricsSnapshot:
    """Consistent view of the broker's counters at one instant."""

    #: Jobs accepted by submit/try_submit (including cache hits and riders).
    submitted: int = 0
    #: Jobs whose handle resolved successfully.
    completed: int = 0
    #: Jobs whose handle resolved with an error.
    failed: int = 0
    #: try_submit calls bounced by backpressure.
    rejected: int = 0
    #: Jobs resolved with JobCancelled (client cancel, queued or in-flight).
    cancelled: int = 0
    #: Jobs resolved with DeadlineExceeded (queued, replaying, or reconciling).
    deadline_exceeded: int = 0
    #: Jobs resolved with AdmissionRejected (memory budget refused them).
    admission_rejected: int = 0
    #: Batches the shard-lane circuit breaker degraded to in-process
    #: execution (tripped-open skips plus the failures that fed the trip).
    breaker_fallbacks: int = 0
    #: Jobs that attached to an already-pending identical batch.
    coalesced: int = 0
    #: Jobs fully served from the result cache (no backend work at all).
    cache_hits: int = 0
    #: Backend executions dispatched (batches, including top-up runs).
    executions: int = 0
    #: Executions routed to the process-sharded backend (0 without sharding).
    sharded_executions: int = 0
    #: Executions the Clifford classifier routed to the stabilizer tableau
    #: (polynomial-time lane; counted within ``executions``).
    stabilizer_executions: int = 0
    #: Sharded executions that replayed an already-compiled worker plan
    #: (the per-worker plan caches earning their keep under hash affinity).
    sharded_plan_hits: int = 0
    #: Parameter-sweep bindings accepted via ``submit_sweep`` (each binding
    #: is one row of a sweep's result table).
    sweep_bindings: int = 0
    #: Sweep chunks fanned out to execution lanes (compile-once fan-out
    #: width actually used, summed over sweeps; cache-served bindings fan
    #: out nothing).
    sweep_fanout: int = 0
    #: Shots actually simulated on backends.
    executed_shots: int = 0
    #: Shots delivered to clients (≥ executed when the cache is earning its keep).
    served_shots: int = 0
    #: Client jobs awaiting dispatch at snapshot time.
    queue_depth: int = 0
    #: Dispatcher threads alive at snapshot time.
    active_workers: int = 0
    #: Process shards serving executions (0 = in-process dispatch).
    process_shards: int = 0
    #: Shard worker processes respawned after dying mid-batch (health).
    shard_respawns: int = 0
    #: In-flight work per shard at snapshot time (empty without sharding;
    #: a persistently deep entry is a hot key-affinity shard).
    shard_queue_depths: tuple[int, ...] = ()
    #: Live shared-memory replay workers across this process's open pools
    #: (0 when the shm lane is unused; shard-hosted pools live in worker
    #: processes and are reported by their own process, not here).
    shm_workers: int = 0
    #: shm worker sets rebuilt after a worker death (health).
    shm_respawns: int = 0
    #: shm step barriers aborted while recovering from a worker death.
    shm_barrier_aborts: int = 0
    #: Bytes resident in shared-memory amplitude segments (state + scratch).
    shm_resident_bytes: int = 0
    #: Resident shm state slots: one per open pool in this process.
    shm_resident_states: int = 0
    #: Shard-lane circuit-breaker state at snapshot time
    #: ("closed" / "open" / "half-open"; "closed" without sharding).
    breaker_state: str = "closed"
    #: Times the shard-lane breaker has tripped open since start (health).
    breaker_trips: int = 0
    #: In-process shm-lane circuit-breaker state at snapshot time
    #: ("closed" / "open" / "half-open"; "closed" when the lane is unused).
    shm_breaker_state: str = "closed"
    #: Times the shm-lane breaker has tripped open since start (health).
    shm_breaker_trips: int = 0
    #: Admission memory budget (``None`` = accounting disabled).
    admission_budget_bytes: int | None = None
    #: Bytes reserved by in-flight admission tickets at snapshot time.
    admission_inflight_bytes: int = 0
    #: Tickets currently granted and not yet released.
    admission_inflight_tickets: int = 0
    #: Bytes the admission controller measured resident outside tickets
    #: (compiled plans, cached histograms, shm segments) at snapshot time.
    admission_resident_bytes: int = 0
    #: Tickets granted since start.
    admission_admitted: int = 0
    #: Tickets refused since start (budget exceeded or wait expired).
    admission_rejected_tickets: int = 0
    #: Granted tickets that had to queue before fitting the budget.
    admission_waited: int = 0
    #: Seconds since the service started.
    uptime_seconds: float = 0.0
    #: Cache counter snapshot.
    cache: CacheStats = field(default_factory=CacheStats)
    #: Execution-plan cache snapshot (compilation amortisation across jobs).
    plan_cache: PlanCacheStats = field(default_factory=PlanCacheStats)
    #: Per-backend execution latency aggregates (histogram-backed).
    backend_latency: Mapping[str, BackendLatency] = field(default_factory=dict)

    @property
    def throughput_jobs_per_second(self) -> float:
        return self.completed / self.uptime_seconds if self.uptime_seconds > 0 else 0.0

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of submitted jobs fully served from the cache.

        Delegates to the per-lookup cache stats (every submit performs one
        lookup), so coalesced riders count as the misses they are — mixing
        per-job hits with per-*batch* executions would overstate the rate.
        """
        return self.cache.hit_rate


class ServiceMetrics:
    """Lock-protected mutable counters behind the snapshot API."""

    _COUNTERS = (
        "submitted",
        "completed",
        "failed",
        "rejected",
        "cancelled",
        "deadline_exceeded",
        "admission_rejected",
        "breaker_fallbacks",
        "coalesced",
        "cache_hits",
        "executions",
        "sharded_executions",
        "stabilizer_executions",
        "sharded_plan_hits",
        "sweep_bindings",
        "sweep_fanout",
        "executed_shots",
        "served_shots",
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts = {name: 0 for name in self._COUNTERS}
        self._latency: dict[str, LatencyHistogram] = {}
        self._started = time.monotonic()

    def increment(self, counter: str, amount: int = 1) -> None:
        if counter not in self._counts:
            raise KeyError(f"unknown metrics counter {counter!r}")
        with self._lock:
            self._counts[counter] += amount

    def observe_latency(self, backend: str, seconds: float) -> None:
        label = normalize_backend_label(backend)
        with self._lock:
            histogram = self._latency.get(label)
            if histogram is None:
                histogram = self._latency[label] = LatencyHistogram()
        histogram.observe(seconds)

    def snapshot(
        self,
        queue_depth: int = 0,
        active_workers: int = 0,
        cache: CacheStats | None = None,
        plan_cache: PlanCacheStats | None = None,
        process_shards: int = 0,
        shard_respawns: int = 0,
        shard_queue_depths: tuple[int, ...] = (),
        shm_workers: int = 0,
        shm_respawns: int = 0,
        shm_barrier_aborts: int = 0,
        shm_resident_bytes: int = 0,
        shm_resident_states: int = 0,
        breaker_state: str = "closed",
        breaker_trips: int = 0,
        shm_breaker_state: str = "closed",
        shm_breaker_trips: int = 0,
        admission_budget_bytes: int | None = None,
        admission_inflight_bytes: int = 0,
        admission_inflight_tickets: int = 0,
        admission_resident_bytes: int = 0,
        admission_admitted: int = 0,
        admission_rejected_tickets: int = 0,
        admission_waited: int = 0,
    ) -> MetricsSnapshot:
        with self._lock:
            counts = dict(self._counts)
            histograms = dict(self._latency)
            uptime = time.monotonic() - self._started
        latency = {}
        for backend, histogram in histograms.items():
            hist = histogram.snapshot()
            latency[backend] = BackendLatency(
                executions=hist.count,
                total_seconds=hist.total_seconds,
                histogram=hist,
            )
        return MetricsSnapshot(
            queue_depth=queue_depth,
            active_workers=active_workers,
            process_shards=process_shards,
            shard_respawns=shard_respawns,
            shard_queue_depths=tuple(shard_queue_depths),
            shm_workers=shm_workers,
            shm_respawns=shm_respawns,
            shm_barrier_aborts=shm_barrier_aborts,
            shm_resident_bytes=shm_resident_bytes,
            shm_resident_states=shm_resident_states,
            breaker_state=breaker_state,
            breaker_trips=breaker_trips,
            shm_breaker_state=shm_breaker_state,
            shm_breaker_trips=shm_breaker_trips,
            admission_budget_bytes=admission_budget_bytes,
            admission_inflight_bytes=admission_inflight_bytes,
            admission_inflight_tickets=admission_inflight_tickets,
            admission_resident_bytes=admission_resident_bytes,
            admission_admitted=admission_admitted,
            admission_rejected_tickets=admission_rejected_tickets,
            admission_waited=admission_waited,
            uptime_seconds=uptime,
            cache=cache or CacheStats(),
            plan_cache=plan_cache or PlanCacheStats(),
            backend_latency=latency,
            **counts,
        )
