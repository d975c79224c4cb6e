"""repro.service — a high-throughput quantum job broker.

This subsystem layers a multi-tenant execution service on top of the
thread-safe runtime the paper contributes.  Client threads submit circuit
jobs to a :class:`QuantumJobService` and receive :class:`JobHandle` futures;
a dispatcher pool of worker threads — each holding its own accelerator clone
through the QPUManager — drains a bounded priority queue.  Identical jobs
are deduplicated twice: concurrently-pending ones coalesce into a single
backend execution (:mod:`repro.service.batching`), and repeated ones are
served from a bounded LRU result cache with shot-count reconciliation
(:mod:`repro.service.cache`).  :mod:`repro.service.metrics` exposes
throughput, queue-depth, cache and latency counters.

The fault-tolerant lifecycle tier rides on the same broker: per-job
deadlines and cooperative cancellation (:mod:`repro.cancellation`) and
memory-budget admission control (:mod:`repro.service.admission`).

Parameter sweeps are first-class jobs (:mod:`repro.service.sweep`):
``submit_sweep`` compiles one parametric circuit once and fans N bindings
out across the execution lanes with in-place rebinds, streaming per-binding
results through a :class:`SweepHandle`; ``gradient`` ships parameter-shift
gradients as one ``2·P``-binding expectation sweep.
"""

from .admission import AdmissionController, AdmissionTicket, estimate_job_bytes
from .batching import BatchingJobQueue, PendingBatch
from .broker import QuantumJobService
from .cache import CachedResult, CacheStats, ResultCache, subsample_counts
from .dispatcher import DispatcherPool
from .job import JobHandle, JobPriority, JobResult, JobSpec
from .keys import (
    binding_key,
    canonical_binding,
    circuit_content_hash,
    config_fingerprint,
    job_key,
    sweep_key,
)
from .metrics import BackendLatency, MetricsSnapshot, ServiceMetrics
from .sweep import BindingResult, SweepHandle

__all__ = [
    "QuantumJobService",
    "AdmissionController",
    "AdmissionTicket",
    "estimate_job_bytes",
    "JobHandle",
    "JobPriority",
    "JobResult",
    "JobSpec",
    "BatchingJobQueue",
    "PendingBatch",
    "DispatcherPool",
    "ResultCache",
    "CachedResult",
    "CacheStats",
    "subsample_counts",
    "job_key",
    "sweep_key",
    "binding_key",
    "canonical_binding",
    "SweepHandle",
    "BindingResult",
    "circuit_content_hash",
    "config_fingerprint",
    "ServiceMetrics",
    "MetricsSnapshot",
    "BackendLatency",
]
