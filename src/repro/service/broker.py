"""QuantumJobService: the multi-tenant job broker over the thread-safe runtime.

The broker turns the paper's thread-safe runtime (per-thread accelerator
clones, locked registry and allocation) into an actual service: many client
threads submit circuit-execution jobs and get futures back, while a fixed
dispatcher pool drains a bounded priority queue.  Three mechanisms keep the
backend work well below one execution per request:

1. **Result cache** — jobs are keyed by a content hash of (circuit, backend,
   config); a repeat submission is answered from the cache, subsampled down
   to the requested shot count, without touching a simulator.  Requests for
   *more* shots than cached trigger a top-up run of only the missing shots.
2. **Batch coalescing** — identical jobs that are concurrently pending fuse
   into one :class:`~repro.service.batching.PendingBatch`; a single backend
   execution at the largest requested shot count resolves every rider.
3. **Backpressure** — the queue bounds pending client jobs; ``submit``
   blocks for a slot, ``try_submit`` returns ``None`` immediately (and the
   rejection is counted in the metrics snapshot).

With ``processes=N`` the broker adds a fourth mechanism, **process
sharding**: dispatcher threads stop simulating in-process and instead hand
each cache-missed batch to the shard of a
:class:`~repro.exec.sharded.ShardedExecutor` that owns the batch's job key
(hash affinity), so every shard's worker process keeps re-receiving — and
replaying from its warm plan cache — the circuits it has already compiled.
This is the configuration that scales the broker past the GIL.

Typical use::

    with QuantumJobService(backend="qpp", workers=4, processes=4) as service:
        handles = [service.submit(circuit, shots=1024) for _ in range(16)]
        histograms = [handle.counts() for handle in handles]
        print(service.metrics().cache_hit_rate)

Async clients bridge the same futures into an event loop::

    handle = await service.asubmit(circuit, shots=1024)
    result = await handle
"""

from __future__ import annotations

import asyncio
import functools
import math
import secrets
import threading
import time
from typing import Mapping

import numpy as np

from ..cancellation import CancelToken, cancel_scope, combine_tokens
from ..config import get_config
from ..exceptions import (
    DeadlineExceeded,
    ExecutionError,
    JobCancelled,
    ServiceNotFoundError,
    ServiceOverloadedError,
)
from ..exec.retry import RetryPolicy, is_infrastructure_failure
from ..ir.composite import CompositeInstruction
from ..ir.transforms.clifford import classify_clifford
from ..obs.trace import get_tracer
from ..runtime.accelerator import Accelerator
from ..runtime.buffer import AcceleratorBuffer
from ..simulator.cost_model import SIMULATION_METHODS, SimulationCostModel
from .admission import AdmissionController, estimate_job_bytes
from .batching import BatchingJobQueue, PendingBatch
from .breaker import CircuitBreaker
from .cache import ResultCache, subsample_counts
from .dispatcher import DispatcherPool
from .job import JobHandle, JobPriority, JobResult, JobSpec
from .keys import _combine, canonical_binding, circuit_content_hash, config_fingerprint
from .metrics import MetricsSnapshot, ServiceMetrics
from .sweep import BindingResult, SweepHandle, _SweepChunk

__all__ = ["QuantumJobService"]


def _plan_cache_bytes() -> int:
    """Bytes resident in the shared execution-plan cache (admission term)."""
    from ..simulator.plan_cache import get_plan_cache

    return get_plan_cache().memory_bytes()


def _reset_count(circuit) -> int:
    """Mid-circuit resets in ``circuit`` (what its branch tree may hold)."""
    return circuit.memoised("resets", lambda: circuit.gate_counts()["RESET"])


class QuantumJobService:
    """High-throughput broker dispatching quantum jobs to a worker pool."""

    def __init__(
        self,
        backend: str | None = None,
        workers: int = 4,
        max_pending: int = 64,
        cache_capacity: int = 256,
        enable_cache: bool = True,
        backend_options: Mapping[str, object] | None = None,
        name: str = "job-broker",
        auto_start: bool = True,
        processes: int = 0,
        memory_budget_bytes: int | None = None,
        admission_wait_seconds: float = 5.0,
        retry_policy: RetryPolicy | None = None,
        breaker_failure_threshold: int = 3,
        breaker_cooldown_seconds: float = 5.0,
        tenant_defaults: Mapping[str, Mapping[str, object]] | None = None,
    ):
        self.name = name
        #: Per-tenant submission defaults: ``{tenant: {"deadline": seconds,
        #: "retry_policy": RetryPolicy}}``.  Applied to submits (and every
        #: binding of a sweep) that do not carry their own deadline/policy;
        #: an explicit argument always wins.  Unknown tenants get no
        #: defaults — tenancy here is a defaulting namespace, not auth.
        self._tenant_defaults: dict[str, dict[str, object]] = {
            str(tenant): dict(defaults)
            for tenant, defaults in (tenant_defaults or {}).items()
        }
        #: When False, jobs queue up until an explicit :meth:`start` — useful
        #: for deterministic batching tests and delayed-start deployments.
        self.auto_start = auto_start
        self.backend = (backend or get_config().default_accelerator).lower()
        # Fail at construction, not in a worker thread where clients would
        # only ever observe result() timeouts.
        from ..runtime.service_registry import get_registry

        if not get_registry().has_service("accelerator", self.backend):
            raise ServiceNotFoundError(
                f"no accelerator {self.backend!r} registered; "
                f"known: {get_registry().registered_names('accelerator')}"
            )
        self.backend_options = dict(backend_options or {})
        #: The configuration half of every key this service derives.  Backend
        #: and options are fixed from here on, so it is fingerprinted once.
        self._config_fingerprint = config_fingerprint(self.backend, self.backend_options)
        # Lifecycle knobs may also arrive through backend_options (their
        # kebab-case names are declared non-semantic in keys.py, so they
        # never fragment the result cache); explicit arguments win.
        if memory_budget_bytes is None:
            raw_budget = self.backend_options.get("memory-budget-bytes")
            memory_budget_bytes = None if raw_budget is None else int(raw_budget)  # type: ignore[arg-type]
        raw_wait = self.backend_options.get("admission-wait-seconds")
        if raw_wait is not None:
            admission_wait_seconds = float(raw_wait)  # type: ignore[arg-type]
        raw_threshold = self.backend_options.get("breaker-failure-threshold")
        if raw_threshold is not None:
            breaker_failure_threshold = int(raw_threshold)  # type: ignore[arg-type]
        raw_cooldown = self.backend_options.get("breaker-cooldown-seconds")
        if raw_cooldown is not None:
            breaker_cooldown_seconds = float(raw_cooldown)  # type: ignore[arg-type]
        if retry_policy is None:
            raw_attempts = self.backend_options.get("retry-max-attempts")
            if raw_attempts is not None:
                retry_policy = RetryPolicy(
                    max_attempts=int(raw_attempts),  # type: ignore[arg-type]
                    base_delay=0.01,
                    max_delay=0.5,
                )
        #: Process shards (0/1 = classic in-process dispatch).
        self.processes = int(processes or 0)
        self._sharded = None
        if self.processes > 1:
            if self.backend != "qpp":
                raise ExecutionError(
                    f"process sharding replays compiled plans and requires the "
                    f"'qpp' backend, got {self.backend!r}"
                )
            from ..exec.sharded import ShardedExecutor

            self._sharded = ShardedExecutor(
                self.processes, name=f"{name}-shard", retry_policy=retry_policy
            )
        self._queue = BatchingJobQueue(max_pending=max_pending)
        self._cache: ResultCache | None = (
            ResultCache(cache_capacity) if enable_cache else None
        )
        self._metrics = ServiceMetrics()
        self._pool = DispatcherPool(
            self._queue,
            self._process_batch,
            workers=workers,
            backend=self.backend,
            backend_options=self.backend_options,
            name=name,
            on_init_failure=self._worker_init_failed,
        )
        #: Memory-budget admission control (None budget = accounting off).
        #: Resident terms are read from the live structures — compiled
        #: plans, the result cache's own byte total — not from counters
        #: kept here.
        self._admission = AdmissionController(
            memory_budget_bytes,
            max_wait=admission_wait_seconds,
            resident_sources=(_plan_cache_bytes,),
        )
        if self._cache is not None:
            self._admission.add_resident_source(self._cache.memory_bytes)
        #: Circuit breaker over the process-shard lane: repeated
        #: infrastructure failures trip it and batches degrade to the
        #: dispatcher thread's in-process accelerator clone until the lane
        #: proves healthy again (half-open probe after the cooldown).
        self._breaker = CircuitBreaker(
            name=f"{name}-sharded",
            failure_threshold=breaker_failure_threshold,
            cooldown_seconds=breaker_cooldown_seconds,
        )
        #: Precision tier every execution this broker dispatches runs at
        #: ("double" = complex128, "single" = complex64).  Semantic: it is
        #: part of the job key, so cached and freshly executed histograms
        #: always agree on it.
        self.precision = str(self.backend_options.get("precision", "double"))
        #: Simulation-method routing policy: ``auto`` lets the Clifford
        #: classifier steer eligible jobs onto the stabilizer tableau,
        #: ``statevector`` is the documented opt-out (always dense), and
        #: ``stabilizer`` forces the tableau (non-Clifford jobs then fail
        #: with the classifier's obstruction).  Validated here so a typo
        #: fails at construction, not in a dispatcher thread.
        self.method = str(self.backend_options.get("method", "auto")).strip().lower()
        if self.method not in SIMULATION_METHODS:
            raise ExecutionError(
                f"unknown simulation method {self.backend_options.get('method')!r}; "
                f"expected one of {SIMULATION_METHODS}"
            )
        if self.method == "stabilizer" and self.backend != "qpp":
            raise ExecutionError(
                f"the stabilizer method routes within the 'qpp' backend's "
                f"dispatch path, got backend {self.backend!r}"
            )
        #: Categorical method router (the tableau-vs-dense choice is not a
        #: constant-factor comparison, so an uncalibrated model is fine).
        self._cost_model = SimulationCostModel()
        self._stabilizer_backend = None
        #: Per-thread subsampling generator (see :meth:`_rng`).
        self._rng_local = threading.local()
        self._state_lock = threading.Lock()
        self._started = False
        self._shut_down = False
        #: Caller-thread accelerator clone for synchronous expectation
        #: sweeps (lazily created by :meth:`_sync_backend`).
        self._sync_qpu: Accelerator | None = None

    # -- lifecycle ----------------------------------------------------------------
    def start(self) -> "QuantumJobService":
        """Start the dispatcher pool (idempotent; ``submit`` also starts it)."""
        with self._state_lock:
            if self._shut_down:
                raise ExecutionError(f"service {self.name!r} has been shut down")
            if not self._started:
                self._pool.start()
                self._started = True
        return self

    def shutdown(self, wait: bool = True, timeout: float | None = None) -> None:
        """Stop accepting jobs; workers drain the queue, then exit.

        Exception-safe: the process-shard executor (when present) is closed
        even if draining or joining raises, so no worker process is ever
        orphaned by an error path.
        """
        with self._state_lock:
            if self._shut_down:
                return
            self._shut_down = True
            started = self._started
        try:
            self._queue.close()
            if started:
                if wait:
                    self._pool.join(timeout)
            else:
                # No worker ever ran (auto_start=False): jobs queued before
                # this shutdown would otherwise strand their clients forever.
                self._drain_and_fail(
                    ExecutionError(
                        f"service {self.name!r} was shut down before its "
                        "dispatcher pool started"
                    )
                )
        finally:
            if self._sharded is not None:
                self._sharded.close(wait=wait)

    def __enter__(self) -> "QuantumJobService":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    # -- submission ----------------------------------------------------------------
    def submit(
        self,
        circuit: CompositeInstruction,
        shots: int | None = None,
        priority: JobPriority = JobPriority.NORMAL,
        timeout: float | None = None,
        deadline: float | None = None,
        tenant: str | None = None,
    ) -> JobHandle:
        """Submit a job, blocking while the queue is full.

        ``timeout`` bounds the wait for a *queue slot* (backpressure);
        ``deadline`` bounds the *job itself* — relative seconds from now,
        after which the job resolves with
        :class:`~repro.exceptions.DeadlineExceeded` instead of a result
        (checked at dequeue, pre-compile and per-step replay boundaries, so
        even a mid-flight replay is abandoned).  ``tenant`` selects the
        per-tenant default deadline/retry policy for submissions that do
        not carry their own.  Raises :class:`ServiceOverloadedError` only
        if ``timeout`` elapses while waiting for a queue slot.
        """
        return self._submit(
            circuit,
            shots,
            priority,
            block=True,
            timeout=timeout,
            deadline=deadline,
            tenant=tenant,
        )

    def try_submit(
        self,
        circuit: CompositeInstruction,
        shots: int | None = None,
        priority: JobPriority = JobPriority.NORMAL,
        deadline: float | None = None,
        tenant: str | None = None,
    ) -> JobHandle | None:
        """Non-blocking submit: ``None`` when backpressure rejects the job."""
        try:
            return self._submit(
                circuit,
                shots,
                priority,
                block=False,
                timeout=None,
                deadline=deadline,
                tenant=tenant,
            )
        except ServiceOverloadedError:
            return None

    def submit_sweep(
        self,
        circuit: CompositeInstruction,
        bindings,
        shots: int | None = None,
        priority: JobPriority = JobPriority.NORMAL,
        timeout: float | None = None,
        deadline: float | None = None,
        tenant: str | None = None,
    ) -> "SweepHandle":
        """Submit a parameter sweep: one parametric circuit, N bindings.

        The circuit is compiled **once** and shipped to the execution lane
        once (by content hash); each binding is evaluated by an in-place
        rebind of the cached parametric plan, with per-binding counts
        bit-identical to submitting the pre-bound circuits independently at
        the same seed.  Results stream through the returned
        :class:`~repro.service.sweep.SweepHandle` as bindings complete.

        ``deadline`` (or the tenant/service default) applies per binding;
        each binding carries its own cancel token, so
        ``handle.cancel_binding(i)`` abandons one row without touching the
        rest.  Bindings whose per-binding cache entry already covers
        ``shots`` resolve immediately without queueing.
        """
        if self._shut_down:
            raise ExecutionError(f"service {self.name!r} has been shut down")
        if not circuit.is_parameterized:
            raise ExecutionError(
                f"circuit {circuit.name!r} has no free parameters; "
                "use submit for pre-bound circuits"
            )
        bindings = list(bindings)
        if not bindings:
            raise ExecutionError("submit_sweep needs at least one binding")
        if deadline is not None and deadline <= 0:
            raise ExecutionError(
                f"deadline must be positive seconds from submission, got {deadline}"
            )
        if self.auto_start:
            self.start()
        resolved_shots = shots if shots is not None else get_config().shots
        deadline = self._tenant_deadline(tenant, deadline)
        canon = [canonical_binding(b) for b in bindings]
        circuit_hash = circuit_content_hash(circuit)
        skey = _combine(circuit_hash, self._config_fingerprint, "sweep", canon)
        bkeys = [
            _combine(circuit_hash, self._config_fingerprint, "binding", binding)
            for binding in canon
        ]
        tokens = [CancelToken(timeout=deadline) for _ in bindings]
        handle = SweepHandle(skey, canon, bkeys, resolved_shots, self.backend, tokens)
        handle._service_alive = self._can_resolve
        self._metrics.increment("submitted", len(bindings))
        self._metrics.increment("sweep_bindings", len(bindings))
        tracer = get_tracer()
        root = tracer.span(
            "sweep",
            attrs={
                "backend": self.backend,
                "shots": resolved_shots,
                "key": skey[:16],
                "bindings": len(bindings),
            },
        )
        handle._trace_span = root
        submit_wall = time.time()

        # Per-binding cache fast path: a binding whose member key is warm
        # resolves now and never fans out.
        pending: list[int] = []
        for index, bkey in enumerate(bkeys):
            entry = (
                self._cache.lookup(bkey, resolved_shots)
                if self._cache is not None
                else None
            )
            if entry is not None and entry.shots >= resolved_shots:
                counts = entry.subsample(resolved_shots, self._rng())
                handle._resolve(
                    index,
                    BindingResult(
                        index=index,
                        values=canon[index],
                        shots=resolved_shots,
                        key=bkey,
                        backend=entry.backend,
                        counts=counts,
                        from_cache=True,
                    ),
                )
                self._metrics.increment("cache_hits")
                self._metrics.increment("completed")
                self._metrics.increment("served_shots", resolved_shots)
                continue
            pending.append(index)
        if not pending:
            tracer.record(
                "cache-hit",
                parent=root.context(),
                start_wall=submit_wall,
                duration=max(0.0, time.time() - submit_wall),
            )
            root.set_attribute("from_cache", True)
            handle._finish_if_done()
            return handle

        # Fan-out: in sharded mode one chunk suffices (the executor fans
        # binding ranges across its shards internally); in-process mode
        # chunks across the dispatcher threads so bindings evaluate
        # concurrently on their per-thread accelerator clones.  Chunk keys
        # carry a per-submission nonce: two concurrent identical sweeps
        # must not coalesce (each chunk resolves its own handle's rows).
        if self._sharded is not None:
            n_chunks = 1
        else:
            n_chunks = max(1, min(self._pool.size, len(pending)))
        retry_policy = self._tenant_retry_policy(tenant)
        root.set_attribute("fanout", n_chunks)
        self._metrics.increment("sweep_fanout", n_chunks)
        nonce = secrets.token_hex(4)
        base, extra = divmod(len(pending), n_chunks)
        offset = 0
        chunks: list[tuple[int, ...]] = []
        for chunk_index in range(n_chunks):
            size = base + (1 if chunk_index < extra else 0)
            if size:
                chunks.append(tuple(pending[offset : offset + size]))
                offset += size
        for chunk_index, indices in enumerate(chunks):
            spec = JobSpec(
                key=f"{skey}:{nonce}:chunk:{chunk_index}",
                circuit=circuit,
                backend=self.backend,
                shots=resolved_shots,
                n_qubits=max(circuit.n_qubits, 1),
                priority=JobPriority(priority),
                options=self.backend_options,
                deadline=tokens[indices[0]].deadline,
                sweep=_SweepChunk(handle, indices),
                tenant=tenant,
                retry_policy=retry_policy,
            )
            chunk_handle = JobHandle(spec)
            chunk_handle.cancel_token = combine_tokens([tokens[i] for i in indices])
            chunk_handle._service_alive = self._can_resolve
            try:
                self._queue.put(chunk_handle, block=True, timeout=timeout)
            except ServiceOverloadedError as exc:
                # Queue full: fail this chunk's rows and every chunk not
                # yet enqueued; already-enqueued chunks keep running.
                self._metrics.increment("rejected")
                for remaining in chunks[chunk_index:]:
                    for index in remaining:
                        handle._fail(index, exc)
                        self._metrics.increment("failed")
                break
        handle._finish_if_done()
        return handle

    def expectations(
        self,
        circuit: CompositeInstruction,
        observable,
        bindings,
        *,
        tenant: str | None = None,
    ) -> list[float]:
        """Exact per-binding expectations of ``observable`` (synchronous).

        Runs on the calling thread through the compile-once sweep path —
        one plan, N in-place rebinds — fanned across the shards in
        process-shard mode.  This is the execution primitive under
        :meth:`gradient`; it bypasses the job queue because expectation
        sweeps are exact (no shots) and typically sit on an optimizer's
        critical path.
        """
        if self._shut_down:
            raise ExecutionError(f"service {self.name!r} has been shut down")
        if not circuit.is_parameterized:
            raise ExecutionError(
                f"circuit {circuit.name!r} has no free parameters; "
                "expectation sweeps need a parametric circuit"
            )
        bindings = list(bindings)
        if not bindings:
            raise ExecutionError("expectations needs at least one binding")
        chunk_threshold = self.backend_options.get("chunk-threshold")
        kwargs = dict(
            n_qubits=max(circuit.n_qubits, 1),
            optimize=bool(self.backend_options.get("optimize", True)),
            chunk_threshold=(
                None if chunk_threshold is None else int(chunk_threshold)  # type: ignore[arg-type]
            ),
            precision=self.precision,
        )
        if self._sharded is not None:
            return self._sharded.expectation_sweep(
                circuit,
                observable,
                bindings,
                retry_policy=self._tenant_retry_policy(tenant),
                **kwargs,
            )
        return self._sync_backend().expectation_sweep(
            circuit, observable, bindings, **kwargs
        )

    def gradient(
        self,
        circuit: CompositeInstruction,
        observable,
        parameters,
        *,
        shift: float | None = None,
        tenant: str | None = None,
    ) -> np.ndarray:
        """Parameter-shift gradient evaluated as one ``2·P``-binding sweep.

        Builds the interleaved ``[θ+s·e_i, θ−s·e_i]`` binding list
        (``s = π/2`` by default — exact for parameters entering through
        Pauli rotations) and ships it as a single expectation sweep, so all
        ``2·P`` shifted circuits share one compile and evaluate
        concurrently across the shards.
        """
        params = np.asarray([float(p) for p in parameters], dtype=float)
        if params.size == 0:
            return np.zeros(0)
        s = (math.pi / 2) if shift is None else float(shift)
        shifted: list[list[float]] = []
        for i in range(params.size):
            plus = params.copy()
            minus = params.copy()
            plus[i] += s
            minus[i] -= s
            shifted.append([float(v) for v in plus])
            shifted.append([float(v) for v in minus])
        energies = self.expectations(circuit, observable, shifted, tenant=tenant)
        grad = np.zeros(params.size)
        for i in range(params.size):
            grad[i] = 0.5 * (energies[2 * i] - energies[2 * i + 1])
        return grad

    def _sync_backend(self):
        """Execution backend for caller-thread sweeps (lazily created).

        Dispatcher threads own per-thread accelerator clones; synchronous
        expectation sweeps run on the *caller's* thread, so the service
        keeps one dedicated clone for them.
        """
        with self._state_lock:
            qpu = self._sync_qpu
            if qpu is None:
                from ..runtime.service_registry import get_registry

                qpu = get_registry().get_accelerator(
                    self.backend, self.backend_options
                )
                self._sync_qpu = qpu
        backend_factory = getattr(qpu, "execution_backend", None)
        if backend_factory is None:
            raise ExecutionError(
                f"backend {self.backend!r} does not expose an execution "
                "backend; expectation sweeps need a plan-based backend"
            )
        return backend_factory()

    async def asubmit(
        self,
        circuit: CompositeInstruction,
        shots: int | None = None,
        priority: JobPriority = JobPriority.NORMAL,
        timeout: float | None = None,
        deadline: float | None = None,
    ) -> JobHandle:
        """Async :meth:`submit`: awaitable without blocking the event loop.

        ``submit`` can block on backpressure, so it runs in the loop's
        default thread-pool executor.  The returned handle is itself
        awaitable (``result = await handle``), bridging the broker's
        ``concurrent.futures`` plumbing into asyncio::

            handle = await service.asubmit(circuit, shots=1024)
            result = await handle
        """
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            None,
            functools.partial(
                self.submit,
                circuit,
                shots=shots,
                priority=priority,
                timeout=timeout,
                deadline=deadline,
            ),
        )

    async def arun(
        self,
        circuit: CompositeInstruction,
        shots: int | None = None,
        priority: JobPriority = JobPriority.NORMAL,
        timeout: float | None = None,
    ) -> JobResult:
        """Submit and await the result in one call (`asubmit` + ``await``)."""
        handle = await self.asubmit(circuit, shots=shots, priority=priority, timeout=timeout)
        return await handle.aresult()

    def _tenant_deadline(self, tenant: str | None, deadline: float | None) -> float | None:
        """Resolve a relative deadline: explicit > tenant default > service-wide."""
        if deadline is not None:
            return deadline
        if tenant is not None:
            defaults = self._tenant_defaults.get(tenant)
            if defaults is not None and defaults.get("deadline") is not None:
                return float(defaults["deadline"])  # type: ignore[arg-type]
        raw_deadline = self.backend_options.get("deadline-seconds")
        return None if raw_deadline is None else float(raw_deadline)  # type: ignore[arg-type]

    def _tenant_retry_policy(self, tenant: str | None) -> RetryPolicy | None:
        """The tenant's default retry policy (``None`` = service-wide policy)."""
        if tenant is None:
            return None
        defaults = self._tenant_defaults.get(tenant)
        if defaults is None:
            return None
        policy = defaults.get("retry_policy")
        return policy if isinstance(policy, RetryPolicy) else None

    def _submit(
        self,
        circuit: CompositeInstruction,
        shots: int | None,
        priority: JobPriority,
        block: bool,
        timeout: float | None,
        deadline: float | None = None,
        tenant: str | None = None,
    ) -> JobHandle:
        if self._shut_down:
            raise ExecutionError(f"service {self.name!r} has been shut down")
        if circuit.is_parameterized:
            raise ExecutionError(
                f"circuit {circuit.name!r} has unbound parameters; bind before "
                "submitting (or submit the binding list via submit_sweep)"
            )
        if deadline is not None and deadline <= 0:
            raise ExecutionError(
                f"deadline must be positive seconds from submission, got {deadline}"
            )
        if self.auto_start:
            self.start()
        resolved_shots = shots if shots is not None else get_config().shots
        # Every job carries a token: the deadline rides on it, and cancel()
        # trips it even when no deadline was set.  Tenant defaults and the
        # deadline-seconds backend option provide fallbacks in that order.
        deadline = self._tenant_deadline(tenant, deadline)
        token = CancelToken(timeout=deadline)
        spec = JobSpec(
            key=_combine(circuit_content_hash(circuit), self._config_fingerprint),
            circuit=circuit,
            backend=self.backend,
            shots=resolved_shots,
            n_qubits=max(circuit.n_qubits, 1),
            priority=JobPriority(priority),
            options=self.backend_options,
            deadline=token.deadline,
            tenant=tenant,
            retry_policy=self._tenant_retry_policy(tenant),
        )
        handle = JobHandle(spec)
        handle.cancel_token = token
        handle._service_alive = self._can_resolve
        self._metrics.increment("submitted")
        # Root span of this job's trace.  The span stays open across the
        # queue and the dispatcher thread (the handle carries it); every
        # resolution path below closes it.  A no-op span when tracing is off.
        tracer = get_tracer()
        root = tracer.span(
            "job",
            attrs={
                "backend": self.backend,
                "shots": resolved_shots,
                "key": spec.key[:16],
                "priority": spec.priority.name,
            },
        )
        handle._trace_span = root
        handle._enqueued_wall = time.time()

        # Fast path: serve entirely from the cache, no queueing at all.
        if self._cache is not None:
            entry = self._cache.lookup(spec.key, spec.shots)
            if entry is not None and entry.shots >= spec.shots:
                counts = entry.subsample(spec.shots, self._rng())
                handle._resolve(
                    JobResult(
                        counts=counts,
                        shots=spec.shots,
                        backend=entry.backend,
                        key=spec.key,
                        from_cache=True,
                    )
                )
                self._metrics.increment("cache_hits")
                self._metrics.increment("completed")
                self._metrics.increment("served_shots", spec.shots)
                tracer.record(
                    "cache-hit",
                    parent=root.context(),
                    start_wall=handle._enqueued_wall,
                    duration=max(0.0, time.time() - handle._enqueued_wall),
                )
                root.set_attribute("from_cache", True)
                root.finish()
                return handle
            # A partial entry stays put: the dispatcher tops it up with only
            # the missing shots when the batch reaches a worker.

        try:
            outcome = self._queue.put(handle, block=block, timeout=timeout)
        except ServiceOverloadedError:
            self._metrics.increment("rejected")
            root.mark_error("rejected: queue full")
            root.finish()
            raise
        if outcome == "coalesced":
            self._metrics.increment("coalesced")
            root.set_attribute("coalesced", True)
        return handle

    # -- batch execution (runs on dispatcher threads) -------------------------------
    def _triage(self, handle: JobHandle, where: str) -> bool:
        """Resolve a handle whose lifecycle already decided its outcome.

        Returns ``True`` when the job is still live.  Called at dequeue (so
        cancelled/expired jobs never pay for compilation or admission) and
        again per rider at reconcile (so a late result is never served past
        its deadline, and a client-side ``cancel()`` that raced the
        execution still reports as cancelled).
        """
        span = handle._trace_span
        token = handle.cancel_token
        if handle.done():
            # cancel() already failed the future client-side; account for
            # it and close out the trace.
            self._metrics.increment("cancelled")
            self._metrics.increment("failed")
            span.mark_error(f"cancelled {where}")
            span.finish()
            return False
        if token is None:
            return True
        if token.cancelled:
            handle._fail(JobCancelled(f"job was cancelled {where}"))
            self._metrics.increment("cancelled")
            self._metrics.increment("failed")
            span.mark_error(f"cancelled {where}")
            span.finish()
            return False
        if token.expired():
            handle._fail(
                DeadlineExceeded(
                    f"job deadline passed {where} "
                    f"(deadline={token.deadline:.3f}, now={time.time():.3f})"
                )
            )
            self._metrics.increment("deadline_exceeded")
            self._metrics.increment("failed")
            span.mark_error(f"deadline passed {where}")
            span.finish()
            return False
        return True

    def _classify_failure(self, error: BaseException) -> str | None:
        """The lifecycle counter a batch-level failure increments (or None)."""
        if isinstance(error, JobCancelled):
            return "cancelled"
        if isinstance(error, DeadlineExceeded):
            return "deadline_exceeded"
        from ..exceptions import AdmissionRejected

        if isinstance(error, AdmissionRejected):
            return "admission_rejected"
        return None

    # -- circuit-class routing -------------------------------------------------------
    def _stabilizer(self):
        """The broker-owned stabilizer backend (lazily created, stateless)."""
        with self._state_lock:
            backend = self._stabilizer_backend
            if backend is None:
                from ..exec.stabilizer import StabilizerBackend

                backend = self._stabilizer_backend = StabilizerBackend()
        return backend

    def _method_for(self, spec: JobSpec) -> str:
        """Simulation method for one bound-circuit batch.

        Only the qpp dispatch path routes (the density/noisy path has its
        own physics; a noisy channel is not Clifford evolution).  Under
        ``auto`` the cached classifier verdict decides; an explicit
        ``stabilizer`` request on a non-Clifford circuit raises here —
        inside the batch's failure envelope, so every rider sees the typed
        error instead of a hang.
        """
        if self.backend != "qpp" or self.method == "statevector":
            return "statevector"
        classification = classify_clifford(spec.circuit)
        return self._cost_model.choose_backend(classification, self.method)

    def _sweep_method(self, spec: JobSpec, bindings) -> str:
        """Simulation method for one sweep chunk.

        The parametric template cannot be classified — the binding decides
        whether an ``RZ(θ)`` is Clifford — so each bound form is classified
        and the tableau is chosen only when *every* binding in the chunk is
        Clifford (a mixed sweep stays dense: per-binding lane splits would
        break the one-compile-one-lane contract sweeps advertise).
        """
        if self.backend != "qpp" or self.method == "statevector":
            return "statevector"
        for binding in bindings:
            bound = spec.circuit.bind(binding) if spec.circuit.is_parameterized else spec.circuit
            classification = classify_clifford(bound)
            if not classification.is_clifford:
                if self.method == "stabilizer":
                    raise ExecutionError(
                        f"method 'stabilizer' was requested but binding "
                        f"{canonical_binding(binding)!r} is not Clifford: "
                        f"{classification.reason}"
                    )
                return "statevector"
        return "stabilizer"

    def _process_batch(self, batch: PendingBatch, qpu: Accelerator) -> None:
        if batch.spec.sweep is not None:
            # Sweep chunks never coalesce (unique per-chunk keys), so the
            # batch is exactly one chunk spec.
            self._process_sweep_chunk(batch.spec, qpu)
            return
        spec = batch.spec
        tracer = get_tracer()
        live = [h for h in batch.handles if self._triage(h, "while queued")]
        if not live:
            return
        # The batch leader's root span hosts the execution subtree; riders'
        # roots close with just the queue-wait/outcome attributes.  The
        # queue-wait phase can only be measured retroactively, at dequeue.
        leader = live[0]
        ctx = leader._trace_span.context()
        if ctx is not None:
            tracer.record(
                "queue-wait",
                parent=ctx,
                start_wall=leader._enqueued_wall,
                duration=max(0.0, time.time() - leader._enqueued_wall),
            )
        # One token for the whole batch: keep executing while *any* rider
        # still wants the result (latest deadline wins, cancelled only when
        # all riders cancel); each rider re-triages against its own token
        # at reconcile.
        token = combine_tokens(
            [h.cancel_token if h.cancel_token is not None else CancelToken() for h in live]
        )
        try:
            target_shots = batch.target_shots
            method = self._method_for(spec)
            requested_bytes = estimate_job_bytes(
                spec.n_qubits,
                target_shots,
                precision=self.precision,
                method=method,
                resets=_reset_count(spec.circuit),
            )
            with tracer.span(
                "admission",
                parent=ctx,
                attrs={"requested_bytes": requested_bytes, "method": method},
            ):
                ticket = self._admission.admit(
                    requested_bytes, deadline=token.deadline
                )
            with ticket:
                with tracer.activate(ctx), cancel_scope(token):
                    full_counts, execution_seconds, from_cache = self._counts_for(
                        spec, target_shots, qpu, method=method
                    )
            if from_cache:
                # Warmed between submit and dispatch (a racing worker or an
                # earlier batch): these jobs did no backend work either, so
                # they count as cache hits alongside the submit-time ones.
                self._metrics.increment("cache_hits", len(live))
            total = sum(full_counts.values())
            coalesced = len(batch) > 1
            resolved: list[JobHandle] = []
            with tracer.span(
                "reconcile", parent=ctx, attrs={"riders": len(live)}
            ):
                for handle in live:
                    if not self._triage(handle, "before its result was served"):
                        continue
                    counts = (
                        subsample_counts(full_counts, handle.shots, self._rng())
                        if handle.shots < total
                        else dict(full_counts)
                    )
                    handle._resolve(
                        JobResult(
                            counts=counts,
                            shots=handle.shots,
                            backend=spec.backend,
                            key=spec.key,
                            from_cache=from_cache,
                            coalesced=coalesced,
                            execution_seconds=execution_seconds,
                        )
                    )
                    resolved.append(handle)
                    self._metrics.increment("completed")
                    self._metrics.increment("served_shots", handle.shots)
            for handle in resolved:
                span = handle._trace_span
                span.set_attribute("coalesced", coalesced)
                span.set_attribute("from_cache", from_cache)
                span.finish()
        except BaseException as exc:  # resolve every rider, never hang a client
            counter = self._classify_failure(exc)
            for handle in live:
                if handle.done():
                    # A client-side cancel() raced the failure; its future
                    # already holds JobCancelled — just close the trace.
                    self._metrics.increment("cancelled")
                    span = handle._trace_span
                    span.mark_error("cancelled mid-execution")
                    span.finish()
                    self._metrics.increment("failed")
                    continue
                handle._fail(exc)
                if counter is not None:
                    self._metrics.increment(counter)
                span = handle._trace_span
                span.mark_error(f"{type(exc).__name__}: {exc}")
                span.finish()
                self._metrics.increment("failed")

    def _sweep_triage(self, handle: SweepHandle, index: int, where: str) -> bool:
        """Per-binding :meth:`_triage`: resolve a binding whose lifecycle
        already decided its outcome.  Returns ``True`` when still live."""
        if handle._futures[index].done():
            # cancel_binding() already failed the row client-side.
            self._metrics.increment("cancelled")
            self._metrics.increment("failed")
            return False
        token = handle.tokens[index]
        if token.cancelled:
            handle._fail(
                index, JobCancelled(f"sweep binding {index} was cancelled {where}")
            )
            self._metrics.increment("cancelled")
            self._metrics.increment("failed")
            return False
        if token.expired():
            handle._fail(
                index,
                DeadlineExceeded(
                    f"sweep binding {index} deadline passed {where} "
                    f"(deadline={token.deadline:.3f}, now={time.time():.3f})"
                ),
            )
            self._metrics.increment("deadline_exceeded")
            self._metrics.increment("failed")
            return False
        return True

    def _process_sweep_chunk(self, spec: JobSpec, qpu: Accelerator) -> None:
        """Execute one fan-out chunk of a sweep and resolve its bindings.

        The chunk compiles nothing the other chunks of the same sweep don't
        share: every lane keys its plan cache by the *parametric* circuit's
        content hash, so concurrent chunks reuse one compiled plan and
        differ only in their in-place rebinds.
        """
        chunk: _SweepChunk = spec.sweep  # type: ignore[assignment]
        handle = chunk.handle
        tracer = get_tracer()
        ctx = handle._trace_span.context()
        try:
            live = [
                i
                for i in chunk.indices
                if self._sweep_triage(handle, i, "while queued")
            ]
            if live:
                bindings = [handle.bindings[i] for i in live]
                # Keep executing while *any* live binding still wants its
                # row; each binding re-triages against its own token below.
                token = combine_tokens([handle.tokens[i] for i in live])
                width = (
                    min(self.processes, len(live))
                    if self._sharded is not None
                    else 1
                )
                method = self._sweep_method(spec, bindings)
                requested_bytes = estimate_job_bytes(
                    spec.n_qubits,
                    spec.shots,
                    precision=self.precision,
                    method=method,
                    resets=_reset_count(spec.circuit),
                ) * max(1, width)
                with tracer.span(
                    "admission",
                    parent=ctx,
                    attrs={
                        "requested_bytes": requested_bytes,
                        "bindings": len(live),
                        "method": method,
                    },
                ):
                    ticket = self._admission.admit(
                        requested_bytes, deadline=token.deadline
                    )
                with ticket:
                    with tracer.activate(ctx), cancel_scope(token):
                        started_wall = time.time()
                        results = self._execute_sweep_chunk(
                            spec, bindings, qpu, method=method
                        )
                with tracer.span(
                    "reconcile", parent=ctx, attrs={"riders": len(live)}
                ):
                    for result, index in zip(results, live):
                        counts = dict(result.counts)
                        if self._cache is not None:
                            self._cache.store(
                                handle.binding_keys[index], counts, spec.backend
                            )
                        self._metrics.increment("executions")
                        self._metrics.increment("executed_shots", spec.shots)
                        self._metrics.observe_latency(spec.backend, result.seconds)
                        if not self._sweep_triage(
                            handle, index, "before its result was served"
                        ):
                            continue
                        handle._resolve(
                            index,
                            BindingResult(
                                index=index,
                                values=handle.bindings[index],
                                shots=spec.shots,
                                key=handle.binding_keys[index],
                                backend=spec.backend,
                                counts=counts,
                                execution_seconds=result.seconds,
                            ),
                        )
                        self._metrics.increment("completed")
                        self._metrics.increment("served_shots", spec.shots)
                        tracer.record(
                            "sweep-binding",
                            parent=ctx,
                            start_wall=started_wall,
                            duration=result.seconds,
                            attrs={"binding": index},
                        )
        except BaseException as exc:  # resolve every row, never hang a client
            counter = self._classify_failure(exc)
            for index in chunk.indices:
                if handle._futures[index].done():
                    continue
                handle._fail(index, exc)
                if counter is not None:
                    self._metrics.increment(counter)
                self._metrics.increment("failed")
        finally:
            handle._finish_if_done()

    def _execute_sweep_chunk(
        self, spec: JobSpec, bindings, qpu: Accelerator, method: str = "statevector"
    ):
        """Compile-once execution of one sweep chunk's bindings.

        Mirrors :meth:`_execute_missing`'s lane selection: the shard lane
        (which fans binding ranges across worker processes) sits behind the
        same circuit breaker and degrades to the dispatcher thread's
        in-process clone on infrastructure failures; all-Clifford chunks
        skip both lanes for the tableau.  Returns the per-binding
        :class:`~repro.exec.backend.ExecutionResult` list in binding order.
        """
        tracer = get_tracer()
        if method == "stabilizer":
            with tracer.span("stabilizer-sweep", attrs={"bindings": len(bindings)}):
                results = self._stabilizer().execute_sweep(
                    spec.circuit,
                    bindings,
                    spec.shots,
                    n_qubits=spec.n_qubits,
                    seed=get_config().seed,
                )
            self._metrics.increment("stabilizer_executions", len(results))
            return results
        chunk_threshold = self.backend_options.get("chunk-threshold")
        kwargs = dict(
            n_qubits=spec.n_qubits,
            seed=get_config().seed,
            optimize=bool(self.backend_options.get("optimize", True)),
            chunk_threshold=(
                None if chunk_threshold is None else int(chunk_threshold)  # type: ignore[arg-type]
            ),
            precision=self.precision,
        )
        if self._sharded is not None:
            if self._breaker.allow():
                try:
                    with tracer.span(
                        "sweep-shard-dispatch", attrs={"bindings": len(bindings)}
                    ):
                        results = self._sharded.execute_sweep(
                            spec.circuit,
                            bindings,
                            spec.shots,
                            retry_policy=spec.retry_policy,  # type: ignore[arg-type]
                            **kwargs,
                        )
                except Exception as exc:
                    if not is_infrastructure_failure(exc):
                        raise
                    self._breaker.record_failure()
                    self._metrics.increment("breaker_fallbacks")
                    with tracer.span("breaker-fallback") as fallback_span:
                        fallback_span.mark_error(f"{type(exc).__name__}: {exc}")
                else:
                    self._breaker.record_success()
                    self._metrics.increment("sharded_executions")
                    self._metrics.increment(
                        "sharded_plan_hits",
                        sum(1 for r in results if r.plan_cached),
                    )
                    return results
            else:
                self._metrics.increment("breaker_fallbacks")
        backend_factory = getattr(qpu, "execution_backend", None)
        if backend_factory is None:
            raise ExecutionError(
                f"backend {spec.backend!r} does not expose an execution "
                "backend; sweeps need a plan-based backend"
            )
        with tracer.span("sweep-execute", attrs={"bindings": len(bindings)}):
            return backend_factory().execute_sweep(spec.circuit, bindings, spec.shots, **kwargs)

    def _counts_for(
        self,
        spec: JobSpec,
        target_shots: int,
        qpu: Accelerator,
        method: str = "statevector",
    ) -> tuple[dict[str, int], float, bool]:
        """Obtain a histogram with at least ``target_shots`` observations.

        Serves from the cache when possible, otherwise executes only the
        missing shots and merges them in.  Loops because the cache entry can
        be *evicted between the peek and the merge* under churn — the merged
        result is re-checked so a client can never receive a short
        histogram.  Returns (counts, execution seconds, served-purely-from-
        cache).
        """
        tracer = get_tracer()
        execution_seconds = 0.0
        executed_any = False
        while True:
            with tracer.span("cache-lookup") as lookup:
                entry = self._cache.peek(spec.key) if self._cache is not None else None
                cached_shots = entry.shots if entry is not None else 0
                lookup.set_attribute("cached_shots", cached_shots)
                lookup.set_attribute("hit", cached_shots >= target_shots)
            if entry is not None and cached_shots >= target_shots:
                return entry.counts, execution_seconds, not executed_any
            missing = target_shots - cached_shots
            fresh, elapsed = self._execute_missing(spec, missing, qpu, method=method)
            execution_seconds += elapsed
            executed_any = True
            self._metrics.increment("executions")
            self._metrics.increment("executed_shots", missing)
            self._metrics.observe_latency(spec.backend, elapsed)
            if self._cache is None:
                return fresh, execution_seconds, False
            merged = self._cache.top_up(spec.key, fresh, spec.backend)
            if merged.shots >= target_shots:
                return merged.counts, execution_seconds, False
            # The base entry vanished mid-merge; run the remainder.

    def _execute_missing(
        self,
        spec: JobSpec,
        shots: int,
        qpu: Accelerator,
        method: str = "statevector",
    ) -> tuple[dict[str, int], float]:
        """One backend execution of ``shots`` shots for ``spec``.

        ``method="stabilizer"`` (the classifier's verdict, resolved before
        admission) bypasses both the shard lane and the accelerator clone:
        the tableau needs no plan cache, no amplitude buffers, and no
        per-qubit size ceiling — that bypass is exactly what lets a
        500-qubit Clifford job through a dispatch path whose dense
        accelerator refuses anything past ~26 qubits.

        In-process mode runs on the dispatcher thread's own accelerator
        clone.  Process-shard mode routes the batch to the shard that owns
        ``spec.key`` — the hash affinity that keeps each worker process
        replaying from a plan cache already warm with its keys — honouring
        the service's ``optimize`` backend option (it is part of the job
        key, so sharded and in-process results must agree on it).

        The shard lane sits behind a circuit breaker: infrastructure
        failures (dead workers, exhausted retry budgets) count against it,
        and once tripped, batches degrade to the dispatcher thread's
        in-process clone — identical results, reduced throughput — until a
        half-open probe proves the lane healthy again.  Job-shaped failures
        (cancellation, deadlines, bad circuits) re-raise untouched: they
        would fail identically on any lane.
        """
        tracer = get_tracer()
        if method == "stabilizer":
            with tracer.span("stabilizer-execute", attrs={"shots": shots}):
                result = self._stabilizer().execute(
                    spec.circuit,
                    shots,
                    n_qubits=spec.n_qubits,
                    seed=get_config().seed,
                )
            self._metrics.increment("stabilizer_executions")
            return dict(result.counts), result.seconds
        if self._sharded is not None:
            if self._breaker.allow():
                chunk_threshold = self.backend_options.get("chunk-threshold")
                try:
                    with tracer.span("shard-dispatch", attrs={"shots": shots}):
                        result = self._sharded.execute_for_key(
                            spec.key,
                            spec.circuit,
                            shots,
                            n_qubits=spec.n_qubits,
                            seed=get_config().seed,
                            optimize=bool(self.backend_options.get("optimize", True)),
                            chunk_threshold=None if chunk_threshold is None else int(chunk_threshold),  # type: ignore[arg-type]
                            precision=self.precision,
                            retry_policy=spec.retry_policy,  # type: ignore[arg-type]
                        )
                except Exception as exc:
                    if not is_infrastructure_failure(exc):
                        raise
                    # Lane ill-health, not a bad job: feed the breaker and
                    # degrade this batch to the in-process clone below.
                    self._breaker.record_failure()
                    self._metrics.increment("breaker_fallbacks")
                    with tracer.span("breaker-fallback") as fallback_span:
                        fallback_span.mark_error(f"{type(exc).__name__}: {exc}")
                else:
                    self._breaker.record_success()
                    self._metrics.increment("sharded_executions")
                    if result.plan_cached:
                        self._metrics.increment("sharded_plan_hits")
                    return dict(result.counts), result.seconds
            else:
                # Breaker open: skip the shard lane without even trying.
                self._metrics.increment("breaker_fallbacks")
        buffer = AcceleratorBuffer(spec.n_qubits)
        started = time.perf_counter()
        with tracer.span("backend-execute", attrs={"shots": shots}):
            qpu.execute(buffer, spec.circuit, shots=shots)
        elapsed = time.perf_counter() - started
        return buffer.get_measurement_counts(), elapsed

    def _worker_init_failed(self, error: BaseException) -> None:
        """Dispatcher callback: a worker died in its ``initialize()`` call.

        Once *every* worker is gone nothing will ever drain the queue, so
        instead of letting clients block forever on their handles, close the
        queue and fail every pending job with the initialization error.
        """
        if not self._pool.all_workers_failed_init():
            return  # degraded but alive: the surviving workers keep serving
        self._queue.close()
        failure = ExecutionError(
            f"service {self.name!r}: all dispatcher workers failed to "
            f"initialize backend {self.backend!r}: {error}"
        )
        failure.__cause__ = error
        self._drain_and_fail(failure)

    def _drain_and_fail(self, failure: BaseException) -> None:
        """Fail every batch still in the (closed) queue with ``failure``."""
        while True:
            batch = self._queue.get(timeout=0)
            if batch is None:
                return
            sweep = batch.spec.sweep
            if sweep is not None:
                for index in sweep.indices:
                    sweep.handle._fail(index, failure)
                sweep.handle._finish_if_done()
                self._metrics.increment("failed", len(sweep.indices))
                continue
            for handle in batch.handles:
                handle._fail(failure)
            self._metrics.increment("failed", len(batch))

    def _can_resolve(self) -> bool:
        """Whether some dispatcher can still resolve a pending handle.

        Consulted by unbounded ``JobHandle.result()`` waits: while workers
        are alive (including the shutdown drain) the wait continues; once
        the pool is gone — or the service was shut down before ever
        starting — the client gets ``TimeoutError`` instead of a hang.
        """
        if self._started:
            return self._pool.alive_count() > 0
        return not self._shut_down

    def _rng(self) -> np.random.Generator:
        """``default_rng(get_config().seed)``, without building one per draw.

        Each thread keeps one generator and re-arms it to the initial state
        of the configured seed, so every draw reads the stream a new
        generator would.  An unseeded configuration draws fresh entropy.
        """
        seed = get_config().seed
        if seed is None:
            return np.random.default_rng()
        local = self._rng_local
        if getattr(local, "seed", None) != seed:
            local.generator = np.random.default_rng(seed)
            local.initial_state = local.generator.bit_generator.state
            local.seed = seed
        local.generator.bit_generator.state = local.initial_state
        return local.generator

    # -- introspection ----------------------------------------------------------------
    def metrics(self) -> MetricsSnapshot:
        """Consistent snapshot of throughput, queue, cache and latency stats."""
        from ..simulator.plan_cache import get_plan_cache

        admission = self._admission.snapshot()
        return self._metrics.snapshot(
            queue_depth=self._queue.depth(),
            active_workers=self._pool.alive_count(),
            cache=self._cache.stats() if self._cache is not None else None,
            # The dispatcher's accelerator clones all consult the shared
            # content-hash-keyed plan cache: repeat jobs (cache-missed or
            # top-ups) skip circuit compilation entirely.  In process-shard
            # mode compilation happens in the *worker* processes instead —
            # these parent-side counters stay flat there; watch
            # ``sharded_plan_hits`` for the per-worker cache behaviour.
            plan_cache=get_plan_cache().stats(),
            process_shards=self.processes if self._sharded is not None else 0,
            shard_respawns=(
                self._sharded.total_retries if self._sharded is not None else 0
            ),
            shard_queue_depths=(
                tuple(self._sharded.shard_queue_depths())
                if self._sharded is not None
                else ()
            ),
            breaker_state=self._breaker.state,
            breaker_trips=self._breaker.trips,
            admission_budget_bytes=admission["budget_bytes"],
            admission_inflight_bytes=admission["inflight_bytes"],
            admission_inflight_tickets=admission["inflight_tickets"],
            admission_resident_bytes=admission["resident_bytes"],
            admission_admitted=admission["admitted"],
            admission_rejected_tickets=admission["rejected"],
            admission_waited=admission["waited"],
        )

    @property
    def cache(self) -> ResultCache | None:
        return self._cache

    @property
    def breaker(self) -> CircuitBreaker:
        """The circuit breaker guarding the process-shard lane."""
        return self._breaker

    @property
    def admission(self) -> AdmissionController:
        """The memory-budget admission controller (no-op when unbudgeted)."""
        return self._admission

    @property
    def sharded_executor(self):
        """The broker-owned :class:`ShardedExecutor` (``None`` in-process)."""
        return self._sharded

    def queue_depth(self) -> int:
        return self._queue.depth()

    def __repr__(self) -> str:
        return (
            f"QuantumJobService(name={self.name!r}, backend={self.backend!r}, "
            f"workers={self._pool.size}, queue_depth={self._queue.depth()})"
        )
