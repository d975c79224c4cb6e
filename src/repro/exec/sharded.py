"""Process-sharded plan replay: execution that scales past the GIL.

Every in-process execution path ultimately serialises Python dispatch
behind the GIL, no matter how many threads the engine spins up.  The
:class:`ShardedExecutor` is the process-level answer: ``N`` *shards*, each
a persistent single-worker ``ProcessPoolExecutor``.  Circuits ship by
**content hash + canonical JSON payload** and every job runs under an
:class:`~repro.exec.workers.Envelope` (trace context, profile flag,
deadline); each worker process compiles into its
:func:`~repro.exec.workers.worker_plan` cache, so a circuit is compiled at
most once per worker and replayed thereafter — the same
compile-once/execute-many amortisation the in-process plan cache provides,
multiplied across processes.

Every job — a lone job, a sweep's binding range, an exact expectation — is
one shard task evaluating a list of bindings on one compiled plan.  A job
runs whole on one shard: its content-affine shard (``shard=None``, the one
:meth:`ShardedExecutor.compile` warms), a pinned one (``shard=k``), or the
owner of its job key (:meth:`ShardedExecutor.execute_for_key`).  Shards
parallelise across jobs and across a sweep's bindings, never within one
job's shots.  Every binding draws from
:func:`~repro.simulator.sampling.job_rng` of the job's seed, as the
in-process engine does, so fixed-seed counts are bit-identical to
:class:`~repro.exec.backend.LocalBackend` at any thread or shard count.

Workers are expendable: a task whose worker dies (OOM-killed, ``SIGKILL``,
crashed interpreter) is re-executed on a freshly respawned shard rather
than failing the job.  ``close()`` is exception-safe and idempotent — no
orphaned worker processes on error paths.
"""

from __future__ import annotations

import atexit
import concurrent.futures
import os
import threading
import time
from collections import OrderedDict
from concurrent.futures.process import BrokenProcessPool
from functools import partial
from typing import Mapping, Sequence

import numpy as np

from ..cancellation import active_cancel_token
from ..exceptions import ExecutionError, RetryExhausted
from ..ir.composite import CompositeInstruction
from ..obs.trace import get_tracer
from ..testing import faults
from .retry import DEFAULT_RETRY_POLICY, RetryPolicy
from .workers import Envelope, circuit_payload, plan_cache_size, worker_plan
from ..simulator.execution_plan import DEFAULT_PRECISION
from ..simulator.parallel_engine import BranchTree, sample_trajectories
from ..simulator.sampling import job_rng, sample_counts
from .backend import ExecutionBackend, Params, _resolve_width
from .result import ExecutionResult

__all__ = [
    "ShardedExecutor",
    "get_sharded_executor",
    "shutdown_sharded_executors",
]

#: Seconds between cancellation checks while awaiting a shard's result.
_WAIT_POLL = 0.05


# ---------------------------------------------------------------------------
# Worker-side code (runs inside shard processes; must stay module level so
# it is picklable by reference)
# ---------------------------------------------------------------------------

#: Lazily-created per-worker-process engine used to chunk-parallelise each
#: shard's single-state plan replays across its own worker threads (the
#: shard process is otherwise single-threaded, so its pool is never nested).
_WORKER_ENGINE = None
#: Total shard count, set by the pool initializer so each worker sizes its
#: chunk pool to its fair share of the host instead of cpu_count threads
#: per shard (P shards x cpu_count chunk threads would oversubscribe the
#: machine exactly when every shard replays a large state at once).
_WORKER_SHARDS = 1


def _init_worker_process(total_shards: int) -> None:
    """Pool initializer: runs in each shard worker as it starts.

    Besides recording the shard topology, merely importing this module
    (which the spawn/forkserver pickling of this initializer forces)
    preloads the whole simulator stack, so a worker's first task pays no
    import latency mid-traffic.
    """
    global _WORKER_SHARDS
    _WORKER_SHARDS = max(1, int(total_shards))


def _worker_engine():
    global _WORKER_ENGINE
    if _WORKER_ENGINE is None:
        from ..simulator.parallel_engine import ParallelSimulationEngine

        cores = os.cpu_count() or 1
        _WORKER_ENGINE = ParallelSimulationEngine(
            num_threads=max(1, cores // _WORKER_SHARDS)
        )
    return _WORKER_ENGINE


def _warm_worker_plan(payload: str, digest: str, width: int, options: dict) -> bool:
    """Compile into the worker's plan cache; returns whether it was warm.

    (Plans hold thread-local scratch state and never cross the process
    boundary — only this flag does.)
    """
    return worker_plan(payload, digest, width, options, "sharded.worker.compile")[1]


def _run_bindings(
    payload: str,
    digest: str,
    width: int,
    options: dict,
    bindings: Sequence,
    seed: int | None,
    shots: int,
    observable,
) -> tuple[list, int, int, bool]:
    """The shard task: compile once, evaluate ``bindings`` in order.

    Returns ``(results, depth, n_gates, plan_cached)`` where ``results``
    holds one ``(counts_or_expectation, seconds)`` pair per binding.  With
    an ``observable`` each value is the exact expectation; otherwise each
    binding samples ``shots`` from ``job_rng(seed)``, mirroring the
    in-process paths operation for operation so fixed-seed results are
    bit-identical: non-reset circuits replay the plan once and sample
    (:meth:`ParallelSimulationEngine.sample_parallel`); reset circuits walk
    one branch tree per binding with the generator shared between collapses
    and sampling (:meth:`ParallelSimulationEngine.run_trajectories`).  Large
    states chunk-parallelise each replay on the worker's own engine —
    chunked replay is bitwise identical to serial.

    The spans below record only under an active trace (the tracer hands
    out shared no-op spans otherwise), mirroring ``LocalBackend.execute``'s
    compile/replay/sample stages.
    """
    faults.fire("sharded.worker.replay")
    tracer = get_tracer()
    with tracer.span("compile") as compile_span:
        plan, cached = worker_plan(
            payload, digest, width, options, "sharded.worker.compile"
        )
        compile_span.set_attribute("plan_cached", cached)
    token = active_cancel_token()
    measured = plan.measured_qubits or tuple(range(width))
    engine = _worker_engine()
    results: list = []
    for values in bindings:
        if token is not None:
            # Per-binding boundary: an expired job stops between
            # evaluations instead of draining the whole range.
            token.check()
        started = time.perf_counter()
        # Rebind mutates this worker's thread-local plan clone in place;
        # the previous binding has fully executed by the time the next
        # bind runs, so reuse is safe.
        bound = plan
        if plan.is_parametric:
            bound = plan.bind(() if values is None else values)
        if observable is not None:
            if bound.has_reset:
                raise ExecutionError(
                    "exact expectations are undefined for circuits with "
                    "mid-circuit resets"
                )
            from ..operators.compiled import compile_observable

            data = bound.execute(bound.new_state(), pool=engine)
            value = compile_observable(observable, width).expectation(data)
        else:
            rng = job_rng(seed)
            if bound.has_reset:
                tree = BranchTree(bound, measured, width, pool=engine)
                with tracer.span(
                    "replay", attrs={"mode": "trajectories", "shots": shots}
                ) as span:
                    value = sample_trajectories(tree, shots, rng)
                    span.set_attribute("branches", tree.branches)
                    span.set_attribute("segment_replays", tree.segment_replays)
            else:
                with tracer.span("replay", attrs={"n_qubits": width}):
                    data = bound.execute(bound.new_state(), pool=engine)
                with tracer.span("sample", attrs={"shots": shots}):
                    value = sample_counts(np.abs(data) ** 2, shots, measured, width, rng)
        results.append((value, time.perf_counter() - started))
    return results, plan.depth, plan.n_gates, cached


def _compile_options(
    optimize: bool, chunk_threshold: int | None, precision: str
) -> dict:
    """The compile keyword arguments a shard's plan is built and keyed with."""
    return {
        "optimize": optimize,
        "chunk_threshold": chunk_threshold,
        "precision": precision,
    }


# ---------------------------------------------------------------------------
# The executor
# ---------------------------------------------------------------------------


class ShardedExecutor(ExecutionBackend):
    """Plan replay farmed out to ``processes`` persistent worker processes."""

    backend_name = "sharded"

    def __init__(
        self,
        processes: int = 2,
        *,
        name: str = "exec-shard",
        mp_context: str | None = None,
        retry_policy: RetryPolicy | None = None,
    ):
        """``mp_context`` picks the worker start method (``"fork"``,
        ``"spawn"``, ``"forkserver"``; ``None`` = platform default) — the
        spawn paths matter on macOS/Windows, where fork is unavailable or
        unsafe; the pool initializer preloads the simulator stack so
        spawned workers pay their import cost at startup, not mid-batch.
        ``retry_policy`` governs worker-death recovery (default
        :data:`~repro.exec.retry.DEFAULT_RETRY_POLICY`)."""
        if processes < 1:
            raise ExecutionError(f"processes must be at least 1, got {processes}")
        self.processes = int(processes)
        self.name = name
        self.retry_policy = (
            retry_policy if retry_policy is not None else DEFAULT_RETRY_POLICY
        )
        import multiprocessing

        self._mp_context = (
            multiprocessing.get_context(mp_context) if mp_context is not None else None
        )
        self._lock = threading.Lock()
        self._pools: list[concurrent.futures.ProcessPoolExecutor | None] = [
            None for _ in range(self.processes)
        ]
        self._closed = False
        self._retries = 0
        self._steals = 0
        #: Cold-key ownership decisions (see :meth:`_owner_for_key`): once a
        #: cache-miss job is routed — stolen or affine — future hits for the
        #: same key stay with that owner so its plan cache stays warm.
        self._key_owners: "OrderedDict[str, int]" = OrderedDict()
        self._key_owner_capacity = 4096
        #: Work submissions in flight per shard (health metric: a hot shard
        #: under key affinity shows up as a deep per-shard queue here).
        self._inflight = [0] * self.processes
        # Fork every shard up front (ideally from the constructing thread,
        # before dispatcher threads and their locks exist) so no later
        # submit pays — or risks — a mid-traffic fork.
        self.shard_pids()

    # -- pool lifecycle -----------------------------------------------------------
    def _pool(self, index: int) -> concurrent.futures.ProcessPoolExecutor:
        with self._lock:
            if self._closed:
                raise ExecutionError(f"sharded executor {self.name!r} is closed")
            pool = self._pools[index]
            if pool is None:
                pool = concurrent.futures.ProcessPoolExecutor(
                    max_workers=1,
                    mp_context=self._mp_context,
                    initializer=_init_worker_process,
                    initargs=(self.processes,),
                )
                self._pools[index] = pool
            return pool

    def _replace_pool(
        self, index: int, broken: concurrent.futures.ProcessPoolExecutor
    ) -> None:
        """Retire a broken shard pool; the next `_pool` respawns the shard."""
        with self._lock:
            if self._pools[index] is broken:
                self._pools[index] = None
            self._retries += 1
        try:
            broken.shutdown(wait=False)
        except Exception:
            pass

    def close(self, wait: bool = True) -> None:
        """Shut every shard down.  Exception-safe and idempotent: a pool
        whose shutdown raises never prevents the remaining shards from
        being released, so no worker process is orphaned on error paths."""
        with self._lock:
            self._closed = True
            pools, self._pools = self._pools, [None for _ in range(self.processes)]
        for pool in pools:
            if pool is None:
                continue
            try:
                pool.shutdown(wait=wait)
            except Exception:
                pass

    def __del__(self) -> None:  # pragma: no cover - interpreter-shutdown path
        try:
            self.close(wait=False)
        except Exception:
            pass

    # -- shard routing ------------------------------------------------------------
    def shard_for(self, key: str) -> int:
        """Stable shard index for a job/content key (hash affinity).

        Keys are the hex digests produced by :func:`repro.service.keys.job_key`
        / :func:`circuit_content_hash`; non-hex keys fall back to Python's
        string hash (stable within a process, which is all affinity needs).
        """
        try:
            value = int(key[:16], 16)
        except (ValueError, TypeError):
            value = hash(key)
        return value % self.processes

    def _owner_for_key(self, key: str) -> int:
        """The shard that should run ``key``'s job, with cold-key stealing.

        A key seen before keeps its recorded owner (plan-cache affinity).
        A *cold* key normally goes to its hash-affine shard — but when that
        shard is busier than the idlest one (by live in-flight depth, the
        ``shard_queue_depths()`` health metric), the job is stolen by the
        least-loaded shard, and the key stays affine to the new owner so
        future hits keep landing on the worker whose cache is now warm.
        Ties prefer the hash-affine shard, so an idle executor routes
        exactly like pure hash affinity.
        """
        affine = self.shard_for(key)
        with self._lock:
            owner = self._key_owners.get(key)
            if owner is not None:
                self._key_owners.move_to_end(key)
                return owner
            depths = self._inflight
            best = min(
                range(self.processes), key=lambda i: (depths[i], i != affine)
            )
            if depths[best] < depths[affine]:
                owner = best
                self._steals += 1
            else:
                owner = affine
            self._key_owners[key] = owner
            while len(self._key_owners) > self._key_owner_capacity:
                self._key_owners.popitem(last=False)
            return owner

    def shard_pids(self) -> list[int]:
        """PID of each shard's worker process (spawning idle shards)."""
        futures = [self._pool(i).submit(os.getpid) for i in range(self.processes)]
        return [future.result() for future in futures]

    def worker_plan_cache_sizes(self) -> list[int]:
        """Compiled plans held by each shard's worker (observability)."""
        futures = [
            self._pool(i).submit(plan_cache_size) for i in range(self.processes)
        ]
        return [future.result() for future in futures]

    # -- submission with worker-failure retry ------------------------------------
    def _submit(self, index: int, fn, args: tuple, attempt: int):
        """Submit one attempt of ``fn(*args)`` to shard ``index``; returns
        ``(span, pool, future)``.  A submit refused because a worker death
        already broke the pool comes back as a failed future, so every
        worker death is handled where results are awaited."""
        span = get_tracer().span(
            "shard-attempt", attrs={"shard": index, "attempt": attempt}
        )
        pool = self._pool(index)
        with self._lock:
            self._inflight[index] += 1
        try:
            future = pool.submit(fn, *args)
        except (BrokenProcessPool, EOFError, OSError) as exc:
            future = concurrent.futures.Future()
            future.set_exception(exc)
        except BaseException:
            with self._lock:
                self._inflight[index] -= 1
            raise
        future.add_done_callback(lambda _f, i=index: self._work_done(i))
        return span, pool, future

    def _work_done(self, index: int) -> None:
        with self._lock:
            self._inflight[index] -= 1

    def shard_queue_depths(self) -> list[int]:
        """Work submissions currently in flight on each shard (health metric)."""
        with self._lock:
            return list(self._inflight)

    def _await_result(self, future, token):
        """Await a shard future; with a token, poll so a tripped token
        raises its typed error promptly (the submitted task keeps running
        to harmless completion in the worker — cancellation never kills a
        healthy worker process)."""
        if token is None:
            return future.result()
        while True:
            try:
                return future.result(timeout=_WAIT_POLL)
            except concurrent.futures.TimeoutError:
                token.check()

    def _run(
        self, fn, calls: list[tuple[int, tuple]], policy: RetryPolicy | None = None
    ):
        """Run ``fn(*args)`` for every ``(shard, args)`` call; returns
        ``(results, retries)``, ``retries`` counting this call's respawns only.

        Every call is submitted before any result is awaited, so shards
        genuinely overlap.  A worker death respawns the shard and re-runs
        the call there under ``policy`` (default :attr:`retry_policy`; the
        broker's per-tenant retry defaults arrive through it): bounded
        attempts, exponential backoff + jitter,
        :class:`~repro.exceptions.RetryExhausted` at the end.  In a fan-out
        over several shards each call's first re-run is immediate and
        outside the budget.  Under an active trace every attempt gets its
        own ``shard-attempt`` span: a death closes it error-tagged (the
        killed worker's own spans die with it — the parent-side record is
        what keeps the trace complete) and the re-run appears as the next
        attempt under the same trace id.  A tripped cancel token raises its
        typed error from the await loop.
        """
        token = active_cancel_token()
        policy = policy if policy is not None else self.retry_policy
        free = 1 if len(calls) > 1 else 0
        attempts = [self._submit(index, fn, args, 0) for index, args in calls]
        results: list = []
        retries = 0
        for (index, args), (span, pool, future) in zip(calls, attempts):
            failed = 0
            while True:
                try:
                    result = self._await_result(future, token)
                except (BrokenProcessPool, EOFError, OSError) as exc:
                    span.mark_error(f"shard worker died: {exc}")
                    span.set_attribute("respawned", True)
                    span.finish()
                    self._replace_pool(index, pool)
                    failed += 1
                    retries += 1
                    counted = failed - free
                    if counted > 0:
                        if not policy.should_retry(counted, exc):
                            raise RetryExhausted(
                                f"shard {index} of {self.name!r} failed "
                                f"{counted} time(s): {exc}",
                                attempts=counted,
                            ) from exc
                        policy.sleep(counted, token)
                    span, pool, future = self._submit(index, fn, args, failed)
                    continue
                except BaseException as exc:
                    span.mark_error(str(exc))
                    span.finish()
                    raise
                span.finish()
                results.append(result)
                break
        return results, retries

    def _dispatch(
        self, span_name: str, jobs: list[tuple[int, dict, tuple]], policy
    ) -> tuple[list, int]:
        """Run one :func:`_run_bindings` task per ``(shard, span attrs,
        args)`` job under this thread's envelope, stitch the workers'
        observations back, and return ``(outcomes, retries)``."""
        envelope = Envelope.capture()
        outcomes, retries = self._run(
            envelope.run,
            [
                (index, (partial(_run_bindings, *args), span_name, attrs))
                for index, attrs, args in jobs
            ],
            policy,
        )
        envelope.stitch(obs for _, obs in outcomes)
        return [outcome for outcome, _ in outcomes], retries

    # -- protocol -----------------------------------------------------------------
    def compile(
        self,
        circuit: CompositeInstruction,
        n_qubits: int | None = None,
        *,
        optimize: bool = True,
        chunk_threshold: int | None = None,
        precision: str = DEFAULT_PRECISION,
    ):
        """Warm the affine shard's plan cache; returns the parent-side plan.

        The returned plan comes from the shared in-process cache (plans
        cannot cross process boundaries); as a side effect the shard that
        will execute this circuit compiles it too, so the first `execute`
        replays instead of compiling.
        """
        payload, digest = circuit_payload(circuit)
        width = _resolve_width(circuit, n_qubits)
        options = _compile_options(optimize, chunk_threshold, precision)
        self._run(
            _warm_worker_plan,
            [(self.shard_for(digest), (payload, digest, width, options))],
        )
        from ..simulator.plan_cache import get_plan_cache

        plan, _ = get_plan_cache().lookup_or_compile(circuit, width, **options)
        return plan

    def execute(
        self,
        circuit: CompositeInstruction,
        shots: int,
        *,
        n_qubits: int | None = None,
        seed: int | None = None,
        params: Params = None,
        optimize: bool = True,
        chunk_threshold: int | None = None,
        precision: str = DEFAULT_PRECISION,
        shard: int | None = None,
        retry_policy: RetryPolicy | None = None,
    ) -> ExecutionResult:
        """Run ``circuit`` whole on one shard.

        ``shard=None`` picks the circuit's content-affine shard — the one
        :meth:`compile` warms; ``shard=k`` pins shard ``k`` (the broker's
        key-affinity mode).  The job's shots are one draw on
        ``job_rng(seed)``, as in-process, so the shard never moves the counts.
        """
        if circuit.is_parameterized and params is None:
            raise ExecutionError(
                f"circuit {circuit.name!r} has unbound parameters; provide params"
            )
        payload, digest = circuit_payload(circuit)
        width = _resolve_width(circuit, n_qubits)
        if shard is None:
            shard = self.shard_for(digest)
        elif not 0 <= shard < self.processes:
            raise ExecutionError(
                f"shard {shard} out of range for {self.processes} shard(s)"
            )
        options = _compile_options(optimize, chunk_threshold, precision)
        started = time.perf_counter()
        (outcome,), retries = self._dispatch(
            "shard-replay",
            [
                (
                    shard,
                    {"shots": shots},
                    (payload, digest, width, options, [params], seed, shots, None),
                )
            ],
            retry_policy,
        )
        elapsed = time.perf_counter() - started
        return ExecutionResult(
            counts=outcome[0][0][0],
            shots=shots,
            n_qubits=width,
            backend=self.backend_name,
            seconds=elapsed,
            plan_cached=outcome[3],
            depth=outcome[1],
            n_gates=outcome[2],
            retries=retries,
        )

    def execute_for_key(
        self,
        key: str,
        circuit: CompositeInstruction,
        shots: int,
        *,
        n_qubits: int | None = None,
        seed: int | None = None,
        params: Params = None,
        optimize: bool = True,
        chunk_threshold: int | None = None,
        precision: str = DEFAULT_PRECISION,
        retry_policy: RetryPolicy | None = None,
    ) -> ExecutionResult:
        """Affinity mode: the shard owning ``key`` runs the whole job, so
        its warm plan cache keeps getting the circuits it already compiled.
        Cold keys whose affine shard is busy are stolen by the least-loaded
        shard and stay affine to it (see :meth:`_owner_for_key`)."""
        return self.execute(
            circuit,
            shots,
            n_qubits=n_qubits,
            seed=seed,
            params=params,
            optimize=optimize,
            chunk_threshold=chunk_threshold,
            precision=precision,
            shard=self._owner_for_key(key),
            retry_policy=retry_policy,
        )

    def _sweep(
        self,
        circuit: CompositeInstruction,
        bindings: Sequence,
        shots: int,
        *,
        n_qubits: int | None,
        seed: int | None,
        options: dict,
        observable,
        retry_policy: RetryPolicy | None,
    ) -> tuple[list, int, int, bool, int]:
        """Fan a binding list out across the shards in contiguous ranges.

        The circuit ships once per shard (content hash + compile-once
        worker cache); each shard evaluates its range with in-place
        rebinds.  Every binding draws from ``job_rng(seed)`` — a lone
        job's generator — whichever range it lands in.  Returns the flattened
        per-binding ``(value, seconds)`` list in binding order plus
        ``(depth, n_gates, all_cached, retries)``.
        """
        payload, digest = circuit_payload(circuit)
        width = _resolve_width(circuit, n_qubits)
        bindings = list(bindings)
        if not bindings:
            return [], 0, 0, True, 0
        n_chunks = max(1, min(self.processes, len(bindings)))
        base, extra = divmod(len(bindings), n_chunks)
        # Start the round-robin at the content-affine shard so a
        # single-range sweep lands exactly where key affinity would put it.
        first = self.shard_for(digest)
        jobs = []
        cursor = 0
        for i in range(n_chunks):
            chunk = bindings[cursor : cursor + base + (1 if i < extra else 0)]
            cursor += len(chunk)
            jobs.append((
                (first + i) % self.processes,
                {"bindings": len(chunk)},
                (payload, digest, width, options, chunk, seed, shots, observable),
            ))
        outcomes, retries = self._dispatch("sweep-chunk", jobs, retry_policy)
        flat = [pair for outcome in outcomes for pair in outcome[0]]
        cached = all(outcome[3] for outcome in outcomes)
        return flat, outcomes[0][1], outcomes[0][2], cached, retries

    def execute_sweep(
        self,
        circuit: CompositeInstruction,
        bindings: Sequence[Mapping[str, float] | Sequence[float]],
        shots: int,
        *,
        n_qubits: int | None = None,
        seed: int | None = None,
        optimize: bool = True,
        chunk_threshold: int | None = None,
        precision: str = DEFAULT_PRECISION,
        retry_policy: RetryPolicy | None = None,
    ) -> list[ExecutionResult]:
        """Compile-once sweep fanned across the shards.

        Per-binding counts are bit-identical to pinned independent
        submissions of the pre-bound circuits at the same seed, so fan-out
        width and chunk boundaries never change results.
        """
        width = _resolve_width(circuit, n_qubits)
        flat, depth, n_gates, cached, retries = self._sweep(
            circuit,
            bindings,
            shots,
            n_qubits=n_qubits,
            seed=seed,
            options=_compile_options(optimize, chunk_threshold, precision),
            observable=None,
            retry_policy=retry_policy,
        )
        return [
            ExecutionResult(
                counts=counts,
                shots=shots,
                n_qubits=width,
                backend=self.backend_name,
                seconds=seconds,
                plan_cached=cached or index > 0,
                depth=depth,
                n_gates=n_gates,
                retries=retries if index == 0 else 0,
            )
            for index, (counts, seconds) in enumerate(flat)
        ]

    def expectation_sweep(
        self,
        circuit: CompositeInstruction,
        observable,
        bindings: Sequence[Mapping[str, float] | Sequence[float]],
        *,
        n_qubits: int | None = None,
        optimize: bool = True,
        chunk_threshold: int | None = None,
        precision: str = DEFAULT_PRECISION,
        retry_policy: RetryPolicy | None = None,
    ) -> list[float]:
        """Exact per-binding expectations fanned across the shards.

        This is the parameter-shift gradient's execution primitive: 2·P
        shifted bindings ship as one sweep and evaluate concurrently on
        every shard.
        """
        flat, _, _, _, _ = self._sweep(
            circuit,
            bindings,
            0,
            n_qubits=n_qubits,
            seed=None,
            options=_compile_options(optimize, chunk_threshold, precision),
            observable=observable,
            retry_policy=retry_policy,
        )
        return [value for value, _seconds in flat]

    def expectation(
        self,
        circuit: CompositeInstruction,
        observable,
        *,
        n_qubits: int | None = None,
        params: Params = None,
        optimize: bool = True,
        chunk_threshold: int | None = None,
        precision: str = DEFAULT_PRECISION,
    ) -> float:
        """Exact expectation: a one-binding :meth:`expectation_sweep` on the
        circuit's content-affine shard."""
        return self.expectation_sweep(
            circuit,
            observable,
            [params],
            n_qubits=n_qubits,
            optimize=optimize,
            chunk_threshold=chunk_threshold,
            precision=precision,
        )[0]

    # -- introspection ------------------------------------------------------------
    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    @property
    def total_retries(self) -> int:
        """Tasks re-executed after worker deaths over this executor's life."""
        with self._lock:
            return self._retries

    @property
    def total_steals(self) -> int:
        """Cold-key jobs routed away from their busy hash-affine shard."""
        with self._lock:
            return self._steals

    def __repr__(self) -> str:
        return (
            f"ShardedExecutor(name={self.name!r}, processes={self.processes}, "
            f"closed={self.closed})"
        )


# ---------------------------------------------------------------------------
# Process-wide shared executors (accelerator `processes` option)
# ---------------------------------------------------------------------------

_shared_executors: dict[int, ShardedExecutor] = {}
_shared_lock = threading.Lock()


def get_sharded_executor(processes: int) -> ShardedExecutor:
    """The process-wide executor with ``processes`` shards (created once).

    Shared so that every accelerator clone asking for the same shard count
    reuses one set of worker processes — and their warm plan caches —
    instead of forking per clone.
    """
    if processes < 1:
        raise ExecutionError(f"processes must be at least 1, got {processes}")
    with _shared_lock:
        executor = _shared_executors.get(processes)
        if executor is None or executor.closed:
            executor = ShardedExecutor(processes, name=f"shared-{processes}")
            _shared_executors[processes] = executor
        return executor


def shutdown_sharded_executors(wait: bool = True) -> None:
    """Close every shared executor (tests, interpreter exit)."""
    with _shared_lock:
        executors = list(_shared_executors.values())
        _shared_executors.clear()
    for executor in executors:
        try:
            executor.close(wait=wait)
        except Exception:
            pass


atexit.register(shutdown_sharded_executors, False)
