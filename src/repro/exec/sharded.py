"""Process-sharded plan replay: execution that scales past the GIL.

Every in-process execution path ultimately serialises Python dispatch
behind the GIL, no matter how many threads the engine spins up.  The
:class:`ShardedExecutor` is the process-level answer: ``N`` *shards*, each
a persistent single-worker ``ProcessPoolExecutor``, with circuits shipped
by **content hash + canonical JSON payload**
(:mod:`repro.ir.serialization`).  Each worker process keeps its own
bounded plan cache keyed by the parent-computed hash, so a circuit is
compiled at most once per worker and replayed thereafter — the same
compile-once/execute-many amortisation the in-process plan cache provides,
multiplied across processes.

Two dispatch modes cover the two traffic shapes:

* **shot sharding** (``shard=None``): the shot budget is split across all
  shards with :func:`~repro.simulator.parallel_engine.split_shots` and
  per-shard seeds are spawned from one ``numpy.random.SeedSequence`` —
  the *identical* chunk/seed derivation the in-process engine uses for its
  worker threads, so fixed-seed counts are bit-identical to
  ``ParallelSimulationEngine`` with ``num_threads == n_shards``;
* **key affinity** (``shard=k`` or :meth:`execute_for_key`): the whole job
  runs on one shard chosen by hashing the job key, so a worker's warm plan
  cache keeps receiving the circuits it has already compiled.  A pinned
  single-chunk run spawns ``SeedSequence(seed).spawn(1)`` exactly like the
  single-threaded engine path, preserving bit-identity there too.

Workers are expendable: a chunk whose worker dies (OOM-killed, ``SIGKILL``,
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
from typing import Mapping, Sequence

import numpy as np

from ..cancellation import CancelToken, active_cancel_token, cancel_scope
from ..exceptions import (
    DeadlineExceeded,
    ExecutionError,
    JobCancelled,
    RetryExhausted,
)
from ..ir.composite import CompositeInstruction
from ..ir.serialization import circuit_content_hash, circuit_from_json, circuit_to_json
from ..obs.profiler import ReplayProfiler, active_profiler, profiler_installed
from ..obs.trace import TraceContext, get_tracer
from ..testing import faults
from .retry import RetryPolicy
from ..simulator.execution_plan import (
    DEFAULT_PRECISION,
    compile_parametric_plan,
    compile_plan,
)
from ..simulator.parallel_engine import (
    merge_counts,
    replay_trajectory_chunk,
    split_shots,
)
from ..simulator.sampling import sample_counts
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
# Parent-side payload preparation
# ---------------------------------------------------------------------------


def _circuit_payload(circuit: CompositeInstruction) -> tuple[str, str]:
    """``(canonical_json, content_hash)`` for ``circuit``, each computed once
    per circuit object (``CompositeInstruction`` states the invalidation rule).
    The payload keeps the name it was first serialised with; workers compile
    from the instructions and never read it.
    """
    payload = circuit.memoised("exec_payload", lambda: circuit_to_json(circuit))
    return payload, circuit_content_hash(circuit)


# ---------------------------------------------------------------------------
# Worker-side code (runs inside shard processes; must stay module level so
# it is picklable by reference)
# ---------------------------------------------------------------------------

#: Per-process plan cache: (content_hash, width, compile options) -> plan.
_WORKER_PLANS: "OrderedDict[tuple, object]" = OrderedDict()
_WORKER_PLAN_CAPACITY = 128

#: Lazily-created per-worker-process engine used to chunk-parallelise each
#: shard's single-state plan replays across its own worker threads (the
#: shard process is otherwise single-threaded, so its pool is never nested).
_WORKER_ENGINE = None
#: Total shard count, set by the pool initializer so each worker sizes its
#: chunk pool to its fair share of the host instead of cpu_count threads
#: per shard (P shards x cpu_count chunk threads would oversubscribe the
#: machine exactly when every shard replays a large state at once).
_WORKER_SHARDS = 1
#: Shared-memory lane width for this shard worker (0 = thread engine only),
#: set by the pool initializer from ``ShardedExecutor(shm_processes=...)``.
_WORKER_SHM = 0
#: Lazily-created per-worker-process SharedStatePool when _WORKER_SHM > 1.
_WORKER_SHM_POOL = None


def _init_worker_process(total_shards: int, shm_processes: int = 0) -> None:
    """Pool initializer: runs in each shard worker as it starts.

    Besides recording the shard topology, merely importing this module
    (which the spawn/forkserver pickling of this initializer forces)
    preloads the whole simulator stack, so a worker's first chunk pays no
    import latency mid-traffic.
    """
    global _WORKER_SHARDS, _WORKER_SHM
    _WORKER_SHARDS = max(1, int(total_shards))
    _WORKER_SHM = max(0, int(shm_processes))


def _worker_engine():
    global _WORKER_ENGINE
    if _WORKER_ENGINE is None:
        import os

        from ..simulator.parallel_engine import ParallelSimulationEngine

        cores = os.cpu_count() or 1
        _WORKER_ENGINE = ParallelSimulationEngine(
            num_threads=max(1, cores // _WORKER_SHARDS)
        )
    return _WORKER_ENGINE


def _worker_replay_pool(plan):
    """The chunk pool this shard worker replays ``plan`` on.

    With ``shm_processes`` configured, a shard borrows a shared-memory
    pool for super-threshold states instead of chunking on its private
    thread engine.  ``shm_processes`` is the *total* worker budget for
    the lane: each shard takes its fair share (``shm_processes //
    shards``), mirroring how worker engines size their thread pools —
    otherwise P shards replaying large states at once would spawn
    ``P * shm_processes`` worker processes and oversubscribe the host
    exactly when the lane matters most.  A share below 2 (no room to
    split) stays on the thread engine, as do plans the pool cannot ship
    (resets), so trajectory workloads are unaffected.
    """
    global _WORKER_SHM_POOL
    engine = _worker_engine()
    share = _WORKER_SHM // _WORKER_SHARDS
    if share > 1:
        if _WORKER_SHM_POOL is None or _WORKER_SHM_POOL.closed:
            from .shm import SharedStatePool

            _WORKER_SHM_POOL = SharedStatePool(
                share, name="shard-shm", fallback=engine
            )
        if _WORKER_SHM_POOL.can_replay(plan):
            return _WORKER_SHM_POOL
    return engine


def _worker_plan(
    payload: str,
    digest: str,
    width: int,
    optimize: bool,
    chunk_threshold: int | None = None,
    precision: str = DEFAULT_PRECISION,
):
    """Compile-once lookup inside a worker process.

    ``precision`` participates in the key because a complex64 plan is a
    semantically different artefact (different payload dtypes, different
    results).
    """
    key = (digest, width, optimize, chunk_threshold, precision)
    plan = _WORKER_PLANS.get(key)
    if plan is not None:
        _WORKER_PLANS.move_to_end(key)
        return plan, True
    faults.fire("sharded.worker.compile")
    circuit = circuit_from_json(payload)
    if circuit.is_parameterized:
        plan = compile_parametric_plan(
            circuit,
            width,
            optimize=optimize,
            chunk_threshold=chunk_threshold,
            precision=precision,
        )
    else:
        plan = compile_plan(
            circuit,
            width,
            optimize=optimize,
            chunk_threshold=chunk_threshold,
            precision=precision,
        )
    _WORKER_PLANS[key] = plan
    while len(_WORKER_PLANS) > _WORKER_PLAN_CAPACITY:
        _WORKER_PLANS.popitem(last=False)
    return plan, False


def _replay_chunk_body(
    payload: str,
    digest: str,
    width: int,
    optimize: bool,
    shots: int,
    seed_seq: np.random.SeedSequence,
    params: Params,
    trajectories: bool,
    chunk_threshold: int | None,
    precision: str = DEFAULT_PRECISION,
) -> tuple[dict[str, int], int, int, bool]:
    """The chunk execution itself: (counts, depth, n_gates, plan_cached).

    Mirrors the in-process paths operation for operation so fixed-seed
    results reduce bit-identically: non-reset circuits replay the plan once
    and sample the chunk from one RNG stream by the same per-chunk rule
    (:meth:`ParallelSimulationEngine.sample_parallel`'s per-chunk body);
    reset circuits run one trajectory per shot with the chunk RNG shared
    between collapses and sampling (:meth:`run_trajectories`'s chunk body).
    Large states chunk-parallelise each replay on the worker's own engine —
    chunked replay is bitwise identical to serial, so the cross-process
    bit-identity guarantee is untouched.

    The spans below record only under an active trace (the tracer hands
    out shared no-op spans otherwise), mirroring ``LocalBackend.execute``'s
    compile/replay/sample stages.
    """
    faults.fire("sharded.worker.replay")
    tracer = get_tracer()
    with tracer.span("compile") as compile_span:
        plan, cached = _worker_plan(
            payload, digest, width, optimize, chunk_threshold,
            precision,
        )
        compile_span.set_attribute("plan_cached", cached)
    if plan.is_parametric:
        plan = plan.bind(params if params is not None else ())
    measured = plan.measured_qubits or tuple(range(width))
    rng = np.random.default_rng(seed_seq)
    if plan.has_reset or trajectories:
        with tracer.span("replay", attrs={"mode": "trajectories", "shots": shots}):
            counts = replay_trajectory_chunk(
                plan, shots, rng, measured, width, pool=_worker_replay_pool(plan)
            )
    else:
        with tracer.span("replay", attrs={"n_qubits": width}):
            data = plan.execute(plan.new_state(), pool=_worker_replay_pool(plan))
        with tracer.span("sample", attrs={"shots": shots}):
            counts = sample_counts(np.abs(data) ** 2, shots, measured, width, rng)
    return counts, plan.depth, plan.n_gates, cached


def _replay_chunk(
    payload: str,
    digest: str,
    width: int,
    optimize: bool,
    shots: int,
    seed_seq: np.random.SeedSequence,
    params: Params = None,
    trajectories: bool = False,
    chunk_threshold: int | None = None,
    precision: str = DEFAULT_PRECISION,
    obs: dict | None = None,
    ctl: dict | None = None,
) -> tuple[dict[str, int], int, int, bool, dict | None]:
    """Execute one shard chunk; returns
    ``(counts, depth, n_gates, plan_cached, obs_payload)``.

    ``obs`` is the parent's observability request: a serialised trace
    context to record this worker's spans under, and/or a profile flag.
    The returned ``obs_payload`` (``None`` when nothing was requested)
    carries the worker's finished spans and per-kernel profile back across
    the process boundary for the parent to stitch — including spans the
    worker's own shm lane ingested from *its* workers, so two-hop traces
    (broker → shard → shm) assemble into one tree.

    ``ctl`` is the parent's lifecycle request: a wall-clock ``deadline``
    installed as this worker's ambient cancel token, so the replay loops
    abandon an expired job at the next step boundary and the typed
    :class:`~repro.exceptions.DeadlineExceeded` travels back through the
    future instead of the chunk running to completion for nothing.
    """
    body_args = (
        payload, digest, width, optimize, shots, seed_seq, params,
        trajectories, chunk_threshold, precision,
    )
    token = (
        CancelToken(deadline=ctl.get("deadline")) if ctl is not None else None
    )
    with cancel_scope(token):
        if token is not None:
            token.check()
        if obs is None:
            counts, depth, n_gates, cached = _replay_chunk_body(*body_args)
            return counts, depth, n_gates, cached, None
        tracer = get_tracer()
        parent_ctx = TraceContext.from_wire(obs.get("trace"))
        profiler = ReplayProfiler() if obs.get("profile") else None
        with tracer.capture() as sink:
            with tracer.span(
                "shard-replay",
                attrs={"pid": os.getpid(), "shots": shots},
                parent=parent_ctx,
            ):
                with profiler_installed(profiler):
                    counts, depth, n_gates, cached = _replay_chunk_body(*body_args)
        obs_payload = {
            "spans": [span.to_dict() for span in sink],
            "profile": profiler.to_wire() if profiler is not None else None,
        }
    return counts, depth, n_gates, cached, obs_payload


def _sweep_chunk_body(
    payload: str,
    digest: str,
    width: int,
    optimize: bool,
    bindings: Sequence,
    shots: int,
    seed: int | None,
    chunk_threshold: int | None,
    precision: str,
    observable,
) -> tuple[list, int, int, bool]:
    """Compile once, evaluate a contiguous binding range in place.

    Returns ``(results, depth, n_gates, plan_cached)`` where ``results``
    holds one ``(counts_or_expectation, seconds)`` pair per binding, in
    binding order.  Bit-identity: each binding derives its RNG as
    ``SeedSequence(seed).spawn(1)[0]`` — exactly the derivation a pinned
    single-chunk independent job of the pre-bound circuit uses — so sweep
    counts match the equivalent independent submissions bit for bit.
    """
    faults.fire("sharded.worker.replay")
    tracer = get_tracer()
    with tracer.span("compile") as compile_span:
        plan, cached = _worker_plan(
            payload, digest, width, optimize, chunk_threshold,
            precision,
        )
        compile_span.set_attribute("plan_cached", cached)
    token = active_cancel_token()
    measured = plan.measured_qubits or tuple(range(width))
    results: list = []
    for values in bindings:
        if token is not None:
            # Per-binding boundary: an expired sweep stops between
            # evaluations instead of draining the whole range.
            token.check()
        started = time.perf_counter()
        # Rebind mutates this worker's thread-local plan clone in place
        # (PR 2's trig-rebind path); the previous binding has fully
        # executed by the time the next bind runs, so reuse is safe.
        bound = plan.bind(values) if plan.is_parametric else plan
        pool = _worker_replay_pool(bound)
        if observable is not None:
            if bound.has_reset:
                raise ExecutionError(
                    "exact expectations are undefined for circuits with "
                    "mid-circuit resets"
                )
            from ..simulator.statevector import StateVector

            state = StateVector(
                width,
                data=bound.execute(bound.new_state(), pool=pool),
                dtype=bound.dtype,
            )
            results.append(
                (float(state.expectation(observable)), time.perf_counter() - started)
            )
            continue
        rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
        if bound.has_reset:
            with tracer.span("replay", attrs={"mode": "trajectories", "shots": shots}):
                counts = replay_trajectory_chunk(
                    bound, shots, rng, measured, width, pool=pool
                )
        else:
            with tracer.span("replay", attrs={"n_qubits": width}):
                data = bound.execute(bound.new_state(), pool=pool)
            with tracer.span("sample", attrs={"shots": shots}):
                counts = sample_counts(np.abs(data) ** 2, shots, measured, width, rng)
        results.append((counts, time.perf_counter() - started))
    return results, plan.depth, plan.n_gates, cached


def _sweep_chunk(
    payload: str,
    digest: str,
    width: int,
    optimize: bool,
    bindings: Sequence,
    shots: int,
    seed: int | None = None,
    chunk_threshold: int | None = None,
    precision: str = DEFAULT_PRECISION,
    observable=None,
    obs: dict | None = None,
    ctl: dict | None = None,
) -> tuple[list, int, int, bool, dict | None]:
    """Execute one sweep binding-range on this shard; returns
    ``(results, depth, n_gates, plan_cached, obs_payload)``.

    The circuit ships once per worker by content hash (``_worker_plan``'s
    compile-once cache); every binding in the range replays the same plan
    clone via in-place rebind.  ``obs``/``ctl`` behave exactly as in
    :func:`_replay_chunk`.
    """
    body_args = (
        payload, digest, width, optimize, bindings, shots, seed,
        chunk_threshold, precision, observable,
    )
    token = CancelToken(deadline=ctl.get("deadline")) if ctl is not None else None
    with cancel_scope(token):
        if token is not None:
            token.check()
        if obs is None:
            results, depth, n_gates, cached = _sweep_chunk_body(*body_args)
            return results, depth, n_gates, cached, None
        tracer = get_tracer()
        parent_ctx = TraceContext.from_wire(obs.get("trace"))
        profiler = ReplayProfiler() if obs.get("profile") else None
        with tracer.capture() as sink:
            with tracer.span(
                "sweep-chunk",
                attrs={"pid": os.getpid(), "bindings": len(bindings)},
                parent=parent_ctx,
            ):
                with profiler_installed(profiler):
                    results, depth, n_gates, cached = _sweep_chunk_body(*body_args)
        obs_payload = {
            "spans": [span.to_dict() for span in sink],
            "profile": profiler.to_wire() if profiler is not None else None,
        }
    return results, depth, n_gates, cached, obs_payload


def _chunk_expectation(
    payload: str,
    digest: str,
    width: int,
    optimize: bool,
    params: Params,
    observable,
    chunk_threshold: int | None = None,
    precision: str = DEFAULT_PRECISION,
) -> float:
    """Exact expectation evaluated inside a worker (plan replay + <O>)."""
    from ..simulator.statevector import StateVector

    plan, _ = _worker_plan(
        payload, digest, width, optimize, chunk_threshold, precision
    )
    if plan.is_parametric:
        plan = plan.bind(params if params is not None else ())
    if plan.has_reset:
        raise ExecutionError(
            "exact expectations are undefined for circuits with mid-circuit resets"
        )
    state = StateVector(
        width,
        data=plan.execute(plan.new_state(), pool=_worker_replay_pool(plan)),
        dtype=plan.dtype,
    )
    return float(state.expectation(observable))


def _warm_worker_plan(
    payload: str,
    digest: str,
    width: int,
    optimize: bool,
    chunk_threshold: int | None = None,
    precision: str = DEFAULT_PRECISION,
) -> bool:
    """Compile into the worker's plan cache; returns whether it was warm.

    (Plans hold thread-local scratch state and never cross the process
    boundary — only this flag does.)
    """
    _, cached = _worker_plan(
        payload, digest, width, optimize, chunk_threshold, precision
    )
    return cached


def _worker_pid() -> int:
    import os

    return os.getpid()


def _worker_plan_cache_size() -> int:
    return len(_WORKER_PLANS)


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
        max_retries: int = 1,
        warm_start: bool = True,
        mp_context: str | None = None,
        shm_processes: int = 0,
        retry_policy: RetryPolicy | None = None,
    ):
        """``mp_context`` picks the worker start method (``"fork"``,
        ``"spawn"``, ``"forkserver"``; ``None`` = platform default) — the
        spawn paths matter on macOS/Windows, where fork is unavailable or
        unsafe; the pool initializer preloads the simulator stack so
        spawned workers pay their import cost at startup, not mid-batch.
        ``shm_processes=N`` is a *total* worker budget letting shards
        borrow the shared-memory lane for super-threshold single-state
        replays instead of their private thread engines; each shard's
        pool gets ``N // processes`` workers (shares below 2 stay on the
        thread engine)."""
        if processes < 1:
            raise ExecutionError(f"processes must be at least 1, got {processes}")
        if max_retries < 0:
            raise ExecutionError(f"max_retries must be non-negative, got {max_retries}")
        self.processes = int(processes)
        self.name = name
        self.max_retries = int(max_retries)
        #: Worker-death recovery policy.  ``retry_policy`` supersedes the
        #: legacy ``max_retries`` knob when given; otherwise ``max_retries``
        #: extra attempts with a short backoff reproduce the historical
        #: behaviour in policy form.
        self.retry_policy = (
            retry_policy
            if retry_policy is not None
            else RetryPolicy(
                max_attempts=self.max_retries + 1, base_delay=0.01, max_delay=0.5
            )
        )
        self.shm_processes = int(shm_processes or 0)
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
        if warm_start:
            # Fork every shard up front (ideally from the constructing
            # thread, before dispatcher threads and their locks exist) so
            # no later submit pays — or risks — a mid-traffic fork.
            for index in range(self.processes):
                self._pool(index)
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
                    initargs=(self.processes, self.shm_processes),
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
        futures = [self._pool(i).submit(_worker_pid) for i in range(self.processes)]
        return [future.result() for future in futures]

    def worker_plan_cache_sizes(self) -> list[int]:
        """Compiled plans held by each shard's worker (observability)."""
        futures = [
            self._pool(i).submit(_worker_plan_cache_size)
            for i in range(self.processes)
        ]
        return [future.result() for future in futures]

    # -- submission with worker-failure retry ------------------------------------
    def _submit_tracked(
        self, index: int, pool: concurrent.futures.ProcessPoolExecutor, fn, /, *args
    ):
        """``pool.submit`` with per-shard in-flight accounting."""
        with self._lock:
            self._inflight[index] += 1
        try:
            future = pool.submit(fn, *args)
        except BaseException:
            with self._lock:
                self._inflight[index] -= 1
            raise
        future.add_done_callback(lambda _f, i=index: self._work_done(i))
        return future

    def _work_done(self, index: int) -> None:
        with self._lock:
            self._inflight[index] -= 1

    def shard_queue_depths(self) -> list[int]:
        """Work submissions currently in flight on each shard (health metric)."""
        with self._lock:
            return list(self._inflight)

    def _await_result(self, future, token):
        """Await a shard future; with a token, poll so a tripped token
        raises its typed error promptly (the submitted chunk keeps running
        to harmless completion in the worker — cancellation never kills a
        healthy worker process)."""
        if token is None:
            return future.result()
        while True:
            try:
                return future.result(timeout=_WAIT_POLL)
            except concurrent.futures.TimeoutError:
                token.check()

    def _run_on_shard(self, index: int, fn, /, *args, policy: RetryPolicy | None = None):
        """Run ``fn(*args)`` on shard ``index``, respawning it on worker death.

        Worker deaths are retried under :attr:`retry_policy` (bounded
        attempts, exponential backoff + jitter); exhaustion raises
        :class:`~repro.exceptions.RetryExhausted`.  ``policy`` overrides
        the executor-wide policy for this call (the broker's per-tenant
        retry defaults arrive through it).  Under an active trace
        every attempt gets its own span: a worker death closes the
        attempt's span error-tagged (the killed worker's own spans die
        with it — the parent-side record is what keeps the trace
        complete), and the respawned retry appears as the next attempt
        under the same trace id.
        """
        attempts = 0
        tracer = get_tracer()
        token = active_cancel_token()
        policy = policy if policy is not None else self.retry_policy
        while True:
            attempts += 1
            pool = self._pool(index)
            span = tracer.span(
                "shard-attempt", attrs={"shard": index, "attempt": attempts - 1}
            )
            try:
                future = self._submit_tracked(index, pool, fn, *args)
                result = self._await_result(future, token)
                span.finish()
                return result
            except (JobCancelled, DeadlineExceeded) as exc:
                span.mark_error(str(exc))
                span.finish()
                raise
            except (BrokenProcessPool, EOFError, OSError) as exc:
                span.mark_error(f"shard worker died: {exc}")
                span.set_attribute("respawned", True)
                span.finish()
                self._replace_pool(index, pool)
                if policy.should_retry(attempts, exc):
                    policy.sleep(attempts, token)
                    continue
                raise RetryExhausted(
                    f"shard {index} of {self.name!r} failed {attempts} time(s): {exc}",
                    attempts=attempts,
                ) from exc
            except BaseException as exc:
                span.mark_error(str(exc))
                span.finish()
                raise

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
        payload, digest = _circuit_payload(circuit)
        width = _resolve_width(circuit, n_qubits)
        shard = self.shard_for(digest)
        self._run_on_shard(
            shard, _warm_worker_plan, payload, digest, width, optimize,
            chunk_threshold, precision,
        )
        from ..simulator.plan_cache import get_plan_cache

        plan, _ = get_plan_cache().lookup_or_compile(
            circuit,
            width,
            optimize=optimize,
            chunk_threshold=chunk_threshold,
            precision=precision,
        )
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
        trajectories: bool = False,
        retry_policy: RetryPolicy | None = None,
    ) -> ExecutionResult:
        """Run ``circuit`` across the shards (or pinned to one).

        ``shard=None`` splits the shots over every shard; ``shard=k`` runs
        the whole job on shard ``k`` (the broker's key-affinity mode).
        Shot sharding replicates the *state evolution* on every shard (each
        worker replays the plan once) and shards only the shot work, so it
        pays off when shots/trajectories dominate — trajectory workloads,
        high shot counts, small-to-mid states.  For deep circuits at low
        shot counts prefer key affinity, which evolves once on one shard;
        evolving one large state cooperatively across shards needs shared
        memory and is a ROADMAP follow-up.
        ``trajectories=True`` forces one-simulation-per-shot replay even
        without mid-circuit resets (matching the engine's trajectory path
        RNG-draw for RNG-draw).  Results reduce deterministically: chunks
        are merged in shard order and the per-chunk seeds derive from
        ``SeedSequence(seed)`` exactly as the in-process engine derives its
        per-thread streams.
        """
        if circuit.is_parameterized and params is None:
            raise ExecutionError(
                f"circuit {circuit.name!r} has unbound parameters; provide params"
            )
        token = active_cancel_token()
        ctl: dict | None = None
        if token is not None:
            token.check()  # refuse to ship a job that is already dead
            if token.deadline is not None:
                # The deadline crosses the process boundary (wall clock);
                # client-side cancels cannot — the parent stops awaiting
                # instead, and the chunk completes harmlessly.
                ctl = {"deadline": token.deadline}
        payload, digest = _circuit_payload(circuit)
        width = _resolve_width(circuit, n_qubits)
        if shard is None:
            chunks = split_shots(shots, self.processes)
            indices = list(range(len(chunks)))
        else:
            if not 0 <= shard < self.processes:
                raise ExecutionError(
                    f"shard {shard} out of range for {self.processes} shard(s)"
                )
            chunks = [shots]
            indices = [shard]
        seeds = np.random.SeedSequence(seed).spawn(len(chunks))
        retries_before = self._retries

        # Observability request shipped with every chunk: the ambient trace
        # context (workers parent their spans to it) and whether a replay
        # profiler is active here.  ``None`` — the common case — keeps the
        # worker on its branch-free path.
        tracer = get_tracer()
        ctx = tracer.current_context()
        profiler = active_profiler()
        obs: dict | None = None
        if ctx is not None or profiler is not None:
            obs = {
                "trace": ctx.to_wire() if ctx is not None else None,
                "profile": profiler is not None,
            }

        started = time.perf_counter()
        if len(chunks) == 1:
            outcomes = [
                self._run_on_shard(
                    indices[0],
                    _replay_chunk,
                    payload, digest, width, optimize, chunks[0], seeds[0], params,
                    trajectories, chunk_threshold, precision,
                    obs, ctl,
                    policy=retry_policy,
                )
            ]
        else:
            outcomes = self._gather(
                [
                    (
                        index,
                        (
                            payload, digest, width, optimize, chunk, seq, params,
                            trajectories, chunk_threshold,
                            precision, obs, ctl,
                        ),
                    )
                    for index, chunk, seq in zip(indices, chunks, seeds)
                ],
                token,
                policy=retry_policy,
            )
        elapsed = time.perf_counter() - started

        # Stitch worker-side observations back into this process: spans join
        # the parent trace (and any active capture sinks, for two-hop
        # shipping) and per-kernel timings merge into the active profiler.
        if obs is not None:
            for outcome in outcomes:
                payload_obs = outcome[4]
                if not payload_obs:
                    continue
                spans = payload_obs.get("spans")
                if spans:
                    tracer.ingest(spans)
                profile = payload_obs.get("profile")
                if profiler is not None and profile:
                    profiler.merge_wire(profile)

        counts = merge_counts(outcome[0] for outcome in outcomes)
        depth, n_gates = outcomes[0][1], outcomes[0][2]
        plan_cached = all(outcome[3] for outcome in outcomes)
        return ExecutionResult(
            counts=counts,
            shots=shots,
            n_qubits=width,
            backend=self.backend_name,
            seconds=elapsed,
            shards=len(chunks),
            plan_cached=plan_cached,
            depth=depth,
            n_gates=n_gates,
            retries=self._retries - retries_before,
        )

    def _gather(
        self,
        jobs: list[tuple[int, tuple]],
        token=None,
        fn=_replay_chunk,
        policy: RetryPolicy | None = None,
    ) -> list[tuple]:
        """Run chunk jobs concurrently across shards, retrying dead workers.

        All chunks are submitted before any result is awaited so shards
        genuinely overlap.  Both failure points route into the retry path:
        ``submit`` itself raising (another thread's chunk already broke the
        pool) and the awaited result raising (this chunk's worker died).
        Retried chunks re-run synchronously on their respawned shard.
        A tripped ``token`` raises its typed error from the await loop —
        in-flight chunks complete harmlessly on their live workers.
        ``fn`` is the worker function each job runs (shot chunks by
        default, sweep binding-ranges for ``execute_sweep``).
        """
        tracer = get_tracer()
        entries: list[tuple[int, tuple, object, object]] = []
        for index, args in jobs:
            pool = self._pool(index)
            try:
                entries.append(
                    (index, args, pool, self._submit_tracked(index, pool, fn, *args))
                )
            except (BrokenProcessPool, EOFError, OSError) as exc:
                tracer.record(
                    "shard-attempt",
                    parent=tracer.current_context(),
                    start_wall=time.time(),
                    duration=0.0,
                    attrs={"shard": index, "respawned": True},
                    error=f"shard worker died: {exc}",
                )
                self._replace_pool(index, pool)
                entries.append((index, args, None, None))
        outcomes = []
        for index, args, pool, future in entries:
            if future is None:
                outcomes.append(self._run_on_shard(index, fn, *args, policy=policy))
                continue
            try:
                outcomes.append(self._await_result(future, token))
            except (BrokenProcessPool, EOFError, OSError) as exc:
                tracer.record(
                    "shard-attempt",
                    parent=tracer.current_context(),
                    start_wall=time.time(),
                    duration=0.0,
                    attrs={"shard": index, "respawned": True},
                    error=f"shard worker died: {exc}",
                )
                self._replace_pool(index, pool)
                outcomes.append(self._run_on_shard(index, fn, *args, policy=policy))
        return outcomes

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

    def _sweep_dispatch(
        self,
        circuit: CompositeInstruction,
        bindings: Sequence,
        shots: int,
        *,
        n_qubits: int | None,
        seed: int | None,
        optimize: bool,
        chunk_threshold: int | None,
        precision: str,
        observable,
        retry_policy: RetryPolicy | None,
    ) -> tuple[list, int, int, bool]:
        """Fan a binding list out across the shards in contiguous ranges.

        The circuit ships once per shard (content hash + compile-once
        worker cache); each shard evaluates its range with in-place
        rebinds.  Returns the flattened per-binding ``(value, seconds)``
        list in binding order plus ``(depth, n_gates, all_cached)``.
        """
        token = active_cancel_token()
        ctl: dict | None = None
        if token is not None:
            token.check()
            if token.deadline is not None:
                ctl = {"deadline": token.deadline}
        payload, digest = _circuit_payload(circuit)
        width = _resolve_width(circuit, n_qubits)
        bindings = list(bindings)
        if not bindings:
            return [], 0, 0, True
        n_chunks = max(1, min(self.processes, len(bindings)))
        base, extra = divmod(len(bindings), n_chunks)
        ranges: list[list] = []
        cursor = 0
        for i in range(n_chunks):
            size = base + (1 if i < extra else 0)
            ranges.append(bindings[cursor : cursor + size])
            cursor += size
        # Start the round-robin at the content-affine shard so a
        # single-range sweep lands exactly where key affinity would put it.
        first = self.shard_for(digest)
        indices = [(first + i) % self.processes for i in range(n_chunks)]

        tracer = get_tracer()
        ctx = tracer.current_context()
        profiler = active_profiler()
        obs: dict | None = None
        if ctx is not None or profiler is not None:
            obs = {
                "trace": ctx.to_wire() if ctx is not None else None,
                "profile": profiler is not None,
            }

        if n_chunks == 1:
            outcomes = [
                self._run_on_shard(
                    indices[0],
                    _sweep_chunk,
                    payload, digest, width, optimize, ranges[0], shots, seed,
                    chunk_threshold, precision, observable,
                    obs, ctl,
                    policy=retry_policy,
                )
            ]
        else:
            outcomes = self._gather(
                [
                    (
                        index,
                        (
                            payload, digest, width, optimize, chunk, shots, seed,
                            chunk_threshold, precision,
                            observable, obs, ctl,
                        ),
                    )
                    for index, chunk in zip(indices, ranges)
                ],
                token,
                fn=_sweep_chunk,
                policy=retry_policy,
            )

        if obs is not None:
            for outcome in outcomes:
                payload_obs = outcome[4]
                if not payload_obs:
                    continue
                spans = payload_obs.get("spans")
                if spans:
                    tracer.ingest(spans)
                profile = payload_obs.get("profile")
                if profiler is not None and profile:
                    profiler.merge_wire(profile)

        flat = [pair for outcome in outcomes for pair in outcome[0]]
        depth, n_gates = outcomes[0][1], outcomes[0][2]
        cached = all(outcome[3] for outcome in outcomes)
        return flat, depth, n_gates, cached

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
        submissions of the pre-bound circuits at the same seed: every
        binding derives its RNG as ``SeedSequence(seed).spawn(1)[0]``
        regardless of which shard's range it lands in, so fan-out width
        and chunk boundaries never change results.
        """
        width = _resolve_width(circuit, n_qubits)
        retries_before = self._retries
        started = time.perf_counter()
        flat, depth, n_gates, cached = self._sweep_dispatch(
            circuit,
            bindings,
            shots,
            n_qubits=n_qubits,
            seed=seed,
            optimize=optimize,
            chunk_threshold=chunk_threshold,
            precision=precision,
            observable=None,
            retry_policy=retry_policy,
        )
        retries = self._retries - retries_before
        return [
            ExecutionResult(
                counts=counts,
                shots=shots,
                n_qubits=width,
                backend=self.backend_name,
                seconds=seconds,
                shards=1,
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
        flat, _, _, _ = self._sweep_dispatch(
            circuit,
            bindings,
            0,
            n_qubits=n_qubits,
            seed=None,
            optimize=optimize,
            chunk_threshold=chunk_threshold,
            precision=precision,
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
        payload, digest = _circuit_payload(circuit)
        width = _resolve_width(circuit, n_qubits)
        shard = self.shard_for(digest)
        return self._run_on_shard(
            shard, _chunk_expectation, payload, digest, width, optimize, params,
            observable, chunk_threshold, precision,
        )

    # -- introspection ------------------------------------------------------------
    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    @property
    def total_retries(self) -> int:
        """Chunks re-executed after worker deaths over this executor's life."""
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
