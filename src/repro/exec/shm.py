"""Shared-memory process-parallel replay of one large state.

The thread lane (PR 4's chunk-parallel replay) splits every kernel across
a :class:`~repro.simulator.parallel_engine.ParallelSimulationEngine`, but
in CPython the per-step Python dispatch still serialises behind the GIL
and every chunk fights for one process's memory bandwidth.  For the
paper's strong-scaling regime — one ≥20-qubit state, every core — this
module provides the process-grade twin:

* :class:`SharedStatePool` owns ``processes`` persistent worker processes
  plus two ``multiprocessing.shared_memory`` amplitude buffers (state +
  ping-pong scratch), mapped as numpy views in the parent *and* in every
  worker — the state is evolved cooperatively with **zero copies** of
  amplitude data between processes.
* The plan-replay driver ships each job as *(canonical circuit JSON,
  content hash, compile options, binding)*; every worker compiles a
  bitwise-identical plan into its own bounded cache (compile once per
  worker, replay forever) and rebuilds the same deterministic chunk
  decomposition PR 4 built for threads
  (:meth:`~repro.simulator.execution_plan.ExecutionPlan.chunk_program`).
  Worker ``i`` then executes task slice ``i::processes`` of every step,
  with a **barrier per step** (dense steps barrier per phase: gather /
  exact serial matmul / scatter), so replay stays **bitwise identical**
  to serial replay.
* Workers are monitored, not trusted: a worker that dies mid-step
  (OOM-killed, ``SIGKILL``) breaks the step barrier from the parent, the
  whole worker set is respawned, and the replay fails with a clean
  :class:`~repro.exceptions.ExecutionError` instead of a hang.  Segments
  are unlinked by ``close()``, by a finalizer, and by an atexit sweep —
  no ``/dev/shm`` litter on any path.

The pool implements the same :class:`~repro.simulator.execution_plan.ChunkPool`
protocol as the thread engine, so ``ExecutionPlan.execute(state, pool=...)``,
``StateVector.run/apply_plan``, :class:`~repro.exec.backend.LocalBackend`
and the sharded workers can swap lanes without touching kernel code.
"""

from __future__ import annotations

import atexit
import os
import secrets
import threading
import time
import traceback
import weakref
from collections import OrderedDict
from multiprocessing import get_context
from multiprocessing.shared_memory import SharedMemory

import numpy as np

from ..cancellation import active_cancel_token
from ..exceptions import ExecutionError, WorkerCrashed
from ..obs.profiler import ReplayProfiler, active_profiler
from ..obs.trace import TraceContext, get_tracer
from ..testing import faults
from .retry import is_infrastructure_failure
from ..simulator.execution_plan import (
    KERNEL_RESET,
    ExecutionPlan,
    _ChunkDense,
    compile_parametric_plan,
    compile_plan,
)

__all__ = [
    "SharedStatePool",
    "get_shared_state_pool",
    "shm_health",
    "shutdown_shared_state_pools",
    "SEGMENT_PREFIX",
]

#: Every segment this module creates is named ``repro-shm-<pid>-<token>-…``
#: so leak checks (tests, CI) can assert ``/dev/shm`` holds none afterwards.
SEGMENT_PREFIX = "repro-shm"

#: Seconds between liveness checks while the parent waits for worker acks.
_POLL_INTERVAL = 0.05


# ---------------------------------------------------------------------------
# Worker-side code (runs inside pool worker processes; module level so it is
# picklable by reference under the spawn/forkserver start methods)
# ---------------------------------------------------------------------------

#: Per-process plan cache: (content hash, width, compile options) -> plan.
_POOL_WORKER_PLANS: "OrderedDict[tuple, object]" = OrderedDict()
_POOL_WORKER_PLAN_CAPACITY = 64


def _attach_segment(name: str) -> SharedMemory:
    """Attach to a parent-owned segment without confusing the tracker.

    Pool workers are children of the segment-owning parent, so they share
    its resource-tracker process: a worker's attach re-registers the same
    name into the tracker's (set-based) cache — idempotent — and the
    parent's ``unlink`` unregisters it exactly once.  Workers must
    therefore *not* unregister on their own (that would strip the parent's
    registration and make the later unlink complain).  Python 3.13+ skips
    the redundant worker-side registration entirely via ``track=False``.
    """
    try:
        return SharedMemory(name=name, track=False)  # type: ignore[call-arg]
    except TypeError:  # Python < 3.13
        return SharedMemory(name=name)


def _worker_plan_for_job(job: dict):
    """Compile-once lookup inside a pool worker (mirrors the shard workers).

    The worker compiles from the shipped canonical JSON with the *same*
    compile options the parent used, so its plan — and therefore its chunk
    decomposition and its per-chunk arithmetic — is bitwise identical to
    the parent's.  Parametric circuits compile once and rebind per job.
    """
    from ..ir.serialization import circuit_from_json

    # ``compile_options`` are exactly the compile kwargs the parent's plan
    # was built with, so they are both the key and the call.
    options = job["options"]
    key = (job["digest"], job["width"], tuple(sorted(options.items())))
    plan = _POOL_WORKER_PLANS.get(key)
    if plan is None:
        faults.fire("shm.worker.compile")
        circuit = circuit_from_json(job["payload"])
        compiler = (
            compile_parametric_plan if circuit.is_parameterized else compile_plan
        )
        plan = compiler(circuit, job["width"], **options)
        _POOL_WORKER_PLANS[key] = plan
        while len(_POOL_WORKER_PLANS) > _POOL_WORKER_PLAN_CAPACITY:
            _POOL_WORKER_PLANS.popitem(last=False)
    else:
        _POOL_WORKER_PLANS.move_to_end(key)
    if plan.is_parametric:
        plan = plan.bind(job["params"])
    return plan


def _run_step_shm(plan, step, spec, cur, spare, shape, index, workers, barrier,
                  profiler=None):
    """Execute this worker's share of one plan step.

    Every worker walks the identical step/spec sequence and swaps its
    buffers after a step exactly when :attr:`PlanStep.swaps` says so, so the
    ping-pong bookkeeping (which buffer currently holds the state) stays in
    lockstep without any communication.  Steps with no chunk spec run
    serially on worker 0 while the others wait at the barrier; dense steps
    barrier between their gather / matmul / scatter phases because each
    phase reads what the previous one wrote.

    With a ``profiler`` the work and the barrier waits are timed
    separately — work seconds land on the step's kernel class, wait
    seconds on the barrier counter — through an instrumented twin of the
    same control flow, so the unprofiled path stays branch-free.
    """
    if profiler is None:
        if spec is None:
            if index == 0:
                plan._apply_step(step, cur, spare, shape, None)
            barrier.wait()
            return
        if isinstance(spec, _ChunkDense):
            for task in spec.tasks[index::workers]:
                spec.gather_part(task, cur, spare)
            barrier.wait()
            if index == 0:
                spec.matmul(cur, spare)
            barrier.wait()
            for task in spec.tasks[index::workers]:
                spec.scatter_part(task, cur, spare)
            barrier.wait()
            return
        for task in spec.tasks[index::workers]:
            spec.apply(task, cur, spare, shape)
        barrier.wait()
        return

    perf_counter = time.perf_counter

    def wait():
        t0 = perf_counter()
        barrier.wait()
        profiler.record_barrier(perf_counter() - t0)

    if spec is None:
        if index == 0:
            t0 = perf_counter()
            plan._apply_step(step, cur, spare, shape, None)
            profiler.record_kernel(step.kernel, perf_counter() - t0)
        wait()
        return
    if isinstance(spec, _ChunkDense):
        t0 = perf_counter()
        for task in spec.tasks[index::workers]:
            spec.gather_part(task, cur, spare)
        work = perf_counter() - t0
        wait()
        if index == 0:
            t0 = perf_counter()
            spec.matmul(cur, spare)
            work += perf_counter() - t0
        wait()
        t0 = perf_counter()
        for task in spec.tasks[index::workers]:
            spec.scatter_part(task, cur, spare)
        work += perf_counter() - t0
        profiler.record_kernel(step.kernel, work)
        wait()
        return
    t0 = perf_counter()
    for task in spec.tasks[index::workers]:
        spec.apply(task, cur, spare, shape)
    profiler.record_kernel(step.kernel, perf_counter() - t0)
    wait()


def _worker_replay(
    job: dict, segments: dict, index: int, workers: int, barrier
) -> tuple[bool, dict | None, bool]:
    """One worker's full replay; returns
    ``(final_in_state, obs_payload, aborted)``.

    ``final_in_state`` says whether the result landed in the state buffer
    (as opposed to the scratch buffer).  ``obs_payload`` carries this
    worker's observability data home when the parent asked for any —
    spans recorded against the shipped trace context and/or the local
    per-kernel/barrier profile — and is ``None`` otherwise.  ``aborted``
    reports a cooperative cancellation/deadline abort: the step loop was
    abandoned in lockstep, the half-evolved state is the parent's to
    discard, and this worker is still healthy.
    """
    faults.fire("shm.worker.replay")
    plan = _worker_plan_for_job(job)
    dim = 1 << plan.n_qubits
    # Attach (and memoise) the parent's segments; drop stale ones when the
    # parent grew its buffers under new names.
    names = tuple(
        n for n in (job["state"], job["scratch"], job.get("control")) if n
    )
    for stale in [n for n in segments if n not in names]:
        try:
            segments.pop(stale).close()
        except Exception:
            pass
    for name in names:
        if name not in segments:
            segments[name] = _attach_segment(name)
    cur = np.ndarray(dim, dtype=plan.dtype, buffer=segments[job["state"]].buf)
    spare = np.ndarray(dim, dtype=plan.dtype, buffer=segments[job["scratch"]].buf)
    state_buffer = cur
    shape = (2,) * plan.n_qubits
    program = plan.chunk_program(workers)
    # Cancellation guard (only shipped for jobs carrying a cancel token).
    # Byte 0 is the parent's stop request; byte 1 is the per-step verdict.
    # Worker 0 freezes the verdict *before* a barrier and everyone reads it
    # *after*, so all workers abort at the same step — independent clock or
    # flag reads could diverge by one step and deadlock the step barrier.
    guard = None
    deadline = None
    if job.get("control"):
        guard = np.ndarray(
            2, dtype=np.uint8, buffer=segments[job["control"]].buf
        )
        deadline = job.get("deadline")

    obs_req = job.get("obs") or {}
    parent_ctx = TraceContext.from_wire(obs_req.get("trace"))
    want_profile = bool(obs_req.get("profile"))
    # Tracing needs the barrier timings too (for the barrier-wait span), so
    # any observability request instruments the step loop; the profile only
    # ships home when it was asked for.
    profiler = ReplayProfiler() if (want_profile or parent_ctx is not None) else None
    tracer = get_tracer()
    aborted = False
    with tracer.capture() as sink:
        with tracer.span(
            "shm-worker-replay",
            attrs={"worker": index, "pid": os.getpid(), "n_qubits": plan.n_qubits},
            parent=parent_ctx,
        ) as span:
            for step, spec in zip(plan.steps, program):
                if guard is not None:
                    if index == 0 and not guard[1]:
                        if guard[0] or (
                            deadline is not None and time.time() >= deadline
                        ):
                            guard[1] = 1
                    barrier.wait()
                    if guard[1]:
                        aborted = True
                        span.mark_error("replay aborted (cancel/deadline)")
                        break
                faults.fire("shm.worker.step")
                _run_step_shm(
                    plan, step, spec, cur, spare, shape, index, workers, barrier,
                    profiler,
                )
                if step.swaps:
                    cur, spare = spare, cur
        if profiler is not None and span.recording:
            snap = profiler.snapshot()
            if snap.barrier_waits:
                # Summary child: total time this worker spent blocked at the
                # step barrier (anchored at the replay start; the individual
                # waits are interleaved with work, not one interval).
                tracer.record(
                    "barrier-wait",
                    parent=span.context(),
                    start_wall=span.start_wall,
                    duration=snap.barrier_wait_seconds,
                    attrs={"waits": snap.barrier_waits, "worker": index},
                )
    obs_out = None
    if obs_req:
        obs_out = {
            "spans": [s.to_dict() for s in sink],
            "profile": profiler.to_wire() if want_profile and profiler else None,
        }
    return cur is state_buffer, obs_out, aborted


def _shm_worker_main(conn, barrier, index: int, workers: int) -> None:
    """Worker process loop: replay commands until ``stop`` or pipe EOF."""
    segments: dict[str, SharedMemory] = {}
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            command = message[0]
            if command == "stop":
                break
            if command == "ping":
                conn.send(("ok", os.getpid()))
                continue
            # command == "replay"
            try:
                final_in_state, obs_payload, aborted = _worker_replay(
                    message[1], segments, index, workers, barrier
                )
                if aborted:
                    # Cooperative abort: the worker is healthy and keeps
                    # serving; only this replay was abandoned.
                    conn.send(("aborted", obs_payload))
                else:
                    conn.send(("ok", final_in_state, obs_payload))
            except BaseException:
                # Release siblings blocked at the step barrier, then report;
                # the parent tears the whole worker set down either way.
                try:
                    barrier.abort()
                except Exception:
                    pass
                try:
                    conn.send(("error", traceback.format_exc()))
                except Exception:
                    break
    finally:
        for shm in segments.values():
            try:
                shm.close()
            except Exception:
                pass


# ---------------------------------------------------------------------------
# Parent-side pool
# ---------------------------------------------------------------------------


class _SegmentAllocationError(MemoryError):
    """Shared-segment allocation failed: degrade instead of crashing."""


class _PoolClosedDuringAcquire(Exception):
    """The pool closed while a replay was waiting for a gang."""


class _Gang:
    """One resident state slot: a worker set plus its shared segments.

    Multi-state residency (``SharedStatePool(max_states=K)``) partitions
    the pool's worker budget into K gangs.  Each gang independently
    replays one state at a time through the same barrier-per-step
    protocol, so K sweep evaluations evolve K states in shared memory
    *concurrently* instead of serialising through one state+scratch pair.
    """

    __slots__ = (
        "slot",
        "workers",
        "barrier",
        "state",
        "scratch",
        "control",
        "capacity",
        "reserved",
        "busy",
    )

    def __init__(self, slot: int):
        self.slot = slot
        self.workers: list[tuple] = []  # (process, parent_connection)
        self.barrier = None
        self.state: SharedMemory | None = None
        self.scratch: SharedMemory | None = None
        self.control: SharedMemory | None = None
        self.capacity = 0  # bytes per shared buffer (state / scratch)
        #: Bytes per buffer the in-flight replay will grow this gang to
        #: (set at acquisition, settles to ``capacity`` at release) — the
        #: byte budget must see claimed-but-not-yet-allocated segments.
        self.reserved = 0
        self.busy = False


class SharedStatePool:
    """Persistent worker processes cooperating on shared-memory states.

    The pool implements the :class:`~repro.simulator.execution_plan.ChunkPool`
    protocol: pass it as ``pool=`` to ``ExecutionPlan.execute`` /
    ``StateVector.run`` / ``StateVector.apply_plan``, or hang it on a
    :class:`~repro.exec.backend.LocalBackend` — for states at or above the
    plan's ``chunk_threshold`` the replay runs across the worker processes
    instead of the calling process's threads, bitwise identical either way.

    ``max_states`` (default 1) is the multi-state residency count: the
    worker budget splits into up to that many *gangs*, each with its own
    state+scratch segments, so that many replays proceed concurrently —
    the lane parameter sweeps need to stop serialising through one pair.
    Gang 0 spawns eagerly (warm start); the rest spawn lazily, only when
    every live gang is busy and ``byte_budget`` (when set) still has room
    for another resident state pair.  ``max_states=1`` is exactly the
    historical single-state pool.

    ``mp_context`` selects the multiprocessing start method (``"fork"``,
    ``"spawn"``, ``"forkserver"``; default: the platform default).  Under
    spawn/forkserver each worker preloads the simulator stack while
    starting (the worker target lives in this module, so unpickling it
    imports everything), keeping first-replay latency off the hot path.

    ``fallback`` is an optional :class:`ChunkPool` consulted when this pool
    cannot replay a plan (mid-circuit resets, plans without provenance) —
    a :class:`ParallelSimulationEngine` keeps such replays thread-chunked
    instead of dropping to serial.
    """

    def __init__(
        self,
        processes: int = 2,
        *,
        name: str = "shm-pool",
        mp_context: str | None = None,
        fallback=None,
        breaker=None,
        retry_policy=None,
        max_states: int = 1,
        byte_budget: int | None = None,
    ):
        if processes < 1:
            raise ExecutionError(f"processes must be at least 1, got {processes}")
        if max_states < 1:
            raise ExecutionError(f"max_states must be at least 1, got {max_states}")
        self.processes = int(processes)
        self.name = name
        self.fallback = fallback
        #: Optional :class:`~repro.service.breaker.CircuitBreaker` guarding
        #: this lane: consulted before each replay, fed infrastructure
        #: failures, and — when open — traffic degrades to ``fallback``.
        self.breaker = breaker
        #: Optional :class:`~repro.exec.retry.RetryPolicy`.  ``None`` keeps
        #: the historical contract: a worker death fails the replay
        #: immediately (typed, workers respawned) with no silent re-run.
        self.retry_policy = retry_policy
        self.max_states = int(max_states)
        #: Optional cap (bytes) on total shared-segment residency across
        #: gangs.  Only gates *lazy gang spawning*: when adding another
        #: resident state+scratch pair would exceed it, the replay waits
        #: for a live gang instead.  The broker wires the admission
        #: controller's memory budget here, so K is bounded by the same
        #: accounting that admits jobs (and the complex64 tier's halved
        #: per-state footprint buys proportionally more resident states).
        self.byte_budget = byte_budget
        self._ctx = get_context(mp_context)
        self.start_method = self._ctx.get_start_method()
        self._lock = threading.RLock()
        #: Signals gang state transitions (release, spawn, close) to
        #: replays waiting in :meth:`_acquire_gang`.
        self._gang_cv = threading.Condition(self._lock)
        self._closed = False
        #: Set (without the lock) at the *start* of close(): refuses new
        #: replays and tells _recover not to respawn while shutting down.
        self._closing = False
        if self.processes < 2 or self.max_states <= 1:
            #: Workers per gang.  A replay splits across one gang, so this
            #: is also what ``effective_threads()`` reports.
            self.gang_size = self.processes
            slots = 1
        else:
            self.gang_size = max(2, self.processes // self.max_states)
            slots = max(1, min(self.max_states, self.processes // self.gang_size))
        self._gangs: list[_Gang | None] = [None] * slots
        self._respawns = 0
        self._barrier_aborts = 0
        # Registered for the atexit/finalizer sweep: the segment-name set
        # below tracks every live allocation, and _sweep_at_exit unlinks
        # whatever close() did not get to (including after worker SIGKILLs).
        _ensure_exit_sweep()
        _register_pool(self)
        # Gang 0 spawns eagerly (warm start; constructor errors surface
        # here, matching the historical single-gang behaviour).
        self._gangs[0] = self._spawn_gang(0)

    # -- lifecycle -----------------------------------------------------------
    def _spawn_gang(self, slot: int) -> _Gang:
        gang = _Gang(slot)
        self._spawn_gang_workers(gang)
        return gang

    def _spawn_gang_workers(self, gang: _Gang) -> None:
        # Start the resource tracker *before* forking workers: a worker
        # forked while no tracker exists spawns its own, and a private
        # tracker believes every attached segment leaked when the worker
        # exits.  With the parent's tracker already running, every worker
        # inherits it and register/unregister reconcile exactly once.
        try:
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        except Exception:
            pass
        barrier = self._ctx.Barrier(self.gang_size)
        workers = []
        try:
            for index in range(self.gang_size):
                parent_conn, child_conn = self._ctx.Pipe()
                process = self._ctx.Process(
                    target=_shm_worker_main,
                    args=(child_conn, barrier, index, self.gang_size),
                    name=f"{self.name}-g{gang.slot}-worker-{index}",
                    daemon=True,
                )
                process.start()
                child_conn.close()
                workers.append((process, parent_conn))
        except BaseException:
            for process, conn in workers:
                try:
                    conn.close()
                    process.terminate()
                except Exception:
                    pass
            raise
        gang.barrier = barrier
        gang.workers = workers

    def _teardown_gang_workers(self, gang: _Gang, graceful: bool) -> None:
        workers, gang.workers = gang.workers, []
        for process, conn in workers:
            if graceful:
                try:
                    conn.send(("stop",))
                except Exception:
                    pass
        for process, conn in workers:
            process.join(timeout=2.0 if graceful else 0.2)
            if process.is_alive():
                process.terminate()
                process.join(timeout=2.0)
            try:
                conn.close()
            except Exception:
                pass
        gang.barrier = None

    def _release_gang_segments(self, gang: _Gang) -> None:
        for attr in ("state", "scratch", "control"):
            shm = getattr(gang, attr)
            setattr(gang, attr, None)
            if shm is None:
                continue
            _forget_segment(shm.name)
            try:
                shm.close()
            except Exception:
                pass
            try:
                shm.unlink()
            except Exception:
                pass
        gang.capacity = 0

    def close(self, wait: bool = True) -> None:
        """Stop the workers and unlink the shared segments.

        Idempotent and exception-safe; after close the pool refuses new
        replays (``can_replay`` returns ``False``).

        Safe to call while replays are in flight on other threads: close()
        first flags ``_closing`` and aborts every gang's step barrier.
        Workers blocked at a barrier wake with ``BrokenBarrierError``, each
        in-flight replay fails over its normal recovery path (which sees
        ``_closing`` and skips the respawn) and releases its gang; close()
        waits for the busy gangs to drain before unlinking segments — never
        under a worker still mapping them into a live step.
        """
        self._closing = True
        for gang in [g for g in list(self._gangs) if g is not None]:
            barrier = gang.barrier
            if barrier is not None:
                try:
                    barrier.abort()
                except Exception:
                    pass
        with self._gang_cv:
            if self._closed:
                return
            deadline = time.time() + 5.0
            while any(g is not None and g.busy for g in self._gangs):
                if time.time() >= deadline:
                    break
                self._gang_cv.wait(timeout=_POLL_INTERVAL)
            self._closed = True
            for index, gang in enumerate(self._gangs):
                if gang is None:
                    continue
                self._teardown_gang_workers(gang, graceful=wait)
                self._release_gang_segments(gang)
                self._gangs[index] = None
            self._gang_cv.notify_all()
        _unregister_pool(self)

    def __enter__(self) -> "SharedStatePool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter-shutdown path
        try:
            self.close(wait=False)
        except Exception:
            pass

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    @property
    def respawns(self) -> int:
        """Times a gang's worker set was rebuilt after a worker death."""
        with self._lock:
            return self._respawns

    @property
    def barrier_aborts(self) -> int:
        """Step barriers aborted while recovering from a worker death."""
        return self._barrier_aborts

    @property
    def resident_bytes(self) -> int:
        """Bytes held in shared amplitude segments across all gangs."""
        with self._lock:
            return sum(g.capacity * 2 for g in self._gangs if g is not None)

    @property
    def resident_states(self) -> int:
        """Gangs currently live (each holds one resident state slot)."""
        with self._lock:
            return sum(1 for g in self._gangs if g is not None)

    def worker_pids(self) -> list[int]:
        """PID of each live worker process, across all gangs."""
        with self._lock:
            return [
                process.pid
                for gang in self._gangs
                if gang is not None
                for process, _ in gang.workers
            ]

    def segment_names(self) -> tuple[str, ...]:
        """Names of the currently allocated shared segments (tests/CI)."""
        with self._lock:
            return tuple(
                shm.name
                for gang in self._gangs
                if gang is not None
                for shm in (gang.state, gang.scratch)
                if shm is not None
            )

    # -- ChunkPool protocol ---------------------------------------------------
    def effective_threads(self) -> int:
        """Worker processes one replay splits across (ChunkPool parity).

        One replay occupies one gang, so this is the gang size — not the
        pool's total worker budget.
        """
        return self.gang_size

    def can_replay(self, plan) -> bool:
        """Whether :meth:`replay_plan` would handle ``plan`` itself.

        Requires gangs of ≥2 workers, an open pool, no mid-circuit resets
        (the global probability reduction + RNG draw cannot span
        processes) and plan provenance (the source circuit to ship; see
        :meth:`ExecutionPlan.replay_descriptor`).
        """
        if self.gang_size < 2 or self._closing or self.closed:
            return False
        if not isinstance(plan, ExecutionPlan):
            return False
        if any(step.tag == KERNEL_RESET for step in plan.steps):
            return False
        return plan.replay_descriptor() is not None

    def replay_plan(
        self, plan: ExecutionPlan, data: np.ndarray, rng=None
    ) -> np.ndarray | None:
        """Replay ``plan`` over ``data`` across the worker processes.

        ``data`` is copied into the shared state buffer once, evolved in
        place by every worker cooperatively, and copied back — the only
        amplitude traffic between processes is through the shared mapping.
        Returns ``data`` (mutated to the final state), or delegates to
        ``fallback``/serial (``None``) when the plan is not replayable
        here.  Raises :class:`WorkerCrashed` when a worker dies mid-step
        (after exhausting ``retry_policy``, if one is set); the worker set
        is respawned so the next replay starts clean.

        With a :attr:`breaker` attached the lane degrades instead of
        cascading: an open breaker (and any segment-allocation failure)
        routes the replay to ``fallback``/serial, and infrastructure
        failures feed the breaker while cancellations/deadlines do not.
        """
        if not self.can_replay(plan):
            fallback = self.fallback
            if fallback is not None:
                return fallback.replay_plan(plan, data, rng=rng)
            return None
        breaker = self.breaker
        if breaker is not None and not breaker.allow():
            return self._degraded_replay(plan, data, rng)
        token = active_cancel_token()
        policy = self.retry_policy
        attempts = 0
        while True:
            attempts += 1
            try:
                result = self._replay_shared(plan, data, rng, token)
            except _SegmentAllocationError as exc:
                # Memory pressure: degrade to the thread/serial lane rather
                # than crash the host.  Counts against the lane's health.
                if breaker is not None:
                    breaker.record_failure()
                with get_tracer().span(
                    "shm-alloc-degraded", attrs={"pool": self.name}
                ) as degrade_span:
                    degrade_span.mark_error(str(exc))
                return self._degraded_replay(plan, data, rng)
            except ExecutionError as exc:
                if breaker is not None and is_infrastructure_failure(exc):
                    breaker.record_failure()
                if policy is not None and policy.should_retry(attempts, exc):
                    policy.sleep(attempts, token)
                    continue
                if policy is not None and attempts > 1:
                    raise policy.exhausted(
                        f"shared-memory pool {self.name!r}", attempts, exc
                    )
                raise
            if breaker is not None:
                breaker.record_success()
            return result

    def _degraded_replay(self, plan, data, rng) -> np.ndarray | None:
        """Graceful degradation: fallback pool, else ``None`` (serial)."""
        fallback = self.fallback
        if fallback is not None:
            return fallback.replay_plan(plan, data, rng=rng)
        return None

    def _budget_allows(self, nbytes: int) -> bool:
        """Whether a new gang's state+scratch pair fits ``byte_budget``.

        Called with the lock held.  No budget set → always allowed.
        """
        if self.byte_budget is None:
            return True
        resident = sum(
            max(g.capacity, g.reserved) * 2
            for g in self._gangs
            if g is not None
        )
        return resident + 2 * nbytes <= self.byte_budget

    def _acquire_gang(self, nbytes: int, token) -> _Gang:
        """Claim an idle gang for one replay (spawning lazily if needed).

        Preference order per wakeup: an idle live gang whose segments are
        already big enough (warm — no realloc), any idle live gang, then a
        lazy spawn into an empty slot when the byte budget still has room
        for another resident pair.  Otherwise wait on the condition
        variable until a release/spawn/close changes the picture.  Raises
        through ``token.check()`` while waiting so a cancelled caller does
        not camp on the queue.
        """
        with self._gang_cv:
            while True:
                if self._closed or self._closing:
                    raise _PoolClosedDuringAcquire()
                if token is not None:
                    token.check()
                idle = [
                    g for g in self._gangs if g is not None and not g.busy
                ]
                if idle:
                    warm = [g for g in idle if g.capacity >= nbytes]
                    gang = warm[0] if warm else idle[0]
                    gang.busy = True
                    gang.reserved = max(gang.capacity, nbytes)
                    return gang
                empty = next(
                    (i for i, g in enumerate(self._gangs) if g is None), None
                )
                if empty is not None and self._budget_allows(nbytes):
                    gang = self._spawn_gang(empty)
                    self._gangs[empty] = gang
                    gang.busy = True
                    gang.reserved = nbytes
                    return gang
                self._gang_cv.wait(timeout=_POLL_INTERVAL)

    def _release_gang(self, gang: _Gang) -> None:
        with self._gang_cv:
            gang.busy = False
            gang.reserved = gang.capacity
            self._gang_cv.notify_all()

    def _replay_shared(
        self, plan: ExecutionPlan, data: np.ndarray, rng, token
    ) -> np.ndarray | None:
        circuit, options, params = plan.replay_descriptor()
        from .sharded import _circuit_payload

        payload, digest = _circuit_payload(circuit)
        # Observability request: the ambient trace context (so worker spans
        # stitch under the caller's replay span) and the profile flag.  Both
        # read here, before acquiring a gang, on the caller's thread.
        tracer = get_tracer()
        ctx = tracer.current_context()
        profiler = active_profiler()
        obs_req = None
        if ctx is not None or profiler is not None:
            obs_req = {
                "trace": ctx.to_wire() if ctx is not None else None,
                "profile": profiler is not None,
            }
        replay_started = time.time()
        dim = int(data.size)
        nbytes = dim * data.dtype.itemsize
        try:
            if token is not None:
                token.check()  # don't queue for a gang with a dead token
            try:
                gang = self._acquire_gang(nbytes, token)
            except _PoolClosedDuringAcquire:
                return None
            # The gang is exclusively ours until released: replays on other
            # gangs proceed concurrently (the point of multi-state
            # residency), and pool-level state is only touched under the
            # lock inside the helpers below.
            try:
                if not gang.workers:
                    self._spawn_gang_workers(gang)
                try:
                    faults.fire("shm.alloc")
                    self._ensure_capacity(gang, nbytes)
                    control = (
                        self._ensure_control(gang) if token is not None else None
                    )
                except (MemoryError, OSError) as exc:
                    raise _SegmentAllocationError(
                        f"pool {self.name!r} could not allocate {nbytes * 2} "
                        f"bytes of shared segments: {exc}"
                    ) from exc
                state = np.ndarray(dim, dtype=data.dtype, buffer=gang.state.buf)
                np.copyto(state, data)
                job = {
                    "payload": payload,
                    "digest": digest,
                    "width": plan.n_qubits,
                    "options": options,
                    "params": params,
                    "state": gang.state.name,
                    "scratch": gang.scratch.name,
                    "obs": obs_req,
                }
                if control is not None:
                    np.ndarray(2, dtype=np.uint8, buffer=control.buf)[:] = 0
                    job["control"] = control.name
                    job["deadline"] = token.deadline
                try:
                    for _, conn in gang.workers:
                        conn.send(("replay", job))
                except (BrokenPipeError, OSError) as exc:
                    # A worker died between replays; siblings that did get
                    # the job will block at the first barrier — same
                    # recovery as a mid-step death.
                    self._recover(gang, f"worker pipe rejected the job: {exc}")
                final_in_state, obs_payloads = self._collect_acks(gang, token)
                source = (
                    state
                    if final_in_state
                    else np.ndarray(dim, dtype=data.dtype, buffer=gang.scratch.buf)
                )
                np.copyto(data, source)
            finally:
                self._release_gang(gang)
        except ExecutionError as exc:
            # The dead worker's spans died with it; this parent-side record
            # is what keeps the trace complete through the failure.
            tracer.record(
                "shm-replay",
                parent=ctx,
                start_wall=replay_started,
                duration=max(0.0, time.time() - replay_started),
                attrs={"pool": self.name},
                error=str(exc),
            )
            raise
        # Stitch the workers' observability data after release: spans go
        # into this process's tracer (and any active capture sink, so a
        # shard worker re-ships them another hop), profiles into the
        # installed profiler.
        for obs_payload in obs_payloads:
            if not obs_payload:
                continue
            spans = obs_payload.get("spans")
            if spans:
                tracer.ingest(spans)
            if profiler is not None:
                profiler.merge_wire(obs_payload.get("profile"))
        return data

    # -- internals ------------------------------------------------------------
    def _ensure_capacity(self, gang: _Gang, nbytes: int) -> None:
        """(Re)allocate the gang's state + scratch segments to ``nbytes`` each.

        Grow-only: replaying a smaller state reuses the larger segments
        (workers view only the leading bytes they need).  Byte-based so a
        complex64 state occupies half the shared footprint of a complex128
        one at the same width.
        """
        if gang.state is not None and gang.capacity >= nbytes:
            return
        self._release_gang_segments(gang)
        token = secrets.token_hex(4)
        prefix = f"{SEGMENT_PREFIX}-{os.getpid()}-{token}"
        state = SharedMemory(create=True, size=nbytes, name=f"{prefix}-state")
        _remember_segment(state.name)
        try:
            scratch = SharedMemory(create=True, size=nbytes, name=f"{prefix}-scratch")
        except BaseException:
            _forget_segment(state.name)
            state.close()
            state.unlink()
            raise
        _remember_segment(scratch.name)
        gang.state, gang.scratch, gang.capacity = state, scratch, nbytes

    def _ensure_control(self, gang: _Gang) -> SharedMemory:
        """The (tiny, lazily created) cancellation-control segment.

        Byte 0: parent's stop request.  Byte 1: the per-step verdict worker
        0 freezes before each step barrier.  One segment per gang, reused
        across replays (zeroed per guarded job), unlinked with the others.
        """
        if gang.control is None:
            token = secrets.token_hex(4)
            control = SharedMemory(
                create=True,
                size=16,
                name=f"{SEGMENT_PREFIX}-{os.getpid()}-{token}-control",
            )
            _remember_segment(control.name)
            gang.control = control
        return gang.control

    def _collect_acks(
        self, gang: _Gang, token=None
    ) -> tuple[bool, list[dict | None]]:
        """Wait for every worker's replay ack; recover from worker death.
        Returns ``(final_in_state, per-worker observability payloads)``.

        A worker that died mid-step leaves its siblings blocked at the
        step barrier, so the parent aborts the barrier (releasing them
        with ``BrokenBarrierError``), rebuilds the entire worker set and
        raises.  Acks are awaited with :func:`multiprocessing.connection.wait`
        over *all* pending pipes, and every quiet interval re-checks the
        liveness of *every* pending worker — waiting on workers in order
        would hang forever on a live worker blocked at the barrier while a
        different worker is the one that died.  Called holding the gang.

        With a ``token``, every poll interval also drives cancellation: a
        tripped token writes the stop request into the control segment,
        the workers abort in lockstep at their next step boundary and ack
        ``aborted`` — still alive, no respawn — and the typed lifecycle
        error is raised here.
        """
        from multiprocessing.connection import wait as connection_wait

        finals: list[bool] = []
        observations: list[dict | None] = []
        failure: str | None = None
        aborted = False
        signalled = False
        pending = list(gang.workers)
        while pending and failure is None:
            if token is not None and not signalled:
                if token.cancelled or token.expired():
                    control = gang.control
                    if control is not None:
                        np.ndarray(2, dtype=np.uint8, buffer=control.buf)[0] = 1
                        signalled = True
            ready = connection_wait(
                [conn for _, conn in pending], timeout=_POLL_INTERVAL
            )
            if not ready:
                for process, _ in pending:
                    if not process.is_alive():
                        failure = (
                            f"worker {process.name!r} (pid {process.pid}) "
                            "died mid-replay"
                        )
                        break
                continue
            for done in ready:
                entry = next(e for e in pending if e[1] is done)
                try:
                    message = done.recv()
                except (EOFError, OSError):
                    failure = (
                        f"worker {entry[0].name!r} closed its pipe mid-replay"
                    )
                    break
                if message[0] == "error":
                    failure = message[1]
                    break
                if message[0] == "aborted":
                    aborted = True
                    observations.append(message[1])
                else:
                    finals.append(message[1])
                    observations.append(message[2] if len(message) > 2 else None)
                pending.remove(entry)
        if failure is not None:
            self._recover(gang, failure)
        if aborted:
            # All workers abandoned the replay in lockstep and stay alive;
            # surface the reason as the typed lifecycle error.
            if token is not None:
                token.check()
            raise ExecutionError(
                f"pool {self.name!r} aborted a replay without a tripped "
                "token (control segment written unexpectedly)"
            )
        return finals[0], observations

    def _recover(self, gang: _Gang, failure: str) -> None:
        """Abort the gang's step barrier, rebuild its worker set, raise.

        Unblocks survivors (they see ``BrokenBarrierError``), then rebuilds
        the whole gang: a broken barrier and a half-applied step are not
        worth salvaging worker by worker.  Other gangs are untouched —
        their replays proceed.  During :meth:`close` the respawn is
        skipped — the pool is going away.  Called holding the gang (busy),
        not the lock; counters are bumped under the lock.
        """
        try:
            gang.barrier.abort()
        except Exception:
            pass
        with self._lock:
            self._barrier_aborts += 1
        self._teardown_gang_workers(gang, graceful=False)
        if self._closing:
            raise ExecutionError(
                f"shared-memory pool {self.name!r} was closed mid-replay "
                f"(state discarded): {failure}"
            )
        with self._lock:
            self._respawns += 1
        self._spawn_gang_workers(gang)
        raise WorkerCrashed(
            f"shared-memory pool {self.name!r} lost a worker mid-replay "
            f"(workers respawned, state discarded): {failure}"
        )

    def __repr__(self) -> str:
        return (
            f"SharedStatePool(name={self.name!r}, processes={self.processes}, "
            f"gangs={len(self._gangs)}x{self.gang_size}, "
            f"start_method={self.start_method!r}, closed={self.closed})"
        )


# ---------------------------------------------------------------------------
# Process-wide registries: shared pools + segment sweep
# ---------------------------------------------------------------------------

_pools_lock = threading.Lock()
#: Every open pool, so the atexit sweep can close them (and their segments).
_open_pools: "weakref.WeakSet[SharedStatePool]" = weakref.WeakSet()
#: Segment names currently owned by this process; the sweep unlinks any that
#: survive (a pool leaked without close(), or close() interrupted mid-way).
_owned_segments: set[str] = set()
#: Shared pools keyed by ``(worker count, max_states)`` — the accelerator's
#: ``shm-processes`` and ``shm-states`` options respectively.
_shared_pools: dict[tuple[int, int], SharedStatePool] = {}
_shared_pools_lock = threading.Lock()


def _register_pool(pool: SharedStatePool) -> None:
    with _pools_lock:
        _open_pools.add(pool)


def _unregister_pool(pool: SharedStatePool) -> None:
    with _pools_lock:
        _open_pools.discard(pool)


def _remember_segment(name: str) -> None:
    with _pools_lock:
        _owned_segments.add(name)


def _forget_segment(name: str) -> None:
    with _pools_lock:
        _owned_segments.discard(name)


def get_shared_state_pool(
    processes: int,
    max_states: int = 1,
    *,
    byte_budget: int | None = None,
) -> SharedStatePool:
    """The process-wide shared pool with ``processes`` workers (created once).

    Shared for the same reason the sharded executors are: every accelerator
    clone asking for the same lane reuses one worker set — and its warm
    per-worker plan caches — instead of forking per clone.  Pools are keyed
    by ``(processes, max_states)`` so a sweep asking for multi-state
    residency does not steal (or reshape) the single-state pool other
    traffic relies on.  ``byte_budget`` is applied on first creation; an
    existing pool keeps its original budget.
    """
    if processes < 1:
        raise ExecutionError(f"processes must be at least 1, got {processes}")
    if max_states < 1:
        raise ExecutionError(f"max_states must be at least 1, got {max_states}")
    key = (int(processes), int(max_states))
    with _shared_pools_lock:
        pool = _shared_pools.get(key)
        if pool is None or pool.closed:
            suffix = f"-x{max_states}" if max_states > 1 else ""
            pool = SharedStatePool(
                processes,
                name=f"shared-shm-{processes}{suffix}",
                max_states=max_states,
                byte_budget=byte_budget,
            )
            _shared_pools[key] = pool
        return pool


def shm_health() -> dict[str, int]:
    """Aggregate health of this process's open shm pools (broker metrics).

    Lock-free by design: the gauges are read racily so a metrics snapshot
    never blocks behind a replay in flight.  Shard-hosted pools live inside
    shard worker processes and are invisible here — each process reports
    its own pools.
    """
    workers = respawns = barrier_aborts = resident_bytes = resident_states = 0
    with _pools_lock:
        pools = list(_open_pools)
    for pool in pools:
        try:
            if pool._closed:
                continue
            for gang in list(pool._gangs):
                if gang is None:
                    continue
                workers += sum(
                    1 for process, _ in list(gang.workers) if process.is_alive()
                )
                resident_bytes += gang.capacity * 2
                resident_states += 1
            respawns += pool._respawns
            barrier_aborts += pool._barrier_aborts
        except Exception:  # a pool mid-teardown; skip it rather than block
            continue
    return {
        "workers": workers,
        "respawns": respawns,
        "barrier_aborts": barrier_aborts,
        "resident_bytes": resident_bytes,
        "resident_states": resident_states,
    }


def shutdown_shared_state_pools(wait: bool = True) -> None:
    """Close every shared pool (tests, interpreter exit)."""
    with _shared_pools_lock:
        pools = list(_shared_pools.values())
        _shared_pools.clear()
    for pool in pools:
        try:
            pool.close(wait=wait)
        except Exception:
            pass


def _sweep_at_exit() -> None:
    shutdown_shared_state_pools(wait=False)
    with _pools_lock:
        pools = list(_open_pools)
        leftovers = list(_owned_segments)
        _owned_segments.clear()
    for pool in pools:
        try:
            pool.close(wait=False)
        except Exception:
            pass
    for name in leftovers:
        try:
            segment = SharedMemory(name=name)
        except FileNotFoundError:
            continue
        except Exception:
            continue
        try:
            segment.close()
            segment.unlink()
        except Exception:
            pass


#: PID that last registered the exit sweep.  The registration must be
#: re-done per process: multiprocessing children clear the inherited
#: finalizer registry in ``_bootstrap``, so an import-time hook from the
#: parent silently disappears in every fork child.
_sweep_registered_pid: int | None = None


def _ensure_exit_sweep() -> None:
    """Register the sweep for *this* process (idempotent per PID).

    Both hooks are needed: ``atexit`` covers normal interpreters, while
    multiprocessing children (e.g. shard workers that borrowed an shm
    pool) exit through ``util._exit_function()`` + ``os._exit()`` without
    ever running atexit handlers — only a ``multiprocessing.util.Finalize``
    fires there.  The sweep is idempotent, so a process hitting both hooks
    is fine.
    """
    global _sweep_registered_pid
    pid = os.getpid()
    if _sweep_registered_pid == pid:
        return
    _sweep_registered_pid = pid
    atexit.register(_sweep_at_exit)
    try:
        from multiprocessing import util

        util.Finalize(None, _sweep_at_exit, exitpriority=100)
    except Exception:  # pragma: no cover - registration best-effort
        pass


def _neuter_after_fork(_module) -> None:
    """Disarm bookkeeping a fork child inherited from its parent.

    A forked child gets copies of the parent's open pools, shared-pool
    registry and owned-segment names.  Acting on any of it — a child-side
    ``close()``, ``__del__`` or exit sweep — would stop worker processes
    and unlink ``/dev/shm`` segments the *parent* is still using.  Mark
    every inherited pool closed-and-empty and forget the names; pools the
    child creates itself register fresh.
    """
    global _sweep_registered_pid
    _sweep_registered_pid = None
    for pool in list(_open_pools):
        pool._closed = True
        pool._closing = True
        pool._gangs = [None] * len(pool._gangs)
    _open_pools.clear()
    _owned_segments.clear()
    _shared_pools.clear()


try:
    from multiprocessing import util as _mp_util
    import sys as _sys

    _mp_util.register_after_fork(_sys.modules[__name__], _neuter_after_fork)
except Exception:  # pragma: no cover - registration best-effort
    pass
