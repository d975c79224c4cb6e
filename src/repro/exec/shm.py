"""Shared-memory process-parallel replay of one large state.

The thread lane (PR 4's chunk-parallel replay) splits every kernel across
a :class:`~repro.simulator.parallel_engine.ParallelSimulationEngine`, but
in CPython the per-step Python dispatch still serialises behind the GIL
and every chunk fights for one process's memory bandwidth.  For the
paper's strong-scaling regime — one ≥20-qubit state, every core — this
module provides the process-grade twin:

* :class:`SharedStatePool` owns one *gang*: ``processes`` persistent worker
  processes plus two ``multiprocessing.shared_memory`` amplitude buffers
  (state + ping-pong scratch), mapped as numpy views in the parent *and* in
  every worker — the state is evolved cooperatively with **zero copies** of
  amplitude data between processes.  One replay runs at a time.
* Each job ships as *(canonical circuit JSON, content hash, compile
  options, binding)* plus an :class:`~repro.exec.workers.Envelope`; every
  worker compiles a bitwise-identical plan into its process's
  :func:`~repro.exec.workers.worker_plan` cache and rebuilds the same
  deterministic chunk decomposition the thread lane uses
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
``StateVector.run/apply_plan`` and :class:`~repro.exec.backend.LocalBackend`
can swap lanes without touching kernel code.
"""

from __future__ import annotations

import atexit
import os
import secrets
import threading
import time
import traceback
import weakref
from multiprocessing import get_context
from multiprocessing.shared_memory import SharedMemory

import numpy as np

from ..cancellation import active_cancel_token
from ..exceptions import ExecutionError, WorkerCrashed
from ..obs.profiler import active_profiler
from ..obs.trace import get_tracer
from ..testing import faults
from .retry import is_infrastructure_failure
from .workers import Envelope, circuit_payload, worker_plan
from ..simulator.execution_plan import KERNEL_RESET, ExecutionPlan, _ChunkDense

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
) -> tuple[bool, bool]:
    """One worker's full replay (the body run under the job's envelope);
    returns ``(final_in_state, aborted)``.

    ``final_in_state`` says whether the result landed in the state buffer
    (as opposed to the scratch buffer).  ``aborted`` reports a cooperative
    cancellation/deadline abort: the step loop was abandoned in lockstep,
    the half-evolved state is the parent's to discard, and this worker is
    still healthy.
    """
    faults.fire("shm.worker.replay")
    plan, _ = worker_plan(
        job["payload"], job["digest"], job["width"], job["options"],
        "shm.worker.compile",
    )
    if plan.is_parametric:
        plan = plan.bind(job["params"])
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
    if job.get("control"):
        guard = np.ndarray(2, dtype=np.uint8, buffer=segments[job["control"]].buf)
    token = active_cancel_token()  # the envelope's deadline, if any
    # Any observability request instruments the step loop: tracing needs
    # the barrier timings too, for the barrier-wait span.
    profiler = active_profiler() if job["envelope"].observed else None
    started = time.time()
    aborted = False
    for step, spec in zip(plan.steps, program):
        if guard is not None:
            if index == 0 and not guard[1]:
                if guard[0] or (token is not None and token.expired()):
                    guard[1] = 1
            barrier.wait()
            if guard[1]:
                aborted = True
                break
        faults.fire("shm.worker.step")
        _run_step_shm(
            plan, step, spec, cur, spare, shape, index, workers, barrier, profiler
        )
        if step.swaps:
            cur, spare = spare, cur
    tracer = get_tracer()
    ctx = tracer.current_context()
    if profiler is not None and ctx is not None:
        snap = profiler.snapshot()
        if snap.barrier_waits:
            # Summary child: total time this worker spent blocked at the
            # step barrier (anchored at the replay start; the individual
            # waits are interleaved with work, not one interval).
            tracer.record(
                "barrier-wait",
                parent=ctx,
                start_wall=started,
                duration=snap.barrier_wait_seconds,
                attrs={"waits": snap.barrier_waits, "worker": index},
            )
    return cur is state_buffer, aborted


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
            job = message[1]
            try:
                (final_in_state, aborted), obs_payload = job["envelope"].run(
                    lambda: _worker_replay(job, segments, index, workers, barrier),
                    "shm-worker-replay",
                    {"worker": index, "n_qubits": job["width"]},
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


class SharedStatePool:
    """Persistent worker processes cooperating on one shared-memory state.

    The pool implements the :class:`~repro.simulator.execution_plan.ChunkPool`
    protocol: pass it as ``pool=`` to ``ExecutionPlan.execute`` /
    ``StateVector.run`` / ``StateVector.apply_plan``, or hang it on a
    :class:`~repro.exec.backend.LocalBackend` — for states at or above the
    plan's ``chunk_threshold`` the replay runs across the worker processes
    instead of the calling process's threads, bitwise identical either way.
    Concurrent replays take turns on the one worker gang.

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
    ):
        if processes < 1:
            raise ExecutionError(f"processes must be at least 1, got {processes}")
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
        self._ctx = get_context(mp_context)
        self.start_method = self._ctx.get_start_method()
        self._lock = threading.RLock()
        #: Signals gang release and close to replays waiting their turn.
        self._cv = threading.Condition(self._lock)
        self._closed = False
        #: Set (without the lock) at the *start* of close(): refuses new
        #: replays and tells _recover not to respawn while shutting down.
        self._closing = False
        self._busy = False
        self._workers: list[tuple] = []  # (process, parent_connection)
        self._barrier = None
        self._state: SharedMemory | None = None
        self._scratch: SharedMemory | None = None
        self._control: SharedMemory | None = None
        self._capacity = 0  # bytes per shared buffer (state / scratch)
        self._respawns = 0
        self._barrier_aborts = 0
        # Registered for the atexit/finalizer sweep: the segment-name set
        # below tracks every live allocation, and _sweep_at_exit unlinks
        # whatever close() did not get to (including after worker SIGKILLs).
        _ensure_exit_sweep()
        _register_pool(self)
        # Warm start: constructor errors surface here, not mid-traffic.
        self._spawn_workers()

    # -- lifecycle -----------------------------------------------------------
    def _spawn_workers(self) -> None:
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
        barrier = self._ctx.Barrier(self.processes)
        workers = []
        try:
            for index in range(self.processes):
                parent_conn, child_conn = self._ctx.Pipe()
                process = self._ctx.Process(
                    target=_shm_worker_main,
                    args=(child_conn, barrier, index, self.processes),
                    name=f"{self.name}-worker-{index}",
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
        self._barrier = barrier
        self._workers = workers

    def _teardown_workers(self, graceful: bool) -> None:
        workers, self._workers = self._workers, []
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
        self._barrier = None

    def _release_segments(self) -> None:
        for attr in ("_state", "_scratch", "_control"):
            shm = getattr(self, attr)
            setattr(self, attr, None)
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
        self._capacity = 0

    def close(self, wait: bool = True) -> None:
        """Stop the workers and unlink the shared segments.

        Idempotent and exception-safe; after close the pool refuses new
        replays (``can_replay`` returns ``False``).

        Safe to call while a replay is in flight on another thread: close()
        first flags ``_closing`` and aborts the step barrier.  Workers
        blocked at it wake with ``BrokenBarrierError``, the in-flight
        replay fails over its normal recovery path (which sees
        ``_closing`` and skips the respawn) and releases the gang; close()
        waits for that before unlinking segments — never under a worker
        still mapping them into a live step.
        """
        self._closing = True
        barrier = self._barrier
        if barrier is not None:
            try:
                barrier.abort()
            except Exception:
                pass
        with self._cv:
            if self._closed:
                return
            deadline = time.time() + 5.0
            while self._busy and time.time() < deadline:
                self._cv.wait(timeout=_POLL_INTERVAL)
            self._closed = True
            self._teardown_workers(graceful=wait)
            self._release_segments()
            self._cv.notify_all()
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
        """Times the worker set was rebuilt after a worker death."""
        with self._lock:
            return self._respawns

    @property
    def barrier_aborts(self) -> int:
        """Step barriers aborted while recovering from a worker death."""
        return self._barrier_aborts

    @property
    def resident_bytes(self) -> int:
        """Bytes held in the shared amplitude segments."""
        with self._lock:
            return self._capacity * 2

    @property
    def resident_states(self) -> int:
        """Resident state slots: 1 while the pool is open, else 0."""
        with self._lock:
            return 0 if self._closed else 1

    def worker_pids(self) -> list[int]:
        """PID of each live worker process."""
        with self._lock:
            return [process.pid for process, _ in self._workers]

    def segment_names(self) -> tuple[str, ...]:
        """Names of the currently allocated shared segments (tests/CI)."""
        with self._lock:
            return tuple(
                shm.name for shm in (self._state, self._scratch) if shm is not None
            )

    # -- ChunkPool protocol ---------------------------------------------------
    def effective_threads(self) -> int:
        """Worker processes one replay splits across (ChunkPool parity)."""
        return self.processes

    def can_replay(self, plan) -> bool:
        """Whether :meth:`replay_plan` would handle ``plan`` itself.

        Requires ≥2 workers, an open pool, no mid-circuit resets (the
        global probability reduction + RNG draw cannot span processes) and
        plan provenance (the source circuit to ship; see
        :meth:`ExecutionPlan.replay_descriptor`).
        """
        if self.processes < 2 or self._closing or self.closed:
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
            return self._degraded_replay(plan, data, rng)
        breaker = self.breaker
        if breaker is not None and not breaker.allow():
            return self._degraded_replay(plan, data, rng)
        token = active_cancel_token()
        policy = self.retry_policy
        attempts = 0
        while True:
            attempts += 1
            try:
                result = self._replay_shared(plan, data, token)
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

    def _acquire(self, token) -> bool:
        """Wait for the gang to be idle and claim it; ``False`` if the pool
        closed meanwhile.  A tripped token raises while waiting, so a
        cancelled caller does not camp on the queue."""
        with self._cv:
            while self._busy and not self._closing:
                if token is not None:
                    token.check()
                self._cv.wait(timeout=_POLL_INTERVAL)
            if self._closed or self._closing:
                return False
            self._busy = True
            return True

    def _release(self) -> None:
        with self._cv:
            self._busy = False
            self._cv.notify_all()

    def _replay_shared(
        self, plan: ExecutionPlan, data: np.ndarray, token
    ) -> np.ndarray | None:
        circuit, options, params = plan.replay_descriptor()
        payload, digest = circuit_payload(circuit)
        envelope = Envelope.capture()  # before queueing for the gang
        replay_started = time.time()
        dim = int(data.size)
        nbytes = dim * data.dtype.itemsize
        try:
            if not self._acquire(token):
                return None
            try:
                if not self._workers:
                    self._spawn_workers()
                try:
                    faults.fire("shm.alloc")
                    self._ensure_capacity(nbytes)
                    control = self._ensure_control() if token is not None else None
                except (MemoryError, OSError) as exc:
                    raise _SegmentAllocationError(
                        f"pool {self.name!r} could not allocate {nbytes * 2} "
                        f"bytes of shared segments: {exc}"
                    ) from exc
                state = np.ndarray(dim, dtype=data.dtype, buffer=self._state.buf)
                np.copyto(state, data)
                job = {
                    "payload": payload,
                    "digest": digest,
                    "width": plan.n_qubits,
                    "options": options,
                    "params": params,
                    "state": self._state.name,
                    "scratch": self._scratch.name,
                    "envelope": envelope,
                }
                if control is not None:
                    np.ndarray(2, dtype=np.uint8, buffer=control.buf)[:] = 0
                    job["control"] = control.name
                try:
                    for _, conn in self._workers:
                        conn.send(("replay", job))
                except (BrokenPipeError, OSError) as exc:
                    # A worker died between replays; siblings that did get
                    # the job will block at the first barrier — same
                    # recovery as a mid-step death.
                    self._recover(f"worker pipe rejected the job: {exc}")
                final_in_state, obs_payloads = self._collect_acks(token)
                source = (
                    state
                    if final_in_state
                    else np.ndarray(dim, dtype=data.dtype, buffer=self._scratch.buf)
                )
                np.copyto(data, source)
            finally:
                self._release()
        except ExecutionError as exc:
            # The dead worker's spans died with it; this parent-side record
            # is what keeps the trace complete through the failure.
            tracer = get_tracer()
            tracer.record(
                "shm-replay",
                parent=tracer.current_context(),
                start_wall=replay_started,
                duration=max(0.0, time.time() - replay_started),
                attrs={"pool": self.name},
                error=str(exc),
            )
            raise
        envelope.stitch(obs_payloads)
        return data

    # -- internals ------------------------------------------------------------
    def _ensure_capacity(self, nbytes: int) -> None:
        """(Re)allocate the state + scratch segments to ``nbytes`` each.

        Grow-only: replaying a smaller state reuses the larger segments
        (workers view only the leading bytes they need).  Byte-based so a
        complex64 state occupies half the shared footprint of a complex128
        one at the same width.
        """
        if self._state is not None and self._capacity >= nbytes:
            return
        self._release_segments()
        prefix = f"{SEGMENT_PREFIX}-{os.getpid()}-{secrets.token_hex(4)}"
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
        self._state, self._scratch, self._capacity = state, scratch, nbytes

    def _ensure_control(self) -> SharedMemory:
        """The (tiny, lazily created) cancellation-control segment.

        Byte 0: parent's stop request.  Byte 1: the per-step verdict worker
        0 freezes before each step barrier.  Reused across replays (zeroed
        per guarded job), unlinked with the others.
        """
        if self._control is None:
            control = SharedMemory(
                create=True,
                size=16,
                name=f"{SEGMENT_PREFIX}-{os.getpid()}-{secrets.token_hex(4)}-control",
            )
            _remember_segment(control.name)
            self._control = control
        return self._control

    def _collect_acks(self, token=None) -> tuple[bool, list[dict | None]]:
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
        pending = list(self._workers)
        while pending and failure is None:
            if token is not None and not signalled:
                if token.cancelled or token.expired():
                    np.ndarray(2, dtype=np.uint8, buffer=self._control.buf)[0] = 1
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
                    observations.append(message[2])
                pending.remove(entry)
        if failure is not None:
            self._recover(failure)
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

    def _recover(self, failure: str) -> None:
        """Abort the step barrier, rebuild the worker set, raise.

        Unblocks survivors (they see ``BrokenBarrierError``), then rebuilds
        the whole gang: a broken barrier and a half-applied step are not
        worth salvaging worker by worker.  During :meth:`close` the respawn
        is skipped — the pool is going away.  Called holding the gang,
        not the lock; counters are bumped under the lock.
        """
        try:
            self._barrier.abort()
        except Exception:
            pass
        with self._lock:
            self._barrier_aborts += 1
        self._teardown_workers(graceful=False)
        if self._closing:
            raise ExecutionError(
                f"shared-memory pool {self.name!r} was closed mid-replay "
                f"(state discarded): {failure}"
            )
        with self._lock:
            self._respawns += 1
        self._spawn_workers()
        raise WorkerCrashed(
            f"shared-memory pool {self.name!r} lost a worker mid-replay "
            f"(workers respawned, state discarded): {failure}"
        )

    def __repr__(self) -> str:
        return (
            f"SharedStatePool(name={self.name!r}, processes={self.processes}, "
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
#: Shared pools keyed by worker count (the accelerator's ``shm-processes``).
_shared_pools: dict[int, SharedStatePool] = {}
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


def get_shared_state_pool(processes: int) -> SharedStatePool:
    """The process-wide shared pool with ``processes`` workers (created once).

    Shared for the same reason the sharded executors are: every accelerator
    clone asking for the same lane reuses one worker set — and its warm
    per-worker plan caches — instead of forking per clone.
    """
    if processes < 1:
        raise ExecutionError(f"processes must be at least 1, got {processes}")
    with _shared_pools_lock:
        pool = _shared_pools.get(processes)
        if pool is None or pool.closed:
            pool = SharedStatePool(processes, name=f"shared-shm-{processes}")
            _shared_pools[processes] = pool
        return pool


def shm_health() -> dict[str, int]:
    """Aggregate health of this process's open shm pools (broker metrics).

    Lock-free by design: the gauges are read racily so a metrics snapshot
    never blocks behind a replay in flight.
    """
    workers = respawns = barrier_aborts = resident_bytes = resident_states = 0
    with _pools_lock:
        pools = list(_open_pools)
    for pool in pools:
        try:
            if pool._closed:
                continue
            workers += sum(
                1 for process, _ in list(pool._workers) if process.is_alive()
            )
            resident_bytes += pool._capacity * 2
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
    multiprocessing children that own a pool exit through
    ``util._exit_function()`` + ``os._exit()`` without ever running atexit
    handlers — only a ``multiprocessing.util.Finalize`` fires there.  The
    sweep is idempotent, so a process hitting both hooks is fine.
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
    ``close()``, ``__del__`` or exit sweep — would stop worker processes,
    abort the parent's step barrier and unlink ``/dev/shm`` segments the
    *parent* is still using.  Mark every inherited pool closed-and-empty
    and forget the names; pools the child creates itself register fresh.
    """
    global _sweep_registered_pid
    _sweep_registered_pid = None
    for pool in list(_open_pools):
        pool._closed = True
        pool._closing = True
        pool._workers = []
        pool._barrier = None
        pool._state = pool._scratch = pool._control = None
    _open_pools.clear()
    _owned_segments.clear()
    _shared_pools.clear()


try:
    from multiprocessing import util as _mp_util
    import sys as _sys

    _mp_util.register_after_fork(_sys.modules[__name__], _neuter_after_fork)
except Exception:  # pragma: no cover - registration best-effort
    pass
