"""Inner-simulator parallelism (the paper's third level of parallelism).

Quantum++ parallelises gate application and sampling with OpenMP; the number
of threads is controlled with ``OMP_NUM_THREADS``.  This module provides the
Python analogue used by :class:`repro.runtime.qpp_accelerator.QppAccelerator`:

* **Shot-level parallelism** — shots split into ``num_threads`` chunks, each
  with its own RNG stream from a ``numpy.random.SeedSequence`` spawn:
  trajectory chunks (noisy or mid-circuit-measurement workloads) run on a
  thread pool — or, for a state below ``HANDOFF_BAND_STOP`` amplitudes, back
  to back on the calling thread, because a second thread on so small a
  state only trades the GIL with the first — and terminal-sampling chunks
  draw on the calling thread.  A fixed
  seed reproduces exactly at a fixed ``num_threads``; fixed-seed *counts*
  differ between worker counts (``seed=5`` gives different Bell histograms
  on 1 and 2 threads), the sampled *distribution* does not.
* **Chunked state application** — large single-qubit gate updates are split
  into contiguous chunks processed by multiple workers.  NumPy releases the
  GIL inside the vectorised kernels, so chunks genuinely overlap for large
  states; for small states the engine falls back to the serial kernel to
  avoid pool overhead.

Trajectory workloads compile the circuit into one
:class:`~repro.simulator.execution_plan.ExecutionPlan` and replay it per
shot — the plan is immutable, so every worker shares it without copying.

The engine is purely thread-local: each accelerator clone owns its own
engine, so two kernels running on different user threads never contend on
shared simulator state (the property the paper's QPUManager establishes).
The worker pool is created lazily on first use and *reused* across calls;
``close()`` (or using the engine as a context manager) tears it down.
"""

from __future__ import annotations

import concurrent.futures
from typing import Callable, Iterable, Sequence

import numpy as np

from ..config import get_config
from ..exceptions import ExecutionError
from ..ir.composite import CompositeInstruction
from .execution_plan import (
    DEFAULT_CHUNK_THRESHOLD,
    HANDOFF_BAND_STOP,
    ExecutionPlan,
    compile_plan,
)
from .sampling import sample_chunks, sample_counts
from .statevector import StateVector

__all__ = [
    "ParallelSimulationEngine",
    "merge_counts",
    "replay_trajectory_chunk",
    "split_shots",
]

#: States smaller than this (amplitudes) are not worth chunking across workers
#: (shared with chunk-parallel plan replay — see execution_plan).
_CHUNK_THRESHOLD = DEFAULT_CHUNK_THRESHOLD


def split_shots(shots: int, workers: int) -> list[int]:
    """Split ``shots`` into ``workers`` near-equal positive chunks."""
    if shots <= 0:
        raise ExecutionError(f"shots must be positive, got {shots}")
    if workers <= 0:
        raise ExecutionError(f"workers must be positive, got {workers}")
    workers = min(workers, shots)
    base, remainder = divmod(shots, workers)
    return [base + (1 if i < remainder else 0) for i in range(workers)]


def merge_counts(histograms: Iterable[dict[str, int]]) -> dict[str, int]:
    """Merge per-worker count histograms into one."""
    merged: dict[str, int] = {}
    for histogram in histograms:
        for key, value in histogram.items():
            merged[key] = merged.get(key, 0) + int(value)
    return merged


def replay_trajectory_chunk(
    plan: "ExecutionPlan",
    shots: int,
    rng: np.random.Generator,
    measured: Sequence[int],
    n_qubits: int,
    prepare: Callable[[], "StateVector"] | None = None,
    pool: "ParallelSimulationEngine | None" = None,
) -> dict[str, int]:
    """One worker's trajectory chunk: ``shots`` full plan replays on ``rng``.

    RNG-critical and therefore shared verbatim by the engine's thread
    workers and the process shards (:mod:`repro.exec.sharded`): both paths
    must consume ``rng`` draw for draw — one reset/sample sequence per
    trajectory, recycling the previous trajectory's buffer — or the
    fixed-seed bit-identity between threaded and sharded execution breaks.

    ``pool`` chunk-parallelises each replay across an engine's worker
    threads (safe because chunked replay is bitwise identical to serial, so
    RNG consumption never changes).  Only pass a pool when this chunk runs
    *outside* that pool's own threads — the single-chunk engine path and
    the sharded workers; nested submission would deadlock.
    """
    histogram: dict[str, int] = {}
    data: np.ndarray | None = None
    for _ in range(shots):
        if prepare is not None:
            data = prepare().data.copy()
        elif data is None:
            data = plan.new_state()
        else:
            # Recycle the previous trajectory's buffer instead of
            # allocating a fresh 2^n array per shot.
            data.fill(0.0)
            data[0] = 1.0
        data = plan.execute(data, rng=rng, pool=pool)
        sample = sample_counts(np.abs(data) ** 2, 1, measured, n_qubits, rng)
        for key, value in sample.items():
            histogram[key] = histogram.get(key, 0) + value
    return histogram


class ParallelSimulationEngine:
    """Worker-pool wrapper for shot- and chunk-level simulator parallelism."""

    def __init__(self, num_threads: int | None = None):
        #: Number of worker threads (the ``OMP_NUM_THREADS`` analogue).  ``None``
        #: defers to the global configuration at call time.
        self.num_threads = num_threads
        self._pool: concurrent.futures.ThreadPoolExecutor | None = None
        self._pool_size = 0

    def effective_threads(self) -> int:
        threads = self.num_threads if self.num_threads is not None else get_config().omp_num_threads
        if threads <= 0:
            raise ExecutionError(f"num_threads must be positive, got {threads}")
        return threads

    # -- pool lifecycle -----------------------------------------------------------
    def _executor(self, workers: int) -> concurrent.futures.ThreadPoolExecutor:
        """The engine's reusable pool, grown if ``workers`` exceeds its size.

        Engines are thread-local by design, so the pool is never raced; it
        is created lazily (and re-created after :meth:`close`).
        """
        pool = self._pool
        if pool is None or self._pool_size < workers:
            if pool is not None:
                pool.shutdown(wait=False)
            pool = concurrent.futures.ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="sim-engine"
            )
            self._pool = pool
            self._pool_size = workers
        return pool

    def chunk_pool(self, workers: int) -> concurrent.futures.ThreadPoolExecutor:
        """The executor chunk-parallel plan replay dispatches on.

        This is the engine's reusable pool (grown to ``workers``); it is
        the ``pool=`` duck-type :meth:`ExecutionPlan.execute` expects
        together with :meth:`effective_threads`.
        """
        return self._executor(workers)

    def replay_plan(
        self, plan: ExecutionPlan, data: np.ndarray, rng=None
    ) -> np.ndarray | None:
        """Chunk-replay ``plan`` over ``data`` on the worker threads.

        The engine's :class:`~repro.simulator.execution_plan.ChunkPool`
        implementation: every kernel splits into disjoint sub-views mapped
        over the thread pool, bitwise identical to serial replay.  Returns
        ``None`` when a single worker could not beat the serial sweep —
        the caller then replays serially.
        """
        workers = int(self.effective_threads())
        if workers <= 1:
            return None
        return plan._execute_chunked(data, rng, self, workers)

    def close(self, wait: bool = True) -> None:
        """Tear the worker pool down (the engine stays usable: the next
        parallel call lazily builds a fresh pool).

        Idempotent and safe during interpreter teardown: a second call is a
        no-op, and shutdown errors from a half-torn-down ``concurrent.futures``
        (module globals already cleared) are swallowed rather than raised
        out of ``__del__``/atexit paths.
        """
        pool = self._pool
        self._pool = None
        self._pool_size = 0
        if pool is not None:
            try:
                pool.shutdown(wait=wait)
            except Exception:
                pass

    def __enter__(self) -> "ParallelSimulationEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter-shutdown path
        try:
            self.close(wait=False)
        except Exception:
            pass

    def __repr__(self) -> str:
        return f"ParallelSimulationEngine(num_threads={self.num_threads})"

    # -- shot-level parallelism ---------------------------------------------------
    def sample_parallel(
        self,
        state: StateVector,
        shots: int,
        measured_qubits: Sequence[int] | None = None,
        seed: int | None = None,
    ) -> dict[str, int]:
        """Sample ``shots`` outcomes: one seeded generator per shot chunk.

        :func:`~repro.simulator.sampling.sample_chunks` computes the marginal
        once and draws each chunk by inverse CDF or ``multinomial`` (a rule
        of chunk shots and positive bins), summing them before any key is
        formatted.  Draws run on the calling thread: two pooled 2^17-bin
        draws measured slower than inline on the 2-core benchmark host, so
        sampling never touches the worker pool.
        """
        threads = self.effective_threads()
        qubits = (
            tuple(measured_qubits)
            if measured_qubits is not None
            else tuple(range(state.n_qubits))
        )
        chunks = split_shots(shots, threads)
        seeds = np.random.SeedSequence(seed).spawn(len(chunks))
        rngs = [np.random.default_rng(seq) for seq in seeds]
        return sample_chunks(state.probabilities(), chunks, qubits, state.n_qubits, rngs)

    def run_trajectories(
        self,
        n_qubits: int,
        circuit: CompositeInstruction,
        shots: int,
        seed: int | None = None,
        prepare: Callable[[], StateVector] | None = None,
        plan: ExecutionPlan | None = None,
        processes: int | None = None,
    ) -> dict[str, int]:
        """Run ``shots`` independent trajectories (one full simulation each).

        Used when the circuit contains mid-circuit resets (which make a
        single-state + multinomial sampling approach incorrect).  The
        circuit is compiled once into an execution plan (or use a
        pre-compiled ``plan``) and replayed per trajectory; trajectory
        counts are split into one chunk per worker (run on the pool at or
        above ``HANDOFF_BAND_STOP`` amplitudes, inline below it — the
        counts are the same either way).

        ``processes=N`` (N > 1) shards the trajectories across the shared
        :class:`~repro.exec.sharded.ShardedExecutor` worker *processes*
        instead of this engine's threads — the GIL-free path.  Shard seeds
        derive exactly as the per-thread streams do, so fixed-seed counts
        are bit-identical to the in-process run with ``num_threads == N``.
        """
        if processes is not None and processes > 1:
            if prepare is not None:
                raise ExecutionError(
                    "prepare callbacks cannot cross process boundaries; "
                    "use the in-process (thread) trajectory path"
                )
            if plan is not None:
                raise ExecutionError(
                    "pre-compiled plans cannot cross process boundaries; "
                    "pass the circuit and let each shard compile into its "
                    "own plan cache (or use the in-process path)"
                )
            from ..exec.sharded import get_sharded_executor

            # Workers compile from the shipped circuit; optimize=False
            # matches this method's own compile default so the replayed
            # kernels (and therefore the RNG consumption) are identical.
            result = get_sharded_executor(processes).execute(
                circuit,
                shots,
                n_qubits=n_qubits,
                seed=seed,
                optimize=False,
                trajectories=True,
            )
            return dict(result.counts)
        threads = self.effective_threads()
        measured = circuit.measured_qubits() or tuple(range(n_qubits))
        if plan is None:
            # Direct engine callers get the circuit as-is (no IR passes),
            # matching the historical gate-by-gate behaviour bit for bit;
            # the accelerator passes an optimised plan from the cache.
            plan = compile_plan(circuit, n_qubits, optimize=False)
        chunks = split_shots(shots, threads)
        seeds = np.random.SeedSequence(seed).spawn(len(chunks))

        if len(chunks) == 1:
            # Single chunk: it replays on the calling thread, so the engine's
            # idle pool can chunk-parallelise each large-state replay instead
            # (bitwise identical, so the RNG stream is unaffected).
            return replay_trajectory_chunk(
                plan, chunks[0], np.random.default_rng(seeds[0]), measured,
                n_qubits, prepare, pool=self,
            )

        def run_chunk(chunk_and_seed: tuple[int, np.random.SeedSequence]) -> dict[str, int]:
            chunk, seq = chunk_and_seed
            return replay_trajectory_chunk(
                plan, chunk, np.random.default_rng(seq), measured, n_qubits, prepare
            )

        # Below the hand-off band's upper edge the chunks run back to back
        # here: same streams, same chunk function, same merge order — so
        # identical counts — and no pool is created.
        inline = (1 << n_qubits) < HANDOFF_BAND_STOP
        mapper = map if inline else self._executor(len(chunks)).map
        return merge_counts(mapper(run_chunk, zip(chunks, seeds)))

    # -- chunk-level parallelism ----------------------------------------------------
    def apply_single_qubit_chunked(
        self, state: np.ndarray, matrix: np.ndarray, target: int
    ) -> np.ndarray:
        """Apply a single-qubit gate, splitting the state across workers.

        Falls back to the serial kernel for small states where pool overhead
        would dominate.  The split is along the *high* bits (above the target
        qubit), so each chunk is an independent contiguous slab.
        """
        from .gate_application import apply_single_qubit

        threads = self.effective_threads()
        if threads == 1 or state.size < _CHUNK_THRESHOLD:
            return apply_single_qubit(state, matrix, target)
        view = state.reshape(-1, 2, 1 << target)
        n_rows = view.shape[0]
        workers = min(threads, n_rows)
        boundaries = np.linspace(0, n_rows, workers + 1, dtype=int)

        def work(span: tuple[int, int]) -> None:
            lo, hi = span
            if lo == hi:
                return
            block = view[lo:hi]
            s0 = block[:, 0, :].copy()
            s1 = block[:, 1, :]
            block[:, 0, :] = matrix[0, 0] * s0 + matrix[0, 1] * s1
            block[:, 1, :] = matrix[1, 0] * s0 + matrix[1, 1] * s1

        spans = list(zip(boundaries[:-1], boundaries[1:]))
        pool = self._executor(workers)
        list(pool.map(work, spans))
        return state
