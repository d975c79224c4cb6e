"""Inner-simulator parallelism (the paper's third level of parallelism).

Quantum++ parallelises gate application with OpenMP; the number of threads
is controlled with ``OMP_NUM_THREADS``.  This module provides the Python
analogue used by :class:`repro.runtime.qpp_accelerator.QppAccelerator`:

* **Chunked state application** — a state at or above the plan's chunk
  threshold replays in contiguous chunks processed by the engine's worker
  threads.  NumPy releases the GIL inside the vectorised kernels, so chunks
  genuinely overlap for large states; for small states the engine falls
  back to the serial kernel to avoid pool overhead.
* **One draw per job** — a job's shots come from one generator
  (:func:`~repro.simulator.sampling.job_rng`) on the calling thread:
  terminal sampling is one draw over the whole shot budget, and a reset
  job walks one :class:`BranchTree` shot by shot.  The worker count
  therefore never moves fixed-seed counts.  Shot-level parallelism is the
  level above (:mod:`repro.core.shot_parallelism`), not this one.

Trajectory workloads compile the circuit into one
:class:`~repro.simulator.execution_plan.ExecutionPlan` and walk it as a
:class:`BranchTree` that replays each reset-outcome branch once — the plan
is immutable, so every lane shares it without copying.

The engine is purely thread-local: each accelerator clone owns its own
engine, so two kernels running on different user threads never contend on
shared simulator state (the property the paper's QPUManager establishes).
The worker pool is created lazily on first use and *reused* across calls;
``close()`` (or using the engine as a context manager) tears it down.
"""

from __future__ import annotations

import concurrent.futures
from typing import Sequence

import numpy as np

from ..cancellation import active_cancel_token
from ..config import get_config
from ..exceptions import ExecutionError
from ..ir.composite import CompositeInstruction
from ..obs.trace import get_tracer
from .execution_plan import (
    ExecutionPlan,
    compile_plan,
    reset_probability,
)
from .sampling import OneShotSampler, job_rng, keyed_bin_counts, sample_counts
from .statevector import StateVector

__all__ = [
    "BRANCH_MEMO_MAX_BYTES",
    "BranchTree",
    "ParallelSimulationEngine",
    "branch_memo_bytes",
    "sample_trajectories",
]

#: Bytes of branch states and leaf samplers one trajectory job keeps in its
#: :class:`BranchTree`; past it a branch is replayed from its nearest
#: memoised ancestor by every shot that takes it.  Full trees of 512-shot
#: jobs (RY layer + CX ladder between resets) peak at: 16 q x 3 resets
#: 4.5 MiB, 16 q x 4 8 MiB, 18 q x 3 20 MiB, 20 q x 2 40 MiB.  At a 16 MiB
#: bound the 18-q job replayed 76 segments instead of 12 (1.27 s vs 0.22 s)
#: and the 20-q one 1 025 instead of 7 (64.6 s vs 0.63 s) — no better than
#: one full replay per shot; 64 MiB holds all four trees (2-core Intel Xeon
#: @ 2.10 GHz VM, numpy 2.4.6).  :func:`branch_memo_bytes` is what the
#: broker's admission control reserves for it.
BRANCH_MEMO_MAX_BYTES = 64 << 20


def branch_memo_bytes(n_qubits: int, resets: int, itemsize: int = 16) -> int:
    """Most bytes a :class:`BranchTree` of a job with ``resets`` resets can
    hold: every inner state and every leaf sampler (a float64 draw table and
    an int64 bin index per bin) of its full tree, capped at
    :data:`BRANCH_MEMO_MAX_BYTES`; 0 without a reset."""
    if resets <= 0:
        return 0
    amplitudes = 1 << max(0, int(n_qubits))
    leaves = 1 << min(int(resets), 64)
    full = (leaves - 1) * amplitudes * int(itemsize) + leaves * amplitudes * 16
    return min(full, BRANCH_MEMO_MAX_BYTES)


class _Branch:
    """One node of a :class:`BranchTree` at ``depth`` resets: the state just
    before reset ``depth`` and its ``p1`` (an inner node), or the final
    marginal's sampler (a leaf)."""

    __slots__ = ("depth", "state", "p1", "sampler", "children", "memoised", "nbytes")

    def __init__(self, depth: int, state=None, p1: float = 0.0, sampler=None):
        self.depth = depth
        self.state = state
        self.p1 = p1
        self.sampler = sampler
        self.children: list[_Branch | None] = [None, None]
        self.memoised = False
        self.nbytes = sampler.nbytes if sampler is not None else state.nbytes


class BranchTree:
    """The reset-outcome branches of one trajectory job, built lazily.

    Between resets a plan is deterministic, so after ``k`` resets the state
    depends only on the ``k`` outcomes drawn so far.  The tree replays the
    segment before the first reset once; the first shot to take an outcome
    at a reset builds that child (copy the parent's state, collapse it,
    replay the next segment); a leaf keeps its marginal's
    :class:`~repro.simulator.sampling.OneShotSampler`.  A plan without a
    reset is one root leaf.  Nodes are memoised while their bytes fit in
    :data:`BRANCH_MEMO_MAX_BYTES` (an inner node's state is dropped once
    both its children are); a branch past the bound is replayed from its
    nearest memoised ancestor — or from |0...0> — by every shot taking it.

    One thread walks a tree.  ``pool`` chunk-parallelises segment replays.
    ``branches`` counts memoised nodes, ``segment_replays`` every segment
    the tree replayed.  The ambient cancel token is checked once per shot
    and once per node build (segment replays check it per step).
    """

    def __init__(
        self,
        plan: ExecutionPlan,
        measured: Sequence[int],
        n_qubits: int,
        pool: "ParallelSimulationEngine | None" = None,
    ):
        self._plan = plan
        self._segments, self._resets = plan.segments()
        self._measured = tuple(measured)
        self._n_qubits = n_qubits
        self._pool = pool
        self._token = active_cancel_token()
        self._root: _Branch | None = None
        #: Histogram key width (every leaf marginalises onto ``measured``).
        self.width = len(set(self._measured))
        self.memo_bytes = 0
        self.branches = 0
        self.segment_replays = 0

    def sample(self, rng: np.random.Generator) -> int:
        """One shot: a ``random`` per reset against its cached ``p1``, then
        the leaf's one-shot draw; returns the drawn marginal bin."""
        if self._token is not None:
            self._token.check()
        node = self._root or self._child(None, 0)
        for _ in self._resets:
            outcome = int(rng.random() < node.p1)
            node = node.children[outcome] or self._child(node, outcome)
        return node.sampler.draw(rng)

    def _child(self, parent: _Branch | None, outcome: int) -> _Branch:
        """``parent``'s ``outcome`` child (the root for ``None``), built and
        memoised if it fits — else a node for this shot alone."""
        if self._token is not None:
            self._token.check()
        if parent is None:
            node = self._replay(0, self._plan.new_state())
        else:
            # A transient parent is this shot's alone: collapse in place.
            data = parent.state.copy() if parent.memoised else parent.state
            reset = self._resets[parent.depth]
            data = self._plan._collapse(data, reset, outcome, parent.p1)
            node = self._replay(parent.depth + 1, data)
        if parent is not None and not parent.memoised:
            return node
        if self.memo_bytes + node.nbytes > BRANCH_MEMO_MAX_BYTES:
            return node
        node.memoised = True
        self.memo_bytes += node.nbytes
        self.branches += 1
        if parent is None:
            self._root = node
        else:
            parent.children[outcome] = node
            if parent.children[1 - outcome] is not None:
                self.memo_bytes -= parent.nbytes
                parent.state = None
        return node

    def _replay(self, depth: int, data: np.ndarray) -> _Branch:
        """Replay segment ``depth`` over ``data`` into a new node."""
        self.segment_replays += 1
        data = self._segments[depth].execute(data, pool=self._pool)
        if depth == len(self._resets):
            sampler = OneShotSampler(np.abs(data) ** 2, self._measured, self._n_qubits)
            return _Branch(depth, sampler=sampler)
        return _Branch(depth, data, reset_probability(data, self._resets[depth]))


def sample_trajectories(
    tree: BranchTree, shots: int, rng: np.random.Generator
) -> dict[str, int]:
    """``shots`` shots of ``tree``'s job on ``rng``.

    RNG-critical: each shot consumes ``rng`` draw for draw as a full
    per-shot replay would: one ``random()`` per reset,
    compared with that branch's cached ``p1``, then one draw from the leaf's
    marginal — ``multinomial(1, p)`` over the normalised vector
    :func:`~repro.simulator.sampling.sample_counts` builds, or one
    inverse-CDF ``random`` where
    :func:`~repro.simulator.sampling._inverse_cdf_wins` holds for one shot
    (:class:`~repro.simulator.sampling.OneShotSampler`).  Drawn bins count
    in first-drawn order and are keyed once, so the histogram — key order
    included — is the per-shot loop's (:mod:`repro.testing.trajectory_oracle`
    keeps that loop as the reference this is tested against).
    """
    counts: dict[int, int] = {}
    sample = tree.sample
    for _ in range(shots):
        drawn = sample(rng)
        counts[drawn] = counts.get(drawn, 0) + 1
    return keyed_bin_counts(counts, tree.width)


class ParallelSimulationEngine:
    """Worker-pool wrapper for chunk-level simulator parallelism."""

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

        This is the engine's reusable pool (grown to ``workers``); with
        :meth:`effective_threads` it is all :meth:`ExecutionPlan.execute`
        reads of a ``pool=``.
        """
        return self._executor(workers)

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

    # -- sampling -------------------------------------------------------------------
    def sample_parallel(
        self,
        state: StateVector,
        shots: int,
        measured_qubits: Sequence[int] | None = None,
        seed: int | None = None,
    ) -> dict[str, int]:
        """Sample ``shots`` outcomes in one draw on the job's generator.

        :func:`~repro.simulator.sampling.sample_counts` computes the marginal
        once and draws the whole budget by inverse CDF or ``multinomial`` (a
        rule of shots and positive bins) on
        :func:`~repro.simulator.sampling.job_rng`.  The draw runs on the
        calling thread: two pooled 2^17-bin draws measured slower than
        inline on the 2-core benchmark host, so sampling never touches the
        worker pool, and ``num_threads`` never moves the counts.
        """
        qubits = (
            tuple(measured_qubits)
            if measured_qubits is not None
            else tuple(range(state.n_qubits))
        )
        return sample_counts(
            state.probabilities(), shots, qubits, state.n_qubits, job_rng(seed)
        )

    def run_trajectories(
        self,
        n_qubits: int,
        circuit: CompositeInstruction,
        shots: int,
        seed: int | None = None,
        plan: ExecutionPlan | None = None,
    ) -> dict[str, int]:
        """Sample ``shots`` trajectories of a circuit with mid-circuit resets.

        Used when the circuit contains mid-circuit resets (which make a
        single-state + multinomial sampling approach incorrect).  The
        circuit is compiled once into an execution plan (or use a
        pre-compiled ``plan``) and walked as one :class:`BranchTree` on the
        calling thread with the job's one generator, each reset-outcome
        branch replayed once — chunk-parallel on this engine's pool where
        the state reaches the plan's chunk threshold.  The ``replay`` span
        records the tree's ``branches`` and ``segment_replays``.
        """
        if shots <= 0:
            raise ExecutionError(f"shots must be positive, got {shots}")
        measured = circuit.measured_qubits() or tuple(range(n_qubits))
        if plan is None:
            # Direct engine callers get the circuit as-is (no IR passes),
            # matching the historical gate-by-gate behaviour bit for bit;
            # the accelerator passes an optimised plan from the cache.
            plan = compile_plan(circuit, n_qubits, optimize=False)
        tree = BranchTree(plan, measured, n_qubits, pool=self)
        with get_tracer().span(
            "replay", attrs={"mode": "trajectories", "shots": shots}
        ) as span:
            counts = sample_trajectories(tree, shots, job_rng(seed))
            span.set_attribute("branches", tree.branches)
            span.set_attribute("segment_replays", tree.segment_replays)
        return counts
