"""Compiled execution plans: lower a circuit once, replay it many times.

The paper's throughput claims rest on the accelerator re-executing the
*same* circuits at high rates (VQE/QAOA iterations, trajectory shots,
multi-client broker traffic).  The gate-by-gate path pays Python dispatch,
target re-validation and a fresh ``instruction.matrix()`` allocation on
every application; this module amortises all of that the way Quantum++
amortises gate application with fused OpenMP kernels:

* :func:`compile_plan` runs the IR optimisation pipeline once, precomputes
  every gate matrix, classifies each step into a specialised kernel
  (single-qubit in-place, controlled-single, diagonal/phase, permutation
  for X/CX/SWAP-style moves, basis-gather for classical permutations,
  contiguous-window blocks, and a gather-based dense kernel for the gates
  no window can hold) and pre-resolves all reshape geometry.
* **The window pass** (on unless ``fusion_max_qubits=0``): the earliest
  gate not yet placed anchors a window of at most
  :data:`BLOCK_WINDOW_MAX_QUBITS` *adjacent* qubits — of the placements
  that contain it (none at qubit 1), the one absorbing the most gates.
  A gate joins when it is unitary, lies inside the window, and every
  earlier gate on its qubits is placed or has joined; resets, measures and
  gates spanning more qubits never join and block their qubits.  Symbolic
  gates join like concrete ones.  Windows may share qubits, so an RY layer
  plus a CX ladder on 16 qubits is five windows.  A window of two or more
  gates becomes one :data:`KERNEL_BLOCK` step: a window ``[lo, lo+k)`` is
  a plain reshape of the state to ``(-1, 2^k, 2^lo)``, so the kernel is
  one batched GEMM pass ping-ponged into the spare buffer, with no index
  tables.  A window of one gate, or of diagonals only, keeps each gate's
  specialised kernel.  ``fusion_max_qubits=0`` is the gate-for-gate plan
  the bit-exact tests and the calibration micro-benchmarks need.
* :class:`ExecutionPlan.execute` is then a tight loop over ready kernels
  with a reusable per-thread ping-pong scratch buffer instead of per-gate
  allocation.
* :func:`compile_parametric_plan` handles the VQE/QAOA hot loop: the plan
  is compiled once from the *symbolic* ansatz, with the windows and
  batches its binding would get, and only the payloads of steps holding a
  symbolic gate are rebuilt per parameter set — by compile's own builders,
  so a bound plan is the bound circuit's plan bit for bit (per thread, so
  concurrently bound plans never race).
* **Diagonal batching** (``batch_diagonals=True``): adjacent runs of the
  diagonal kernels left outside windows — QFT's long-range CPHASEs, bound
  RZ layers — collapse at compile time into one combined
  :data:`KERNEL_DIAGONAL` step holding the precomputed product diagonal
  over the union of touched qubits, shrinking step counts and full-state
  memory passes.
* **Chunk-parallel replay** (``execute(state, pool=...)``): for states
  of at least ``chunk_threshold`` amplitudes (default
  :data:`DEFAULT_CHUNK_THRESHOLD`, held where layer-fused plans put the
  crossover; see its comment), every kernel splits into
  contiguous/disjoint sub-views dispatched on the thread pool of a
  :class:`~repro.simulator.parallel_engine.ParallelSimulationEngine`
  (NumPy releases the GIL inside the vectorised inner loops, so chunks
  genuinely overlap).  Because every chunk performs exactly the
  per-amplitude arithmetic of the serial kernel, chunked replay is
  **bitwise identical** to serial replay.

Plans are immutable after compilation (parametric binding mutates only
per-thread step copies), so one plan can be shared by every trajectory
worker and every broker dispatcher consulting the plan cache.
"""

from __future__ import annotations

import functools
import math
import threading
import time
from collections import Counter
from typing import Mapping, Sequence

import numpy as np

from ..cancellation import active_cancel_token
from ..exceptions import ExecutionError
from ..obs.profiler import active_profiler
from ..ir.composite import CompositeInstruction
from ..ir.gates import PermutationGate, UnitaryGate
from ..ir.instruction import Instruction
from ..ir.transforms import default_pass_manager

__all__ = [
    "ExecutionPlan",
    "ParametricExecutionPlan",
    "PlanStep",
    "compile_plan",
    "compile_parametric_plan",
    "resolve_fusion",
    "resolve_precision",
    "precision_dtype",
    "DEFAULT_FUSION_MAX_QUBITS",
    "DEFAULT_CHUNK_THRESHOLD",
    "HANDOFF_BAND_START",
    "HANDOFF_BAND_STOP",
    "DEFAULT_DIAGONAL_BATCH_MAX_QUBITS",
    "BLOCK_WINDOW_MAX_QUBITS",
    "DEFAULT_PRECISION",
    "PRECISION_DTYPES",
]


#: Kernel tags (ints for tight dispatch; names for introspection).
KERNEL_SINGLE = 0  #: in-place 2x2 update on one qubit
KERNEL_CONTROLLED = 1  #: in-place 2x2 update on the control=1 subspace
KERNEL_DIAGONAL = 2  #: strided in-place phase multiplies (no index arrays)
KERNEL_PERMUTATION = 3  #: slice exchanges for X/CX/SWAP/CCX/CSWAP
KERNEL_GATHER = 4  #: whole-state index gather for classical permutations
KERNEL_DENSE = 5  #: dense gate no window holds (gather + matmul + scatter)
KERNEL_RESET = 6  #: mid-circuit projective reset (needs an RNG)
KERNEL_BLOCK = 7  #: contiguous-window dense block (one batched GEMM pass)

KERNEL_NAMES = {
    KERNEL_SINGLE: "single",
    KERNEL_CONTROLLED: "controlled",
    KERNEL_DIAGONAL: "diagonal",
    KERNEL_PERMUTATION: "permutation",
    KERNEL_GATHER: "gather",
    KERNEL_DENSE: "dense",
    KERNEL_RESET: "reset",
    KERNEL_BLOCK: "block",
}

#: Kernels that write their result into the spare buffer instead of updating
#: the state in place.  The one definition of "this step swaps the ping-pong
#: buffers": :attr:`PlanStep.swaps` is derived from it, and both the serial
#: loop and the chunk specs read that attribute.
_SWAPPING_KERNELS = frozenset({KERNEL_GATHER, KERNEL_DENSE, KERNEL_BLOCK})

#: Default ``fusion_max_qubits``: 0 is the gate-for-gate plan, any other
#: accepted value (1–3) turns the window pass on and is read as this one
#: (see :func:`resolve_fusion`).
DEFAULT_FUSION_MAX_QUBITS = 2

#: States below this many amplitudes are never chunk-parallelised.  This is
#: a *held* value, not a measured crossover: 2^21 was the smallest size at
#: which the thread lane beat serial replay by >= 1.2x on *both*
#: ``large_state`` circuit shapes when plans fused single-qubit layers only
#: (20 q 1.20 / 1.46, 21 q 1.55 / 1.92).  Windowed plans take fewer,
#: heavier steps, and their crossover moves with host load:
#: ``BENCH_chunked_replay.json`` (2-core Intel Xeon VM, 2 workers;
#: ``bench_chunked_replay.py`` re-takes it on any host) puts it at 2^20
#: (serial / thread-chunked 1.67 / 1.93 at 21 q), and an earlier run on
#: the same host the same day at 2^22 (0.95 / 0.84 at 21 q).
DEFAULT_CHUNK_THRESHOLD = 1 << 21

#: The *hand-off band*, in amplitudes, half-open: the state sizes at which a
#: second thread replaying its own dense kernel costs throughput, because
#: numpy drops the GIL inside calls too short to be worth a cross-core
#: hand-off.  Inside it :class:`~repro.exec.backend.LocalBackend` runs one
#: dense kernel at a time (the process's execution gate).
#: A size is in the band iff two gated threads did >= 1.05x the jobs/s of two
#: ungated ones in the tracked sweep — ``LocalBackend.execute`` of a 2-layer
#: RY/CX ansatz x 256 shots per thread, median of three 2.5 s cells per side
#: after a 3 s spin-up (``BENCH_paper_figures.json``: 2-core Intel Xeon @
#: 2.10 GHz VM, numpy 2.4.6, Python 3.11.7; ``bench_paper_figures.py``
#: re-takes it on any host, forcing each side by patching these constants):
#:
#: ===============  ====  ====  ====  ====  ====  ====  ====  ====  ====  ====  ====
#: qubits              4     6     8     9    10    11    12    13    14    16    20
#: gated / ungated  0.59  0.72  0.73  1.31  1.38  1.81  1.35  1.16  0.71  0.56  0.51
#: ungated / solo   0.74  0.63  0.72  0.47  0.45  0.37  0.46  0.83  1.01  1.68  1.77
#: ===============  ====  ====  ====  ====  ====  ====  ====  ====  ====  ====  ====
#:
#: 13 qubits is the margin: 0.96–1.27 over nine single cells in four sweeps
#: (never a loss beyond noise), 14 qubits 0.71–0.91 in every one.  Below the
#: band nothing is handed off and a gate only adds a lock convoy; above it
#: one numpy call outlasts a hand-off and two threads genuinely overlap —
#: *ungated / solo* crosses 1 at 14 qubits, where the paper's "two kernels in
#: parallel beat one after the other" starts to hold on this host.
#: That table is the sweep that set the band.  The tracked file is a later
#: full re-sweep on the same VM type, in which the gate wins nowhere:
#: gated / ungated 0.77 / 0.83 / 0.83 / 0.70 / 0.60 at 9–13 q.  End to end
#: it still pays: with the gate switched off, ten alternating 15 s pairs per
#: workload (``benchmarks/e2e/run.py --seed 5309``, same VM type) read median
#: ``broker_cold`` ``ops_per_s`` 177 → 170 and ``latency_p95_ms`` 19.1 → 21.3,
#: and ``paper_kernels`` ``cpu_ms_per_op`` 4.27 → 4.81 (worse in 10 of 10
#: pairs), so the band stays.
HANDOFF_BAND_START = 1 << 9
HANDOFF_BAND_STOP = 1 << 14

#: Ceiling on the union of qubits a batched diagonal step may touch (the
#: product diagonal holds ``2**k`` entries and the strided kernel issues up
#: to that many slice multiplies, so the cap bounds both).
DEFAULT_DIAGONAL_BATCH_MAX_QUBITS = 6

#: Widest contiguous window the window pass builds (the block holds one
#: ``2**W x 2**W`` matrix: 4 KiB at W = 4).  Measured per
#: GEMM pass over a 16-qubit state: W = 3 0.25–0.35 ms, W = 4 0.41–0.53 ms,
#: W = 5 0.55–0.80 ms — per fused qubit W = 4 is as fast as W = 5 at a
#: quarter of the bytes per block, and takes fewer steps than W = 3.
BLOCK_WINDOW_MAX_QUBITS = 4

#: Amplitude precision tiers.  ``"double"`` (complex128) is the bit-exact
#: reference every identity guarantee is stated against; ``"single"``
#: (complex64) halves amplitude bytes — and therefore the memory bandwidth
#: that bounds big-state replay — at the cost of ~1e-7 per-operation
#: rounding (≤1e-4 accumulated deviation on the benchmark suite).
#: Precision is a *compile* option: it is baked into the plan's buffers and
#: kernel payloads, participates in every plan-cache key, and — unlike the
#: lane/threading knobs — is **semantic** for job identity (it changes the
#: amplitudes a job produces).
PRECISION_DTYPES = {"double": np.complex128, "single": np.complex64}
DEFAULT_PRECISION = "double"

#: Accepted spellings per tier (the backend option surface is stringly).
_PRECISION_ALIASES = {
    "double": "double",
    "complex128": "double",
    "fp64": "double",
    "single": "single",
    "complex64": "single",
    "fp32": "single",
}


def resolve_precision(precision: object) -> str:
    """Normalise a precision spelling to ``"double"`` / ``"single"``."""
    if precision is None:
        return DEFAULT_PRECISION
    key = str(precision).strip().lower()
    tier = _PRECISION_ALIASES.get(key)
    if tier is None:
        raise ExecutionError(
            f"unknown precision {precision!r}; expected one of "
            f"{sorted(set(_PRECISION_ALIASES))}"
        )
    return tier


def resolve_fusion(fusion_max_qubits: int) -> int:
    """Normalise ``fusion_max_qubits`` to its meaning: ``0`` (gate for gate)
    or :data:`DEFAULT_FUSION_MAX_QUBITS` (the window pass), so 1, 2 and 3
    compile, cache and ship as one plan."""
    if not 0 <= fusion_max_qubits <= 3:
        raise ExecutionError(
            f"fusion_max_qubits must be between 0 and 3, got {fusion_max_qubits}"
        )
    return DEFAULT_FUSION_MAX_QUBITS if fusion_max_qubits else 0


def precision_dtype(precision: object) -> np.dtype:
    """The numpy complex dtype for a precision tier spelling."""
    return np.dtype(PRECISION_DTYPES[resolve_precision(precision)])


#: The spare (ping-pong) amplitude buffer: one per thread, not per plan, or a
#: full plan cache pins a state-sized array per plan outside admission's count.
_SCRATCH = threading.local()

#: Gates realised as pure amplitude moves when no window holds them (inside
#: a window they are exact row gathers of its matrix): the two basis states
#: each one exchanges, as its qubits' bits in order.
_TRANSPOSITIONS = {
    "X": ((0,), (1,)),
    "CX": ((1, 0), (1, 1)),
    "SWAP": ((0, 1), (1, 0)),
    "CCX": ((1, 1, 0), (1, 1, 1)),
    "CSWAP": ((1, 0, 1), (1, 1, 0)),
}

#: Gates realised as strided phase multiplies (a window of these alone stays
#: diagonal steps, which batching merges).
_DIAGONAL_GATES = frozenset({"Z", "S", "SDG", "T", "TDG", "RZ", "CZ", "CPHASE", "CRZ"})

#: Two-qubit gates applied as a controlled 2x2 payload (matches
#: :func:`repro.simulator.gate_application.apply_gate`).
_CONTROLLED_GATES = frozenset({"CY", "CH"})


class PlanStep:
    """One ready-to-run kernel invocation with pre-resolved geometry."""

    __slots__ = (
        "tag",
        "name",
        "targets",
        "m00",
        "m01",
        "m10",
        "m11",
        "block",
        "ctrl_index",
        "sub_target_axis",
        "diag",
        "diag_idx",
        "diag_nd",
        "pairs",
        "gather",
        "matrix",
        "perm",
        "inv_perm",
        "dim_k",
        "parametric",
        "fixed",
        "depends",
        "swaps",
    )

    def __init__(self, tag: int, name: str, targets: tuple[int, ...]):
        self.tag = tag
        self.name = name
        self.targets = targets
        #: The symbolic gates that went into this step, each as
        #: ``(position among the step's gates, gate)``; ``None`` on a
        #: concrete step.  :meth:`rebind` rebuilds the payload from them.
        self.parametric = None
        #: What compile built for the step's other gates: a window's
        #: ``(program, matrices)`` (see :func:`_window_program`), a
        #: ``DIAG_BATCH``'s ``(targets, diagonal)`` per merged gate.  The
        #: symbolic gates' entries are ``None``.
        self.fixed = None
        #: The parameter names the payload depends on: a bind that moves
        #: none of them leaves the step as it is.
        self.depends = None
        #: True when the kernel leaves its result in the spare buffer.
        self.swaps = tag in _SWAPPING_KERNELS

    @property
    def kernel(self) -> str:
        return KERNEL_NAMES[self.tag]

    def clone(self) -> "PlanStep":
        copy = PlanStep(self.tag, self.name, self.targets)
        for slot in PlanStep.__slots__:
            try:
                setattr(copy, slot, getattr(self, slot))
            except AttributeError:
                pass
        return copy

    def rebind(self, values: Mapping[str, float], n_qubits: int, dtype) -> None:
        """Rebuild this step's payload for ``values`` exactly as compiling the
        bound gates would: every symbolic gate's matrix comes from
        :meth:`~repro.ir.instruction.Instruction.bound_matrix`, and the
        compile's own builders assemble the payload from it.

        Only assigns: :meth:`clone` shares every array slot with the template
        and with other threads' clones, so a rebind never writes into one.
        """
        tag = self.tag
        if tag == KERNEL_DIAGONAL:
            if self.fixed is None:
                ((_, inst),) = self.parametric
                self.diag = _gate_diag(inst.bound_matrix(values))
            else:
                members = list(self.fixed)
                for index, inst in self.parametric:
                    members[index] = (inst.qubits, _gate_diag(inst.bound_matrix(values)))
                diag = _diagonal_product(members, self.targets)
                self.diag = tuple(complex(v) for v in diag)
            _finish_diagonal_step(self, n_qubits, dtype)
        else:
            program, fixed = self.fixed
            matrices = list(fixed)
            for index, inst in self.parametric:
                matrices[index] = inst.bound_matrix(values)
            _fill_window(self, _window_matrix(program, matrices), dtype)

    def __repr__(self) -> str:
        return f"PlanStep({self.kernel}, {self.name}, targets={self.targets})"


class ExecutionPlan:
    """A flat, reusable sequence of specialised kernels over ``n_qubits``.

    ``execute`` consumes (and may recycle) the array it is given and
    returns the resulting state — callers must adopt the return value and
    not alias the input afterwards.  The plan keeps one scratch buffer per
    thread, so a single plan instance can be replayed concurrently from
    many trajectory or dispatcher threads.
    """

    is_parametric = False

    def __init__(
        self,
        n_qubits: int,
        steps: Sequence[PlanStep],
        *,
        name: str = "plan",
        measured_qubits: tuple[int, ...] = (),
        depth: int = 0,
        n_gates: int = 0,
        source_gates: int = 0,
        fused_gates: int = 0,
        batched_diagonals: int = 0,
        chunk_threshold: int | None = None,
        requires_binding: bool = False,
        precision: str = DEFAULT_PRECISION,
    ):
        self.n_qubits = int(n_qubits)
        self.name = name
        self.measured_qubits = tuple(measured_qubits)
        self.depth = depth
        #: Unitary gate count of the optimised circuit the plan was lowered from.
        self.n_gates = n_gates
        #: Unitary gate count of the circuit as submitted (pre-optimisation).
        self.source_gates = source_gates
        #: Gates absorbed into windows of two or more gates.
        self.fused_gates = fused_gates
        #: Diagonal steps absorbed into combined product-diagonal steps.
        self.batched_diagonals = batched_diagonals
        #: Minimum state size (amplitudes) before ``execute(pool=...)`` chunks.
        self.chunk_threshold = (
            DEFAULT_CHUNK_THRESHOLD if chunk_threshold is None else int(chunk_threshold)
        )
        #: Amplitude precision tier ("double" = complex128, "single" =
        #: complex64); :attr:`dtype` is the matching numpy dtype.
        self.precision = resolve_precision(precision)
        self.dtype = np.dtype(PRECISION_DTYPES[self.precision])
        self._steps = tuple(steps)
        self._parametric_steps = tuple(s for s in self._steps if s.parametric is not None)
        #: A rebound diagonal step may change kernel geometry (broadcast or
        #: strided, which slots), so binding drops memoised chunk programs.
        self._rebinds_geometry = any(
            s.tag == KERNEL_DIAGONAL for s in self._parametric_steps
        )
        self._shape = (2,) * self.n_qubits
        self._dim = 1 << self.n_qubits
        self._requires_binding = requires_binding
        #: Memoised chunk programs keyed by worker count (built on first
        #: chunked execute; benign if two threads race to build one).
        self._chunk_programs: dict[int, tuple] = {}
        #: For a plan bound from a parametric template, the parameter values
        #: of the current binding (``bind`` reads it to find what moved).
        self.bound_params: dict[str, float] | None = None

    # -- introspection -------------------------------------------------------
    @property
    def n_steps(self) -> int:
        return len(self._steps)

    @property
    def steps(self) -> tuple[PlanStep, ...]:
        return self._steps

    @property
    def has_reset(self) -> bool:
        return any(s.tag == KERNEL_RESET for s in self._steps)

    def kernel_counts(self) -> Counter:
        """Histogram of kernel classes, e.g. ``{"single": 3, "diagonal": 2}``."""
        return Counter(step.kernel for step in self._steps)

    def memory_bytes(self) -> int:
        """Resident bytes of this plan's precomputed kernel data.

        Walks every step's slots and sums the ndarray payloads (dense
        matrices, product diagonals, gather/permutation index tables) —
        the structures that actually scale with circuit width and depth.
        Scalars and per-thread scratch are noise by comparison and are
        ignored; admission control uses this as the plan-cache term of the
        service's memory budget.
        """
        total = 0
        seen: set[int] = set()
        for step in self._steps:
            for slot in PlanStep.__slots__:
                value = getattr(step, slot, None)
                if isinstance(value, np.ndarray) and id(value) not in seen:
                    seen.add(id(value))
                    total += value.nbytes
        return total

    # -- execution -----------------------------------------------------------
    def new_state(self) -> np.ndarray:
        """A fresh |0...0> amplitude array in the plan's width and dtype."""
        data = np.zeros(self._dim, dtype=self.dtype)
        data[0] = 1.0
        return data

    def _scratch(self) -> np.ndarray:
        spare = getattr(_SCRATCH, "spare", None)
        if spare is None or spare.size != self._dim or spare.dtype != self.dtype:
            spare = np.empty(self._dim, dtype=self.dtype)
        return spare

    def execute(
        self,
        data: np.ndarray,
        rng: np.random.Generator | None = None,
        *,
        pool=None,
    ) -> np.ndarray:
        """Run every step over ``data``; returns the resulting state array.

        The returned array may be a recycled scratch buffer rather than
        ``data`` itself — always use the return value.  ``data`` is consumed:
        it may become this thread's spare buffer, which the next same-size
        ``execute`` of *any* plan on the thread overwrites.

        ``pool`` is a
        :class:`~repro.simulator.parallel_engine.ParallelSimulationEngine`
        (anything with ``effective_threads()`` and ``chunk_pool(workers)``).
        When given — and the state holds at least :attr:`chunk_threshold`
        amplitudes — each kernel is split into disjoint sub-views executed
        on the pool's threads.
        Chunks perform exactly the serial kernel's per-amplitude
        arithmetic, so the chunked result is bitwise identical to the
        serial one.  Never pass a pool from *inside* one of its own worker
        threads (the barrier would deadlock a saturated pool).
        """
        if self._requires_binding:
            raise ExecutionError(
                f"plan {self.name!r} has unbound parameters; bind it through "
                "a ParametricExecutionPlan before executing"
            )
        if data.ndim != 1 or data.size != self._dim:
            raise ExecutionError(
                f"state of shape {data.shape} does not match the plan's "
                f"{self.n_qubits} qubit(s)"
            )
        if data.dtype != self.dtype or not data.flags.c_contiguous:
            data = np.ascontiguousarray(data, dtype=self.dtype)
        if pool is not None and self._dim >= self.chunk_threshold:
            workers = int(pool.effective_threads())
            if workers > 1:
                return self._execute_chunked(data, rng, pool, workers)
        cur = data
        spare = self._scratch()
        shape = self._shape
        apply_step = self._apply_step
        profiler = active_profiler()
        token = active_cancel_token()
        if token is not None:
            # Cancellable replay: one flag/clock check per step.  A tripped
            # token raises the typed error between kernels — the state is
            # abandoned, never left half-applied within a kernel.
            check = token.check
            perf_counter = time.perf_counter
            for step in self._steps:
                check()
                if profiler is None:
                    cur, spare = apply_step(step, cur, spare, shape, rng)
                else:
                    t0 = perf_counter()
                    cur, spare = apply_step(step, cur, spare, shape, rng)
                    profiler.record_kernel(step.kernel, perf_counter() - t0)
        elif profiler is None:
            for step in self._steps:
                cur, spare = apply_step(step, cur, spare, shape, rng)
        else:
            perf_counter = time.perf_counter
            for step in self._steps:
                t0 = perf_counter()
                cur, spare = apply_step(step, cur, spare, shape, rng)
                profiler.record_kernel(step.kernel, perf_counter() - t0)
        _SCRATCH.spare = spare
        return cur

    # -- chunk-parallel execution --------------------------------------------
    def chunk_program(self, workers: int) -> tuple:
        """The per-step chunk decomposition for ``workers`` workers.

        Memoised per worker count (benign if two threads race to build
        one); chunk specs hold only geometry and read the step's matrices /
        diagonals at run time, so rebinding a window keeps them valid (a
        rebound diagonal may change geometry: ``bind`` drops the memo).  A
        ``None`` entry means that step runs serially.
        """
        program = self._chunk_programs.get(workers)
        if program is None:
            program = tuple(
                _chunk_step(step, self.n_qubits, self._dim, workers)
                for step in self._steps
            )
            self._chunk_programs[workers] = program
        return program

    def _execute_chunked(
        self, cur: np.ndarray, rng, pool, workers: int
    ) -> np.ndarray:
        """Replay every kernel as disjoint chunks on the pool's threads."""
        program = self.chunk_program(workers)
        executor = pool.chunk_pool(workers)

        def pool_map(fn, tasks):
            # list() both joins the chunks (barrier) and surfaces exceptions.
            list(executor.map(fn, tasks))

        spare = self._scratch()
        shape = self._shape
        profiler = active_profiler()
        token = active_cancel_token()
        if token is not None:
            check = token.check
            perf_counter = time.perf_counter
            for step, chunked in zip(self._steps, program):
                check()
                t0 = perf_counter()
                if chunked is None:
                    cur, spare = self._apply_step(step, cur, spare, shape, rng)
                else:
                    cur, spare = chunked.run(pool_map, cur, spare, shape)
                if profiler is not None:
                    profiler.record_kernel(step.kernel, perf_counter() - t0)
        elif profiler is None:
            for step, chunked in zip(self._steps, program):
                if chunked is None:
                    cur, spare = self._apply_step(step, cur, spare, shape, rng)
                else:
                    cur, spare = chunked.run(pool_map, cur, spare, shape)
        else:
            perf_counter = time.perf_counter
            for step, chunked in zip(self._steps, program):
                t0 = perf_counter()
                if chunked is None:
                    cur, spare = self._apply_step(step, cur, spare, shape, rng)
                else:
                    cur, spare = chunked.run(pool_map, cur, spare, shape)
                profiler.record_kernel(step.kernel, perf_counter() - t0)
        _SCRATCH.spare = spare
        return cur

    def _apply_step(
        self,
        step: PlanStep,
        cur: np.ndarray,
        spare: np.ndarray,
        shape: tuple,
        rng,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Serial application of one step — the single definition of every
        kernel's arithmetic, shared by the serial execute loop and the
        chunked loop's fallback (resets, degenerate split geometries)."""
        tag = step.tag
        if tag == KERNEL_SINGLE:
            view = cur.reshape(-1, 2, step.block)
            s0 = view[:, 0, :].copy()
            s1 = view[:, 1, :]
            view[:, 0, :] = step.m00 * s0 + step.m01 * s1
            view[:, 1, :] = step.m10 * s0 + step.m11 * s1
        elif tag == KERNEL_DIAGONAL:
            psi = cur.reshape(shape)
            if step.diag_nd is not None:
                psi *= step.diag_nd
            else:
                diag = step.diag
                for slot, idx in step.diag_idx:
                    d = diag[slot]
                    if d != 1.0:
                        psi[idx] *= d
        elif tag == KERNEL_PERMUTATION:
            psi = cur.reshape(shape)
            for a, b in step.pairs:
                tmp = psi[a].copy()
                psi[a] = psi[b]
                psi[b] = tmp
        elif tag == KERNEL_CONTROLLED:
            psi = cur.reshape(shape)
            sub = np.moveaxis(psi[step.ctrl_index], step.sub_target_axis, 0)
            s0 = sub[0].copy()
            s1 = sub[1]
            sub[0] = step.m00 * s0 + step.m01 * s1
            sub[1] = step.m10 * s0 + step.m11 * s1
        elif tag == KERNEL_BLOCK:
            _window_matmul(step.matrix, cur, spare, step.block)
        elif tag == KERNEL_DENSE:
            np.take(cur, step.perm, out=spare)
            _window_matmul(step.matrix, spare, cur, self._dim // step.dim_k)
            np.take(cur, step.inv_perm, out=spare)
        elif tag == KERNEL_GATHER:
            np.take(cur, step.gather, out=spare)
        else:  # KERNEL_RESET
            if rng is None:
                raise ExecutionError(
                    "plan contains RESET instructions; execute() needs an rng"
                )
            cur = self._reset(cur, step, rng)
        return (spare, cur) if step.swaps else (cur, spare)

    def _reset(
        self, cur: np.ndarray, step: PlanStep, rng: np.random.Generator
    ) -> np.ndarray:
        # Mirrors StateVector.measure + conditional X, operation for operation,
        # so trajectory streams stay bit-identical to the gate-by-gate path.
        p1 = reset_probability(cur, step)
        return self._collapse(cur, step, int(rng.random() < p1), p1)

    def _collapse(
        self, cur: np.ndarray, step: PlanStep, outcome: int, p1: float
    ) -> np.ndarray:
        """Project reset ``step``'s qubit onto ``outcome`` (drawn against
        ``p1``), renormalise and return it to |0>, in place — the one
        definition shared by :meth:`_reset` and the trajectory branch tree."""
        prob = p1 if outcome == 1 else 1.0 - p1
        if prob <= 0.0:
            raise ExecutionError("measurement outcome has zero probability")
        view = cur.reshape(-1, 2, step.block)
        view[:, 1 - outcome, :] = 0.0
        cur /= np.sqrt(prob)
        if outcome == 1:
            psi = cur.reshape(self._shape)
            for a, b in step.pairs:
                tmp = psi[a].copy()
                psi[a] = psi[b]
                psi[b] = tmp
        return cur

    def segments(self) -> tuple[tuple["ExecutionPlan", ...], tuple[PlanStep, ...]]:
        """``(segments, resets)``: the reset-free runs of steps between this
        plan's resets, each as a plan sharing these step objects, and the
        reset steps that separate them (``len(segments) == len(resets) + 1``).
        A plan without a reset is its own single segment."""
        cuts = [i for i, step in enumerate(self._steps) if step.tag == KERNEL_RESET]
        if not cuts:
            return (self,), ()
        bounds = zip([-1] + cuts, cuts + [len(self._steps)])
        segments = tuple(
            ExecutionPlan(
                self.n_qubits,
                self._steps[lo + 1 : hi],
                name=self.name,
                measured_qubits=self.measured_qubits,
                chunk_threshold=self.chunk_threshold,
                requires_binding=self._requires_binding,
                precision=self.precision,
            )
            for lo, hi in bounds
        )
        return segments, tuple(self._steps[i] for i in cuts)

    def __repr__(self) -> str:
        return (
            f"ExecutionPlan(name={self.name!r}, n_qubits={self.n_qubits}, "
            f"n_steps={self.n_steps})"
        )


def reset_probability(cur: np.ndarray, step: PlanStep) -> float:
    """Probability that reset ``step``'s qubit reads 1 in state ``cur``."""
    view = cur.reshape(-1, 2, step.block)
    return float(np.sum(np.abs(view[:, 1, :]) ** 2))


class ParametricExecutionPlan:
    """A compiled plan for a *symbolic* circuit, re-bound per parameter set.

    Compilation (IR passes, the window pass, kernel classification,
    geometry) happens once; :meth:`bind` only rebuilds the payloads of the
    steps a symbolic gate went into — each window's matrix, each diagonal —
    with the builders compile uses, on a per-thread copy of those steps, so
    concurrent binders on other threads never interfere.
    """

    is_parametric = True

    def __init__(self, template: ExecutionPlan, parameter_names: tuple[str, ...]):
        self._template = template
        self.parameter_names = tuple(parameter_names)
        self._tls = threading.local()

    # Delegated metadata -----------------------------------------------------
    @property
    def n_qubits(self) -> int:
        return self._template.n_qubits

    @property
    def name(self) -> str:
        return self._template.name

    @property
    def n_steps(self) -> int:
        return self._template.n_steps

    @property
    def depth(self) -> int:
        return self._template.depth

    @property
    def n_gates(self) -> int:
        return self._template.n_gates

    @property
    def source_gates(self) -> int:
        return self._template.source_gates

    @property
    def measured_qubits(self) -> tuple[int, ...]:
        return self._template.measured_qubits

    @property
    def has_reset(self) -> bool:
        return self._template.has_reset

    @property
    def batched_diagonals(self) -> int:
        return self._template.batched_diagonals

    @property
    def chunk_threshold(self) -> int:
        return self._template.chunk_threshold

    @property
    def precision(self) -> str:
        return self._template.precision

    @property
    def dtype(self) -> np.dtype:
        return self._template.dtype

    @property
    def template_steps(self) -> tuple[PlanStep, ...]:
        """The unbound step sequence (for introspection/cost modelling)."""
        return self._template.steps

    def kernel_counts(self) -> Counter:
        return self._template.kernel_counts()

    def memory_bytes(self) -> int:
        """Template payload bytes (each thread's bound copy shares them and
        adds the payloads of its rebindable steps)."""
        return self._template.memory_bytes()

    # Binding ----------------------------------------------------------------
    def _thread_plan(self) -> ExecutionPlan:
        plan = getattr(self._tls, "plan", None)
        if plan is None:
            template = self._template
            steps = [
                step.clone() if step.parametric is not None else step
                for step in template.steps
            ]
            plan = ExecutionPlan(
                template.n_qubits,
                steps,
                name=template.name,
                measured_qubits=template.measured_qubits,
                depth=template.depth,
                n_gates=template.n_gates,
                source_gates=template.source_gates,
                fused_gates=template.fused_gates,
                batched_diagonals=template.batched_diagonals,
                chunk_threshold=template.chunk_threshold,
                requires_binding=True,
                precision=template.precision,
            )
            self._tls.plan = plan
        return plan

    def bind(
        self, values: Mapping[str, float] | Sequence[float]
    ) -> ExecutionPlan:
        """Return this thread's concrete plan with rotations re-bound.

        Every call on one thread returns the *same* plan object mutated in
        place — that is the point (no per-iteration compilation or copies).
        Consequently a plan returned by an earlier ``bind`` is invalidated
        by the next ``bind`` on that thread: execute each binding before
        requesting the next, or compile separate parametric plans when two
        bindings must be alive at once.
        """
        mapping = self._normalize(values)
        plan = self._thread_plan()
        # Only the steps whose parameters moved since the last binding are
        # rebuilt (a parameter-shift batch moves one or two per binding).
        previous = plan.bound_params
        moved = None if previous is None else {
            name for name, value in mapping.items()
            if not _same_value(value, previous.get(name))
        }
        # Unbound until every step has rebound: a rebind that raises leaves
        # a plan that refuses to execute, not a half-bound one.
        plan._requires_binding = True
        plan.bound_params = None
        for step in plan._parametric_steps:
            if moved is None or not moved.isdisjoint(step.depends):
                step.rebind(mapping, plan.n_qubits, plan.dtype)
        if plan._rebinds_geometry:
            plan._chunk_programs.clear()
        plan._requires_binding = False
        plan.bound_params = mapping
        return plan

    def _normalize(
        self, values: Mapping[str, float] | Sequence[float]
    ) -> dict[str, float]:
        if values is None:
            raise ExecutionError(
                f"plan {self.name!r} has unbound parameters "
                f"{list(self.parameter_names)}; provide values"
            )
        if isinstance(values, Mapping):
            mapping = {str(k): float(v) for k, v in values.items()}
            missing = [name for name in self.parameter_names if name not in mapping]
            if missing:
                raise ExecutionError(
                    f"plan {self.name!r} needs a value for every parameter; "
                    f"missing {missing}"
                )
            return mapping
        values_seq = [float(v) for v in values]
        if len(values_seq) != len(self.parameter_names):
            raise ExecutionError(
                f"expected {len(self.parameter_names)} parameter value(s) for "
                f"{list(self.parameter_names)}, got {len(values_seq)}"
            )
        return dict(zip(self.parameter_names, values_seq))

    def __repr__(self) -> str:
        return (
            f"ParametricExecutionPlan(name={self.name!r}, "
            f"parameters={list(self.parameter_names)}, n_steps={self.n_steps})"
        )


def _same_value(value: float, previous: float | None) -> bool:
    """Whether a rebind to ``value`` rebuilds what ``previous`` built: equal
    and of the same sign (``-0.0`` is not ``0.0`` to a trig function)."""
    return value == previous and math.copysign(1.0, value) == math.copysign(1.0, previous)


# ---------------------------------------------------------------------------
# The one GEMM every dense product goes through
# ---------------------------------------------------------------------------

#: Ceiling on M·N·K of any single GEMM the replay kernels issue (see
#: :func:`_window_matmul`).
_MATMUL_BATCH_CAP = 1 << 15


def _window_shape(k_dim: int, inner: int, size: int) -> tuple[tuple[int, ...], bool]:
    """Shape of the state operand of :func:`_window_matmul`'s batched
    product, and whether the state is the left operand.  Every axis but the
    last two is a batch axis; a four-axis shape is the reshape
    ``(outer, k_dim, tiles, span)`` transposed to ``(outer, tiles, k_dim,
    span)``."""
    span = _MATMUL_BATCH_CAP // (k_dim * k_dim)
    if inner == 1:
        rows = max(1, min(span, size // k_dim))
        return (size // (rows * k_dim), rows, k_dim), True
    if inner <= span or span == 0:
        return (size // (k_dim * inner), k_dim, inner), False
    return (size // (k_dim * inner), inner // span, k_dim, span), False


def _window_matmul(
    matrix: np.ndarray, src: np.ndarray, dst: np.ndarray, inner: int, part: tuple = ()
) -> None:
    """``dst[a, :, b] = matrix @ src[a, :, b]`` over the ``(-1, K, inner)`` view.

    ``src`` / ``dst`` are distinct flat state-sized buffers and ``matrix`` is
    ``K x K``: with ``inner = 2^lo`` this applies a dense block to the qubit
    window ``[lo, lo + log2 K)`` (``inner == 1`` right-multiplies by
    ``matrix.T`` instead — the same product without ``2^n / K``
    matrix-vector calls); with ``inner = 2^n / K`` it is the product inside
    the gather-based dense kernel.  ``part`` indexes the batch axes of
    :func:`_window_shape`: a chunk computes only those batches.

    **Every product stays single-threaded by shape.**  The rule: the call is
    a *batched* ``np.matmul`` whose per-batch ``M·N·K`` never exceeds
    :data:`_MATMUL_BATCH_CAP` (the batch axis is reshaped; columns are
    sliced — as a strided view, never a copy — only when ``2^lo`` alone is
    over the cap).  The measurement (2-core Xeon VM, numpy 2.4.6, bundled
    OpenBLAS 0.3.31, default 2 BLAS threads, 16-qubit complex128 state, the
    BLAS pool idle between calls as it always is inside a replay): a
    ``zgemm`` that reaches ``M·N·K`` ≈ 65 536 wakes OpenBLAS's worker pool
    and stalls on it — ``(4x4) @ (4x16384)``, the product of a two-qubit
    dense step, takes 8.9 ms as one call and 0.23–0.39 ms shaped;
    ``(4x4) @ (4x4096)`` x 4 takes 29–38 ms vs 0.24–0.35; ``(8x8) @
    (8x1024)`` x 8 takes 62–68 ms vs 0.32–0.41.  The library sets no BLAS
    environment variable and makes no ``ctypes`` call; it only never hands
    the BLAS a product it would thread.  (A matrix too large for any column
    count to fit the cap — a ≥ 8-qubit unitary — goes through whole: there
    the threads earn their wake-up.)

    The per-batch shapes depend only on ``(K, inner, state size)``, so every
    lane — and every chunk of one — issues the identical BLAS calls and
    stays bitwise identical.
    """
    shape, state_left = _window_shape(matrix.shape[0], inner, src.size)
    if len(shape) == 4:
        outer, tiles, k_dim, span = shape
        src = src.reshape(outer, k_dim, tiles, span).transpose(0, 2, 1, 3)
        dst = dst.reshape(outer, k_dim, tiles, span).transpose(0, 2, 1, 3)
    else:
        src, dst = src.reshape(shape), dst.reshape(shape)
    if state_left:
        np.matmul(src[part], matrix.T, out=dst[part])
    else:
        np.matmul(matrix, src[part], out=dst[part])


# ---------------------------------------------------------------------------
# Chunk-parallel kernel splitting
#
# Every spec below partitions a kernel's amplitude sweep into disjoint
# sub-views and runs the *identical* per-amplitude arithmetic on each, so
# chunked replay is bitwise identical to serial replay.  Specs store only
# geometry (ranges, index tuples) and read the step's matrices/diagonals at
# run time — parametric rebinding therefore composes with chunking.
# ---------------------------------------------------------------------------


def _split_ranges(total: int, parts: int) -> tuple[tuple[int, int], ...]:
    """Near-equal contiguous ``[lo, hi)`` ranges covering ``[0, total)``."""
    bounds = np.linspace(0, total, parts + 1).astype(int)
    return tuple(
        (int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:]) if lo < hi
    )


def _split_assignments(
    n_qubits: int, busy: tuple[int, ...], workers: int, reserve: int = 0
) -> list[dict[int, int]] | None:
    """Bit assignments over the highest qubits *not* in ``busy``.

    Fixing ``h`` free qubits partitions the state into ``2**h`` disjoint
    sub-views a kernel acting only on ``busy`` qubits never couples; the
    assignments are the chunk tasks.  ``reserve`` keeps that many free
    qubits *unfixed* — kernels whose arithmetic must stay on NumPy's array
    ufunc loops reserve one so no task ever degenerates to scalar element
    ops (the scalar complex-multiply path rounds differently, which would
    break the chunked == serial bitwise guarantee).  Returns ``None`` when
    no split is possible (the caller falls back to serial for that step).
    """
    busy_set = set(busy)
    free = [q for q in range(n_qubits - 1, -1, -1) if q not in busy_set]
    h = 0
    while (1 << h) < workers and h < len(free) - reserve:
        h += 1
    if h == 0:
        return None
    split_qubits = free[:h]
    return [
        {q: (bits >> i) & 1 for i, q in enumerate(split_qubits)}
        for bits in range(1 << h)
    ]


def _merge_index(
    base: tuple, assignment: Mapping[int, int], n_qubits: int
) -> tuple:
    """``base`` axis-index tuple with ``assignment``'s qubit bits fixed too."""
    merged = list(base)
    for qubit, bit in assignment.items():
        merged[n_qubits - 1 - qubit] = bit
    return tuple(merged)


class _ChunkSpec:
    """Base chunk spec: a task list plus one per-task kernel application.

    ``run`` maps ``apply`` over the task list on the pool and joins it.
    Whether the step's output landed in the scratch buffer is the step's
    own :attr:`PlanStep.swaps`.
    """

    __slots__ = ("step", "tasks")

    def apply(self, task, cur, spare, shape) -> None:
        raise NotImplementedError

    def run(self, pool_map, cur, spare, shape):
        apply = self.apply
        pool_map(lambda task: apply(task, cur, spare, shape), self.tasks)
        return (spare, cur) if self.step.swaps else (cur, spare)


class _ChunkSingle(_ChunkSpec):
    """Row- (or, for top-qubit targets, column-) sliced single-qubit update."""

    __slots__ = ("by_rows",)

    def __init__(self, step: PlanStep, dim: int, workers: int):
        self.step = step
        rows = dim >> (step.targets[0] + 1)
        self.by_rows = rows >= workers
        self.tasks = _split_ranges(rows if self.by_rows else step.block, workers)

    def apply(self, task, cur, spare, shape):
        step = self.step
        view = cur.reshape(-1, 2, step.block)
        lo, hi = task
        block = view[lo:hi] if self.by_rows else view[:, :, lo:hi]
        s0 = block[:, 0, :].copy()
        s1 = block[:, 1, :]
        block[:, 0, :] = step.m00 * s0 + step.m01 * s1
        block[:, 1, :] = step.m10 * s0 + step.m11 * s1


class _ChunkControlled(_ChunkSpec):
    """Controlled 2x2 update split over assignments of free high qubits."""

    __slots__ = ()

    def __init__(self, step: PlanStep, n_qubits: int, assignments):
        control, target = step.targets
        target_axis = n_qubits - 1 - target
        self.step = step
        tasks = []
        for assignment in assignments:
            idx = _merge_index(step.ctrl_index, assignment, n_qubits)
            fixed_axes = [i for i, v in enumerate(idx) if not isinstance(v, slice)]
            pos = target_axis - sum(1 for a in fixed_axes if a < target_axis)
            tasks.append((idx, pos))
        self.tasks = tasks

    def apply(self, task, cur, spare, shape):
        step = self.step
        psi = cur.reshape(shape)
        idx, pos = task
        sub = np.moveaxis(psi[idx], pos, 0)
        s0 = sub[0].copy()
        s1 = sub[1]
        sub[0] = step.m00 * s0 + step.m01 * s1
        sub[1] = step.m10 * s0 + step.m11 * s1


class _ChunkDiagonalBroadcast(_ChunkSpec):
    """Broadcast-diagonal multiply over contiguous flat slabs.

    Splitting fixes the *leading* tensor axes, so each task is one
    contiguous flat range; the matching ``diag_nd`` sub-view (axes of size
    1 are indexed at 0) broadcasts against the slab exactly as the full
    array does against the full state.
    """

    __slots__ = ("slab_shape",)

    def __init__(self, step: PlanStep, n_qubits: int, dim: int, workers: int):
        h = 0
        while (1 << h) < workers and h < n_qubits - 1:
            h += 1
        self.step = step
        self.slab_shape = (2,) * (n_qubits - h)
        slab = dim >> h
        nd_shape = step.diag_nd.shape
        tasks = []
        for j in range(1 << h):
            prefix = tuple(
                ((j >> (h - 1 - a)) & 1) if nd_shape[a] == 2 else 0
                for a in range(h)
            )
            tasks.append((j * slab, (j + 1) * slab, prefix))
        self.tasks = tasks

    def apply(self, task, cur, spare, shape):
        lo, hi, prefix = task
        view = cur[lo:hi].reshape(self.slab_shape)
        view *= self.step.diag_nd[prefix]


class _ChunkDiagonalStrided(_ChunkSpec):
    """Strided diagonal multiplies split over free-high-qubit assignments."""

    __slots__ = ()

    def __init__(self, step: PlanStep, n_qubits: int, assignments):
        self.step = step
        self.tasks = [
            tuple(
                (slot, _merge_index(idx, assignment, n_qubits))
                for slot, idx in step.diag_idx
            )
            for assignment in assignments
        ]

    def apply(self, task, cur, spare, shape):
        diag = self.step.diag
        psi = cur.reshape(shape)
        for slot, idx in task:
            d = diag[slot]
            if d != 1.0:
                psi[idx] *= d


class _ChunkPermutation(_ChunkSpec):
    """Slice exchanges split over free-high-qubit assignments."""

    __slots__ = ()

    def __init__(self, step: PlanStep, n_qubits: int, assignments):
        self.step = step
        self.tasks = [
            tuple(
                (
                    _merge_index(a, assignment, n_qubits),
                    _merge_index(b, assignment, n_qubits),
                )
                for a, b in step.pairs
            )
            for assignment in assignments
        ]

    def apply(self, task, cur, spare, shape):
        psi = cur.reshape(shape)
        for a, b in task:
            tmp = psi[a].copy()
            psi[a] = psi[b]
            psi[b] = tmp


class _ChunkGather(_ChunkSpec):
    """Whole-state index gather split into contiguous output ranges."""

    __slots__ = ()

    def __init__(self, step: PlanStep, dim: int, workers: int):
        self.step = step
        self.tasks = _split_ranges(dim, workers)

    def apply(self, task, cur, spare, shape):
        lo, hi = task
        np.take(cur, self.step.gather[lo:hi], out=spare[lo:hi])


class _ChunkDense(_ChunkSpec):
    """Fused dense block: parallel gather and scatter around the matmul.

    The two indexed-copy passes (the memory-bound majority of the kernel)
    split into contiguous output ranges; the small ``(2^k, 2^k) @ (2^k, M)``
    product itself runs as the *exact* serial call — BLAS picks different
    (differently-rounded) microkernels per operand shape, so slicing its
    columns differently per lane would forfeit the bitwise-identity
    guarantee.
    """

    __slots__ = ()

    def __init__(self, step: PlanStep, dim: int, workers: int):
        self.step = step
        self.tasks = _split_ranges(dim, workers)

    def run(self, pool_map, cur, spare, shape):
        step = self.step

        def gather(span):
            np.take(cur, step.perm[span[0]:span[1]], out=spare[span[0]:span[1]])

        def scatter(span):
            np.take(cur, step.inv_perm[span[0]:span[1]], out=spare[span[0]:span[1]])

        pool_map(gather, self.tasks)
        _window_matmul(step.matrix, spare, cur, cur.size // step.dim_k)
        pool_map(scatter, self.tasks)
        return (spare, cur) if step.swaps else (cur, spare)


class _ChunkBlock(_ChunkSpec):
    """Window block: the batched GEMM pass split over its batch axes.

    Each task computes a contiguous range of :func:`_window_matmul`'s
    batches — the outer axis, or for a top window (one outer batch) the
    column-tile axis — so every task issues the serial pass's per-batch
    GEMM shapes and the lanes stay bitwise identical.
    """

    __slots__ = ()

    def __init__(self, step: PlanStep, dim: int, workers: int):
        self.step = step
        shape, _ = _window_shape(step.matrix.shape[0], step.block, dim)
        axis = 0 if shape[0] >= workers or len(shape) == 3 else 1
        self.tasks = [
            (slice(None),) * axis + (slice(lo, hi),)
            for lo, hi in _split_ranges(shape[axis], workers)
        ]

    def apply(self, task, cur, spare, shape):
        _window_matmul(self.step.matrix, cur, spare, self.step.block, task)


def _chunk_step(step: PlanStep, n_qubits: int, dim: int, workers: int):
    """Build the chunk spec for one step (``None`` = run it serially)."""
    tag = step.tag
    if tag == KERNEL_SINGLE:
        spec = _ChunkSingle(step, dim, workers)
        return spec if spec.tasks else None
    if tag == KERNEL_DIAGONAL:
        if step.diag_nd is not None:
            return _ChunkDiagonalBroadcast(step, n_qubits, dim, workers)
        # reserve=1: the strided multiplies must keep at least one sliced
        # axis per task, staying on the array ufunc loops (see
        # _split_assignments).
        assignments = _split_assignments(n_qubits, step.targets, workers, reserve=1)
        return (
            _ChunkDiagonalStrided(step, n_qubits, assignments)
            if assignments
            else None
        )
    if tag == KERNEL_CONTROLLED:
        assignments = _split_assignments(n_qubits, step.targets, workers)
        return (
            _ChunkControlled(step, n_qubits, assignments) if assignments else None
        )
    if tag == KERNEL_PERMUTATION:
        assignments = _split_assignments(n_qubits, step.targets, workers)
        return (
            _ChunkPermutation(step, n_qubits, assignments) if assignments else None
        )
    if tag == KERNEL_GATHER:
        return _ChunkGather(step, dim, workers)
    if tag == KERNEL_DENSE:
        return _ChunkDense(step, dim, workers)
    if tag == KERNEL_BLOCK:
        spec = _ChunkBlock(step, dim, workers)
        return spec if len(spec.tasks) > 1 else None
    # KERNEL_RESET: global reduction + RNG draw stays serial.
    return None


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------


def compile_plan(
    circuit: CompositeInstruction,
    n_qubits: int | None = None,
    *,
    optimize: bool = True,
    fusion_max_qubits: int = DEFAULT_FUSION_MAX_QUBITS,
    batch_diagonals: bool = True,
    chunk_threshold: int | None = None,
    precision: str = DEFAULT_PRECISION,
) -> ExecutionPlan:
    """Lower a bound circuit into an :class:`ExecutionPlan`.

    ``n_qubits`` widens the plan beyond the circuit's own width (the state
    register may be larger than the circuit).  ``optimize`` runs the default
    IR pass pipeline first.  ``fusion_max_qubits=0`` is the gate-for-gate
    plan, bit-identical to the gate-by-gate path on exact kernels; any other
    accepted value (1–3, all one setting: see :func:`resolve_fusion`) runs
    the window pass, whose plans agree with it to
    ≤ 1e-12 on amplitudes (≤ 1e-4 in single precision) and, in double
    precision, have the same support above
    :data:`~repro.simulator.sampling.SUPPORT_FLOOR` (a single-precision
    GEMM residue, ~1e-16 in probability, is far above the floor).
    ``batch_diagonals`` collapses
    adjacent runs of diagonal steps into combined product-diagonal steps
    (distribution-equivalent; reassociating the products can shift
    amplitudes by ulps, so pass ``False`` when bit-exact equality with the
    gate-by-gate path is required).  ``chunk_threshold`` sets the minimum
    state size for chunk-parallel replay (``None`` uses
    :data:`DEFAULT_CHUNK_THRESHOLD`; it never changes results, only how
    ``execute(pool=...)`` schedules them).  ``precision`` selects the
    amplitude dtype (``"double"``/``"single"``); unlike the other knobs it
    *changes results* (within the documented fidelity bound) and is part
    of the plan's identity.
    """
    if circuit.is_parameterized:
        raise ExecutionError(
            f"circuit {circuit.name!r} has unbound parameters; use "
            "compile_parametric_plan() for symbolic circuits"
        )
    return _compile(
        circuit,
        n_qubits,
        optimize=optimize,
        fusion_max_qubits=fusion_max_qubits,
        batch_diagonals=batch_diagonals,
        chunk_threshold=chunk_threshold,
        precision=precision,
    )


def compile_parametric_plan(
    circuit: CompositeInstruction,
    n_qubits: int | None = None,
    *,
    optimize: bool = True,
    fusion_max_qubits: int = DEFAULT_FUSION_MAX_QUBITS,
    batch_diagonals: bool = True,
    chunk_threshold: int | None = None,
    precision: str = DEFAULT_PRECISION,
) -> ParametricExecutionPlan:
    """Compile a symbolic circuit once; :meth:`ParametricExecutionPlan.bind`
    rebinds it per parameter set.

    Symbolic gates go through the same window pass and diagonal batching as
    concrete ones, so the template has the steps the bound circuit's plan
    would have; compile builds no matrix for a step a symbolic gate went
    into.  ``bind`` rebuilds those payloads with the builders
    :func:`compile_plan` uses — each window's matrix from its gates'
    matrices, each product diagonal from its gates' diagonals — so a bound
    plan replays bit for bit what ``compile_plan(circuit.bind(values))``
    does wherever the IR passes leave both circuits the same gate sequence.
    (They may not: a pass can drop or merge a bound gate, e.g. ``RZ(0)``,
    that it must keep symbolic.)
    """
    if not circuit.is_parameterized:
        raise ExecutionError(
            f"circuit {circuit.name!r} has no unbound parameters; use compile_plan()"
        )
    names = tuple(sorted(p.name for p in circuit.free_parameters))
    template = _compile(
        circuit,
        n_qubits,
        optimize=optimize,
        fusion_max_qubits=fusion_max_qubits,
        batch_diagonals=batch_diagonals,
        chunk_threshold=chunk_threshold,
        precision=precision,
        requires_binding=True,
    )
    return ParametricExecutionPlan(template, names)


def _compile(
    circuit: CompositeInstruction,
    n_qubits: int | None,
    *,
    optimize: bool,
    fusion_max_qubits: int,
    batch_diagonals: bool = True,
    chunk_threshold: int | None = None,
    precision: str = DEFAULT_PRECISION,
    requires_binding: bool = False,
) -> ExecutionPlan:
    precision = resolve_precision(precision)
    width = max(circuit.n_qubits, 1 if n_qubits is None else int(n_qubits), 1)
    if circuit.n_qubits > width:
        raise ExecutionError(
            f"circuit uses {circuit.n_qubits} qubit(s) but the plan is "
            f"compiled for {width}"
        )
    fusion_max_qubits = resolve_fusion(fusion_max_qubits)
    source_gates = circuit.n_gates
    measured = circuit.measured_qubits()
    optimized = default_pass_manager().run(circuit) if optimize else circuit

    if fusion_max_qubits:
        groups = _window_pass(optimized, width)
    else:
        groups = [[inst] for inst in optimized]
    perm_cache: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]] = {}
    steps: list[PlanStep] = []
    fused_gates = 0
    for group in groups:
        if len(group) > 1 and any(inst.name not in _DIAGONAL_GATES for inst in group):
            steps.append(_window_step(group))
            fused_gates += len(group)
            continue
        for inst in group:
            step = _classify(inst, width, perm_cache)
            if step is not None:
                steps.append(step)

    batched_diagonals = 0
    if batch_diagonals:
        steps, batched_diagonals = _batch_diagonal_steps(steps, width)
    # Only now, on the diagonal steps that survived batching, build the
    # broadcast tensor / index tuples their kernel reads.  In single
    # precision the ndarray payloads are downcast so the hot sweeps move
    # half the bytes; scalar payloads stay Python complex (NumPy's weak
    # scalar promotion keeps complex64 arrays complex64 under them).  A
    # rebindable step gets both at bind.
    dtype = PRECISION_DTYPES[precision]
    for step in steps:
        if step.parametric is not None:
            step.depends = tuple(
                sorted({p.name for _, inst in step.parametric for p in inst.free_parameters})
            )
            continue
        if step.tag == KERNEL_DIAGONAL:
            _finish_diagonal_step(step, width, dtype)
        elif precision == "single" and isinstance(getattr(step, "matrix", None), np.ndarray):
            step.matrix = np.ascontiguousarray(step.matrix, dtype=dtype)

    plan = ExecutionPlan(
        width,
        steps,
        name=circuit.name,
        measured_qubits=measured,
        depth=optimized.depth(),
        n_gates=optimized.n_gates,
        source_gates=source_gates,
        fused_gates=fused_gates,
        batched_diagonals=batched_diagonals,
        chunk_threshold=chunk_threshold,
        requires_binding=requires_binding,
        precision=precision,
    )
    return plan


# -- diagonal batching -------------------------------------------------------


def _batch_diagonal_steps(
    steps: Sequence[PlanStep],
    n_qubits: int,
    max_qubits: int = DEFAULT_DIAGONAL_BATCH_MAX_QUBITS,
) -> tuple[list[PlanStep], int]:
    """Collapse adjacent runs of diagonal steps into one step each.

    Diagonal operators commute, so a contiguous run multiplies into a
    single product diagonal over the union of touched qubits (capped at
    ``max_qubits`` so neither the diagonal table nor the strided kernel
    blows up).  Runs depend on targets only, so a symbolic circuit batches
    as its binding does; a run holding a symbolic step rebuilds its product
    at bind.  Returns the new step list and the number of source steps
    absorbed into batches.
    """
    out: list[PlanStep] = []
    run: list[PlanStep] = []
    union: list[int] = []
    absorbed = 0

    def flush() -> None:
        nonlocal absorbed
        if len(run) >= 2:
            out.append(_merge_diagonal_run(run, tuple(union), n_qubits))
            absorbed += len(run)
        else:
            out.extend(run)
        run.clear()
        union.clear()

    for step in steps:
        if step.tag == KERNEL_DIAGONAL:
            fresh = [q for q in step.targets if q not in union]
            if run and len(union) + len(fresh) > max_qubits:
                flush()
                fresh = list(step.targets)
            run.append(step)
            union.extend(fresh)
        else:
            flush()
            out.append(step)
    flush()
    return out, absorbed


def _merge_diagonal_run(
    run: Sequence[PlanStep], union: tuple[int, ...], n_qubits: int
) -> PlanStep:
    """One product-diagonal step equivalent to applying ``run`` in order."""
    if any(step.parametric is not None for step in run):
        step = PlanStep(KERNEL_DIAGONAL, "DIAG_BATCH", union)
        step.parametric = tuple(
            (index, member.parametric[0][1])
            for index, member in enumerate(run)
            if member.parametric is not None
        )
        step.fixed = tuple(
            (member.targets, member.diag if member.parametric is None else None)
            for member in run
        )
        return step
    diag = _diagonal_product([(step.targets, step.diag) for step in run], union)
    return _diagonal_step("DIAG_BATCH", union, diag, n_qubits)


def _diagonal_product(
    members: Sequence[tuple[tuple[int, ...], Sequence[complex]]], union: tuple[int, ...]
) -> np.ndarray:
    """The product over ``union`` of each ``(targets, diagonal)``, in order."""
    k = len(union)
    diag = np.ones(1 << k, dtype=complex)
    for targets, values in members:
        positions = tuple(union.index(q) for q in targets)
        diag *= np.asarray(values, dtype=complex)[_local_index(k, positions)]
    return diag


# -- the window pass ---------------------------------------------------------

#: Instructions no plan step realises and nothing needs ordering against.
_NO_OPS = frozenset({"BARRIER", "I"})


def _joinable(inst: Instruction, span: int) -> bool:
    """Whether ``inst`` may join a window of ``span`` adjacent qubits
    (symbolic or not: a window holding a symbolic gate is rebuilt at bind)."""
    qubits = inst.qubits
    return (
        bool(qubits)
        and max(qubits) - min(qubits) < span
        and inst.is_unitary
        and not inst.is_composite
    )


def _window_pass(
    sequence: Sequence[Instruction], n_qubits: int
) -> list[list[Instruction]]:
    """Cut ``sequence`` into windows of at most :data:`BLOCK_WINDOW_MAX_QUBITS`
    adjacent qubits; each window lists its gates in program order.

    The earliest gate not yet placed anchors the next window; of the
    placements of the window that contain it, bar the one at qubit 1, the
    one absorbing the most gates wins (the lowest on a tie).  An anchor
    with no placement left, or one that cannot join (:func:`_joinable`), is
    a window of its own.  The placed gates are always a prefix of each
    qubit's gate list, so a window's search starts at its anchor.
    Deterministic in ``(sequence, n_qubits)``: a symbolic circuit and its
    binding get the same windows.
    """
    span = min(BLOCK_WINDOW_MAX_QUBITS, n_qubits)
    gates = [inst for inst in sequence if inst.name not in _NO_OPS]
    # Per gate, the qubit mask a window must cover; a gate that cannot join
    # also carries bit n_qubits, which no window covers.
    masks = []
    last = [-1] * n_qubits
    for index, inst in enumerate(gates):
        mask = 0 if _joinable(inst, span) else 1 << n_qubits
        for q in inst.qubits:
            last[q] = index
            mask |= 1 << q
        masks.append(mask)
    placed = [False] * len(gates)
    groups: list[list[Instruction]] = []
    anchor = 0
    while True:
        while anchor < len(gates) and placed[anchor]:
            anchor += 1
        if anchor == len(gates):
            return groups
        qubits = gates[anchor].qubits
        members = [anchor]
        if masks[anchor] >> n_qubits == 0:
            first = max(0, max(qubits) - span + 1)
            for lo in range(first, min(min(qubits), n_qubits - span) + 1):
                # Never at qubit 1: its block cannot widen down to qubit 0
                # and its GEMM pass costs ~5x one at qubit 0.
                if lo != 1:
                    stop = max(last[lo : lo + span]) + 1
                    found = _absorb(lo, span, anchor, stop, masks, placed)
                    if len(found) > len(members):
                        members = found
        for index in members:
            placed[index] = True
        # Program order is one the window's product may take, and it keeps
        # a layer's one-qubit gates together: one Kronecker flush per layer.
        groups.append([gates[index] for index in members])


def _absorb(lo: int, span: int, anchor: int, stop: int, masks, placed) -> list[int]:
    """The gates the window ``[lo, lo + span)`` absorbs, in program order: a
    gate joins when it lies inside the window and no earlier unplaced gate
    on its qubits failed to; one that cannot join blocks its qubits."""
    window = ((1 << span) - 1) << lo
    blocked = 0
    members: list[int] = []
    for index in range(anchor, stop):
        mask = masks[index]
        if placed[index] or not mask & window:
            continue
        if mask & (blocked | ~window):
            blocked |= mask & window
            if blocked == window:
                break
        else:
            members.append(index)
    return members


@functools.lru_cache(maxsize=None)
def _identity(dim: int) -> np.ndarray:
    """A shared read-only ``dim x dim`` identity (every use makes a new array)."""
    eye = np.eye(dim, dtype=complex)
    eye.flags.writeable = False
    return eye


def _window_step(group: Sequence[Instruction]) -> PlanStep:
    """One ``FUSED`` step applying ``group`` in order: a single step when the
    group touches one qubit, else a block over the span it touches.  A group
    holding a symbolic gate gets its geometry and program now and its matrix
    at bind."""
    lo = min(q for inst in group for q in inst.qubits)
    k = max(q for inst in group for q in inst.qubits) - lo + 1
    if k == 1:
        step = PlanStep(KERNEL_SINGLE, "FUSED", (lo,))
        step.block = 1 << lo
    else:
        # A window that fits is widened down to qubit 0 (see _fill_window).
        step = PlanStep(KERNEL_BLOCK, "FUSED", tuple(range(lo, lo + k)))
        step.block = 1 if 0 < lo and lo + k <= BLOCK_WINDOW_MAX_QUBITS else 1 << lo
    program = _window_program(group, lo, k)
    symbolic = tuple((i, inst) for i, inst in enumerate(group) if inst.is_parameterized)
    matrices = [
        None if inst.is_parameterized or _moves_rows(inst) else inst.matrix()
        for inst in group
    ]
    if symbolic:
        step.parametric = symbolic
        step.fixed = (program, tuple(matrices))
    else:
        _fill_window(step, _window_matrix(program, matrices), complex)
    return step


def _moves_rows(inst: Instruction) -> bool:
    """Whether a window applies ``inst`` as a row gather, needing no matrix."""
    return len(inst.qubits) > 1 and (
        inst.name in _TRANSPOSITIONS or isinstance(inst, PermutationGate)
    )


#: Window program ops (see :func:`_window_program`).
_OP_PEND, _OP_KRON, _OP_ONE, _OP_ROWS, _OP_DIAG, _OP_DENSE = range(6)


def _window_program(group: Sequence[Instruction], lo: int, k: int) -> tuple:
    """How to build ``group``'s matrix over window ``[lo, lo + k)`` from its
    gates' matrices: everything that does not depend on their values, so a
    symbolic window pays for it once, at compile.

    Cheap by construction: one-qubit gates multiply per qubit as 2x2
    products (``PEND``), held back until a wider gate touches their qubit
    (the first time, all of them are Kronecker-expanded at once: ``KRON``;
    later, one at a time: ``ONE``); permutations are exact row gathers of
    the matrix (``ROWS``, consecutive ones composed into one), diagonals row
    scalings (``DIAG``), and only any other gate costs a ``tensordot``
    (``DENSE``).  Each op is ``(op, gate index, argument)``.
    """
    ops: list[tuple] = []
    pending: dict[int, None] = {}  # insertion-ordered, as the executor's
    expanded = False
    for index, inst in enumerate(group):
        if len(inst.qubits) == 1:
            bit = inst.qubits[0] - lo
            ops.append((_OP_PEND, index, bit))
            pending.setdefault(bit)
            continue
        local = tuple(q - lo for q in inst.qubits)
        if not expanded:
            ops.append((_OP_KRON, None, k))
            pending.clear()
            expanded = True
        for bit in local:
            if bit in pending:
                ops.append((_OP_ONE, None, bit))
                del pending[bit]
        ops.append(_gate_op(inst, index, local, k))
        if ops[-1][0] == _OP_ROWS and ops[-2][0] == _OP_ROWS:
            # matrix[a][b] is matrix[a[b]]: one gather, the same values.
            rows = ops.pop()[2]
            ops[-1] = (_OP_ROWS, None, ops[-1][2][rows])
    if expanded:
        ops.extend((_OP_ONE, None, bit) for bit in pending)
    else:
        ops.append((_OP_KRON, None, k))
    return tuple(ops)


def _gate_op(inst: Instruction, index: int, local: tuple[int, ...], k: int) -> tuple:
    """The program op applying the multi-qubit gate ``inst`` on window bits
    ``local``."""
    name = inst.name
    if name in _DIAGONAL_GATES:
        return (_OP_DIAG, index, _local_index(k, local))
    if name in _TRANSPOSITIONS:
        perm = _named_permutation(name)
    elif isinstance(inst, PermutationGate):
        perm = inst.permutation
    elif isinstance(inst, UnitaryGate):
        perm = _permutation_from_matrix(inst.matrix())
    else:
        perm = None
    if perm is not None:
        return (_OP_ROWS, index, _gather_rows(k, local, tuple(perm)))
    return (_OP_DENSE, index, local)


def _window_matrix(program: tuple, matrices: Sequence[np.ndarray | None]) -> np.ndarray:
    """Run a :func:`_window_program` over its gates' ``matrices`` (``None``
    where a gate needs none).  Compile and bind both build every window's
    matrix through here."""
    k = 0
    pending: dict[int, np.ndarray] = {}
    matrix = None
    for op, index, arg in program:
        if op == _OP_PEND:
            gate = matrices[index]
            before = pending.get(arg)
            pending[arg] = gate if before is None else gate @ before
        elif op == _OP_KRON:
            k = arg
            matrix = _kron_pending(pending, k)
        elif op == _OP_ONE:
            matrix = _apply_one(matrix, pending.pop(arg), arg, k)
        elif op == _OP_ROWS:
            matrix = matrix[arg]
        elif op == _OP_DIAG:
            matrix = matrix * matrices[index].diagonal()[arg][:, None]
        else:
            matrix = _apply_dense(matrix, matrices[index], arg, k)
    return matrix


def _fill_window(step: PlanStep, matrix: np.ndarray, dtype) -> None:
    """Install a window's ``matrix`` as ``step``'s payload: four scalars on
    a single step, a ``dtype`` matrix on a block.

    Local bit ``i`` of a block's matrix is qubit ``lo + i``, so the window
    is the middle axis of ``state.reshape(-1, 2^k, 2^lo)`` and the step
    needs no index tables (see :func:`_window_matmul`).  A window that
    starts just above qubit 0 would issue ``2^n / 2^(lo+k)`` tiny GEMMs — at
    ``k = 2, lo = 1`` on 16 qubits 2.2–3.0 ms against ~1.5 ms for the two
    single-qubit steps it replaces — so a window that fits is widened down
    to qubit 0 with identities (0.2–0.3 ms for that case), which
    :func:`_window_step` records as ``block == 1``.  Widening never passes
    :data:`BLOCK_WINDOW_MAX_QUBITS` qubits, so every block holds at most a
    ``2^W x 2^W`` matrix (4 KiB).
    """
    if step.tag == KERNEL_SINGLE:
        step.m00 = complex(matrix[0, 0])
        step.m01 = complex(matrix[0, 1])
        step.m10 = complex(matrix[1, 0])
        step.m11 = complex(matrix[1, 1])
        return
    lo = step.targets[0]
    if step.block != 1 << lo:
        matrix = _kron(matrix, _identity(1 << lo))
    step.matrix = np.ascontiguousarray(matrix, dtype=dtype)


def _kron_pending(pending: dict[int, np.ndarray], k: int) -> np.ndarray:
    """The Kronecker product of the pending one-qubit products (identity on
    the other bits); empties ``pending``."""
    eye = _identity(2)
    factor = pending.get(k - 1, eye)
    for bit in range(k - 2, -1, -1):
        factor = _kron(factor, pending.get(bit, eye))
    pending.clear()
    return factor


def _apply_one(matrix: np.ndarray, gate: np.ndarray, bit: int, k: int) -> np.ndarray:
    """``gate`` on window bit ``bit``, applied after ``matrix``."""
    rows = matrix.reshape(1 << (k - 1 - bit), 2, -1)
    return np.matmul(gate, rows).reshape(1 << k, 1 << k)


@functools.lru_cache(maxsize=None)
def _local_index(k: int, local: tuple[int, ...]) -> np.ndarray:
    """Gate-local index of every basis index of a ``k``-qubit window, for a
    gate whose bit ``j`` is window bit ``local[j]``."""
    idx = np.arange(1 << k)
    out = np.zeros(1 << k, dtype=np.intp)
    for j, bit in enumerate(local):
        out |= ((idx >> bit) & 1) << j
    return out


@functools.lru_cache(maxsize=256)
def _gather_rows(k: int, local: tuple[int, ...], perm: tuple[int, ...]) -> np.ndarray:
    """Rows ``r`` with ``P @ U == U[r]`` for the window lift of ``|x> -> |perm[x]>``."""
    idx = np.arange(1 << k)
    moved = np.asarray(perm, dtype=np.intp)[_local_index(k, local)]
    dst = idx & ~sum(1 << bit for bit in local)
    for j, bit in enumerate(local):
        dst |= ((moved >> j) & 1) << bit
    rows = np.empty_like(idx)
    rows[dst] = idx
    return rows


@functools.lru_cache(maxsize=None)
def _named_permutation(name: str) -> tuple[int, ...]:
    """``|x> -> |perm[x]>`` of a gate in :data:`_TRANSPOSITIONS`."""
    a, b = (sum(bit << j for j, bit in enumerate(bits)) for bits in _TRANSPOSITIONS[name])
    perm = list(range(1 << len(_TRANSPOSITIONS[name][0])))
    perm[a], perm[b] = b, a
    return tuple(perm)


def _apply_dense(
    matrix: np.ndarray, gate: np.ndarray, local: tuple[int, ...], k: int
) -> np.ndarray:
    """``G @ matrix`` for a gate with matrix ``gate`` on window bits ``local``."""
    m = len(local)
    # Window bit b is axis k-1-b of the (2,)*k row tensor; gate bit j is
    # output axis m-1-j and input axis 2m-1-j of the gate tensor.
    product = np.tensordot(
        gate.reshape((2,) * (2 * m)),
        matrix.reshape((2,) * k + (1 << k,)),
        axes=([2 * m - 1 - j for j in range(m)], [k - 1 - bit for bit in local]),
    )
    product = np.moveaxis(
        product, [m - 1 - j for j in range(m)], [k - 1 - bit for bit in local]
    )
    return product.reshape(1 << k, 1 << k)


def _kron(high: np.ndarray, low: np.ndarray) -> np.ndarray:
    """``np.kron`` of two square matrices as one broadcast multiply
    (``np.kron`` itself costs ~40 us on 2x2 operands — a millisecond per
    compiled ansatz)."""
    a, b = high.shape[0], low.shape[0]
    return (high[:, None, :, None] * low[None, :, None, :]).reshape(a * b, a * b)


# -- classification ----------------------------------------------------------


def _axis_index(n_qubits: int, assignments: dict[int, int]) -> tuple:
    """Index tuple into a ``(2,)*n`` view fixing the given qubit bits."""
    index: list = [slice(None)] * n_qubits
    for qubit, bit in assignments.items():
        index[n_qubits - 1 - qubit] = bit
    return tuple(index)


def _single_step(name, target, matrix, n_qubits) -> PlanStep:
    step = PlanStep(KERNEL_SINGLE, name, (target,))
    step.block = 1 << target
    _fill_window(step, matrix, complex)
    return step


def _diagonal_step(name, targets, diag, n_qubits) -> PlanStep:
    """A diagonal step holding its values only; :func:`_finish_diagonal_step`
    adds the kernel geometry once batching has decided which steps survive."""
    step = PlanStep(KERNEL_DIAGONAL, name, tuple(targets))
    step.diag = tuple(complex(v) for v in diag)
    return step


def _gate_diag(matrix: np.ndarray) -> tuple[complex, ...]:
    """A diagonal gate's values, as its diagonal step holds them."""
    return tuple(complex(v) for v in np.diag(matrix))


def _finish_diagonal_step(step: PlanStep, n_qubits: int, dtype) -> None:
    """Build what the diagonal kernel reads: ``diag_nd`` (in ``dtype``) or
    ``diag_idx``; the other is ``None``.

    Mostly-non-unit diagonals (RZ, batched products) apply fastest as one
    broadcast multiply over the whole state; mostly-unit ones (CPHASE, CZ,
    S, T) keep the strided path that skips untouched subspaces, with
    ``diag_idx`` holding ``(slot, index tuple)`` for the non-unit slots
    only.  The choice reads the values, so a rebindable step makes it at
    every bind.
    """
    targets, diag = step.targets, step.diag
    step.diag_idx = step.diag_nd = None
    if sum(1 for v in diag if v != 1.0) > len(diag) // 2:
        step.diag_nd = np.ascontiguousarray(
            _diag_broadcast(diag, targets, n_qubits), dtype=dtype
        )
        return
    step.diag_idx = tuple(
        (
            slot,
            _axis_index(
                n_qubits, {q: (slot >> bit) & 1 for bit, q in enumerate(targets)}
            ),
        )
        for slot, value in enumerate(diag)
        if value != 1.0
    )


def _diag_broadcast(
    diag: Sequence[complex], targets: tuple[int, ...], n_qubits: int
) -> np.ndarray:
    """``diag`` as a broadcastable ``(2|1,)*n`` tensor (qubit q at axis n-1-q)."""
    shape = [1] * n_qubits
    for q in targets:
        shape[n_qubits - 1 - q] = 2
    out = np.empty(shape, dtype=complex)
    for local, value in enumerate(diag):
        idx = [0] * n_qubits
        for bit, q in enumerate(targets):
            idx[n_qubits - 1 - q] = (local >> bit) & 1
        out[tuple(idx)] = value
    return out


def _controlled_step(name, control, target, payload, n_qubits) -> PlanStep:
    step = PlanStep(KERNEL_CONTROLLED, name, (control, target))
    control_axis = n_qubits - 1 - control
    target_axis = n_qubits - 1 - target
    step.ctrl_index = _axis_index(n_qubits, {control: 1})
    step.sub_target_axis = target_axis if target_axis < control_axis else target_axis - 1
    step.m00 = complex(payload[0, 0])
    step.m01 = complex(payload[0, 1])
    step.m10 = complex(payload[1, 0])
    step.m11 = complex(payload[1, 1])
    return step


def _target_geometry(
    targets: tuple[int, ...], n_qubits: int, cache: dict
) -> tuple[np.ndarray, np.ndarray]:
    """(perm, inv_perm) index arrays moving the target bits to the front.

    ``gathered = state[perm]`` orders amplitudes as ``(local, rest)`` with
    the gate's local index contiguous in the leading axis;
    ``state = permuted[inv_perm]`` undoes it.  Shared across plan steps
    acting on the same target tuple.
    """
    cached = cache.get(targets)
    if cached is not None:
        return cached
    size = 1 << n_qubits
    idx = np.arange(size)
    local = np.zeros(size, dtype=np.intp)
    for bit, q in enumerate(targets):
        local |= ((idx >> q) & 1) << bit
    rest = np.zeros(size, dtype=np.intp)
    bit = 0
    target_set = set(targets)
    for q in range(n_qubits):
        if q in target_set:
            continue
        rest |= ((idx >> q) & 1) << bit
        bit += 1
    rest_dim = 1 << (n_qubits - len(targets))
    pos = local * rest_dim + rest
    perm = np.empty(size, dtype=np.intp)
    perm[pos] = idx
    cache[targets] = (perm, pos)
    return perm, pos


def _dense_step(name, targets, matrix, n_qubits, perm_cache) -> PlanStep:
    targets = tuple(targets)
    step = PlanStep(KERNEL_DENSE, name, targets)
    step.matrix = np.ascontiguousarray(matrix, dtype=complex)
    step.perm, step.inv_perm = _target_geometry(targets, n_qubits, perm_cache)
    step.dim_k = 1 << len(targets)
    return step


def _gather_step(name, targets, local_perm, n_qubits) -> PlanStep:
    """Whole-state gather realising ``|x> -> |perm[x]>`` on ``targets``."""
    step = PlanStep(KERNEL_GATHER, name, tuple(targets))
    size = 1 << n_qubits
    idx = np.arange(size)
    local = np.zeros(size, dtype=np.intp)
    mask = 0
    for bit, q in enumerate(targets):
        local |= ((idx >> q) & 1) << bit
        mask |= 1 << q
    inv_local = np.empty(1 << len(targets), dtype=np.intp)
    inv_local[np.asarray(local_perm, dtype=np.intp)] = np.arange(1 << len(targets))
    source_local = inv_local[local]
    src = idx & ~mask
    for bit, q in enumerate(targets):
        src |= ((source_local >> bit) & 1) << q
    step.gather = np.ascontiguousarray(src, dtype=np.intp)
    return step


def _permutation_from_matrix(matrix: np.ndarray) -> tuple[int, ...] | None:
    """Extract an exact 0/1 permutation from a unitary matrix, else None."""
    real = matrix.real
    if np.any(matrix.imag != 0.0):
        return None
    if not np.all((real == 0.0) | (real == 1.0)):
        return None
    if not np.all(real.sum(axis=0) == 1.0) or not np.all(real.sum(axis=1) == 1.0):
        return None
    # matrix[dst, src] == 1  =>  |src> -> |dst>
    return tuple(int(d) for d in np.argmax(real, axis=0))


def _classify_parametric(inst: Instruction) -> PlanStep:
    """A symbolic gate no window holds: the step its binding would classify
    to, with geometry only (a rebind builds the payload)."""
    if inst.name in _DIAGONAL_GATES:
        step = PlanStep(KERNEL_DIAGONAL, inst.name, inst.qubits)
        step.parametric = ((0, inst),)
        return step
    if len(inst.qubits) == 1:
        step = _window_step([inst])
        step.name = inst.name
        return step
    raise ExecutionError(
        f"symbolic {inst.name} on {len(inst.qubits)} qubits has no rebindable "
        "kernel; bind the circuit before compiling it"
    )


def _classify(inst: Instruction, n_qubits: int, perm_cache: dict) -> PlanStep | None:
    name = inst.name
    qubits = inst.qubits
    if name in ("MEASURE", "BARRIER", "I"):
        return None
    if name == "RESET":
        step = PlanStep(KERNEL_RESET, name, qubits)
        step.block = 1 << qubits[0]
        step.pairs = (
            (
                _axis_index(n_qubits, {qubits[0]: 0}),
                _axis_index(n_qubits, {qubits[0]: 1}),
            ),
        )
        return step
    if inst.is_parameterized:
        return _classify_parametric(inst)
    if name in _TRANSPOSITIONS:
        step = PlanStep(KERNEL_PERMUTATION, name, qubits)
        step.pairs = (
            tuple(_axis_index(n_qubits, dict(zip(qubits, bits))) for bits in _TRANSPOSITIONS[name]),
        )
        return step
    if name in _DIAGONAL_GATES:
        return _diagonal_step(name, qubits, np.diag(inst.matrix()), n_qubits)
    if isinstance(inst, PermutationGate):
        return _gather_step(name, qubits, inst.permutation, n_qubits)
    if len(qubits) == 1:
        return _single_step(name, qubits[0], inst.matrix(), n_qubits)
    if len(qubits) == 2 and name in _CONTROLLED_GATES:
        payload = inst.matrix()[np.ix_([1, 3], [1, 3])]
        return _controlled_step(name, qubits[0], qubits[1], payload, n_qubits)
    matrix = inst.matrix()
    if isinstance(inst, UnitaryGate):
        local_perm = _permutation_from_matrix(matrix)
        if local_perm is not None:
            return _gather_step(name, qubits, local_perm, n_qubits)
    return _dense_step(name, qubits, matrix, n_qubits, perm_cache)
