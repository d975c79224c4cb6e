"""The canonical execution seam: one protocol, every execution path.

Before this layer existed the repo had five slightly different ways of
turning a circuit into counts — ``StateVector.run``, the accelerator
subclasses, :class:`~repro.simulator.parallel_engine.ParallelSimulationEngine`,
``core/executor.py`` and the broker's dispatcher — each re-implementing
plan lookup, seeding and sampling.  :class:`ExecutionBackend` is the single
protocol they now share:

* :meth:`ExecutionBackend.compile` lowers a circuit into a reusable
  :class:`~repro.simulator.execution_plan.ExecutionPlan` (backends that do
  not precompile, like the density path, return ``None``);
* :meth:`ExecutionBackend.execute` turns ``(circuit, params, shots)`` into
  an :class:`~repro.exec.result.ExecutionResult`;
* :meth:`ExecutionBackend.expectation` evaluates an exact observable
  expectation against the same compiled artefacts.

:class:`LocalBackend` is the in-process implementation (and the default
everywhere): shared plan cache + per-instance
:class:`ParallelSimulationEngine`.  :class:`DensityBackend` wraps the
density-matrix simulator behind the same protocol so the noisy accelerator
is an adapter like the others.  The process-sharded implementation lives in
:mod:`repro.exec.sharded`.

**One execution gate per process** (:func:`execution_gate`).  Two threads
that each run an interpreter-bound kernel do not overlap: they hand the GIL
back and forth at every numpy call — a cross-core wake-up each, once the OS
has spread them over two cores — and both finish later than they would back
to back.  Such kernels run one at a time under one lock: every tableau job
(:mod:`repro.exec.stabilizer`), and a reset-free dense job whose state lies
in the *hand-off band*, ``HANDOFF_BAND_START <= 2**width <
HANDOFF_BAND_STOP`` (measured constants beside ``DEFAULT_CHUNK_THRESHOLD``
in :mod:`repro.simulator.execution_plan`: below the band nothing is handed
off, above it two threads genuinely overlap).  Only state allocation +
replay + sample are gated; compile and cache lookup stay outside, and
trajectories, sweeps and expectations are not gated.
"""

from __future__ import annotations

import abc
import contextlib
import threading
import time
from typing import Iterator, Mapping, Sequence

import numpy as np

from ..cancellation import CancelToken, active_cancel_token
from ..exceptions import ExecutionError
from ..ir.composite import CompositeInstruction
from ..obs.trace import get_tracer
from ..operators.compiled import compile_observable
from ..testing import faults
from ..simulator.adjoint import adjoint_gradient, adjoint_refusal
from ..simulator.execution_plan import (
    DEFAULT_PRECISION,
    HANDOFF_BAND_START,
    HANDOFF_BAND_STOP,
)
from ..simulator.parallel_engine import ParallelSimulationEngine
from ..simulator.plan_cache import PlanCache, get_plan_cache
from ..simulator.statevector import StateVector
from .result import ExecutionResult

__all__ = ["ExecutionBackend", "LocalBackend", "DensityBackend"]

#: Accepted parameter shapes for parametric execution.
Params = Mapping[str, float] | Sequence[float] | None

#: The process's one execution gate: held while an interpreter-bound kernel
#: evolves and samples (every tableau job, and a dense job whose state lies
#: in the hand-off band — see the module docstring).
_GATE = threading.Lock()
#: How long a queued job waits between looks at its cancel token.
_GATE_SLICE_SECONDS = 0.02


@contextlib.contextmanager
def execution_gate(token: CancelToken | None) -> Iterator[None]:
    """Hold the process-wide execution gate for the block.

    A job with a cancel token waits in bounded slices and re-checks the
    token between them and once more on entry, so one whose deadline passes
    in the queue raises the usual typed error and never starts its kernel.
    """
    if token is None:
        _GATE.acquire()
    else:
        while not _GATE.acquire(timeout=_GATE_SLICE_SECONDS):
            token.check()
    try:
        if token is not None:
            token.check()
        yield
    finally:
        _GATE.release()


class ExecutionBackend(abc.ABC):
    """Protocol shared by every execution path (local, sharded, density)."""

    backend_name = "abstract"

    def compile(
        self,
        circuit: CompositeInstruction,
        n_qubits: int | None = None,
        *,
        optimize: bool = True,
        chunk_threshold: int | None = None,
        precision: str = DEFAULT_PRECISION,
    ):
        """Lower ``circuit`` into a reusable plan; ``None`` when the backend
        executes directly (density-matrix evolution has no plan form).

        ``chunk_threshold`` sets the minimum state size for chunk-parallel
        replay (``None`` = the compiled default), a performance knob that
        never changes measurement distributions.
        ``precision`` is NOT a performance knob: ``"single"`` compiles and
        replays in complex64 (half the memory traffic, ~1e-4 amplitude
        deviation), so it participates in plan and job identity.
        """
        return None

    @abc.abstractmethod
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
    ) -> ExecutionResult:
        """Run ``circuit`` for ``shots`` and return the reduced result."""

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
        """Exact ``<circuit|observable|circuit>`` (no sampling noise)."""
        raise ExecutionError(
            f"backend {self.backend_name!r} does not support exact expectations"
        )

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
    ) -> list[ExecutionResult]:
        """Run one parametric ``circuit`` once per binding (sweep).

        The default implementation loops :meth:`execute` — correct for any
        backend (each binding is executed exactly as an equivalent
        independent submission would be, same seed derivation included) but
        unamortised.  Plan-based backends override this to compile once and
        fan the bindings out over the rebind path.
        """
        return [
            self.execute(
                circuit,
                shots,
                n_qubits=n_qubits,
                seed=seed,
                params=binding,
                optimize=optimize,
                chunk_threshold=chunk_threshold,
                precision=precision,
            )
            for binding in bindings
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
    ) -> list[float]:
        """Exact expectation of ``observable`` per binding.

        Default implementation loops :meth:`expectation`; plan-based
        backends override to compile once and rebind in place.
        """
        return [
            self.expectation(
                circuit,
                observable,
                n_qubits=n_qubits,
                params=binding,
                optimize=optimize,
                chunk_threshold=chunk_threshold,
                precision=precision,
            )
            for binding in bindings
        ]

    def close(self, wait: bool = True) -> None:
        """Release worker pools/processes; safe to call more than once."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def _resolve_width(circuit: CompositeInstruction, n_qubits: int | None) -> int:
    return max(circuit.n_qubits, 1 if n_qubits is None else int(n_qubits), 1)


class LocalBackend(ExecutionBackend):
    """In-process execution: shared plan cache + a worker-thread engine.

    This is the seam the single-process paths sit on: the qpp accelerator,
    ``core/executor.py`` and the broker's default dispatcher all reduce to
    ``LocalBackend.execute``.  Fixed-seed results are the reference the
    sharded backend must reproduce bit for bit.  Every replay takes one
    fixed lane (:meth:`_replay_pool`): serial below the plan's chunk
    threshold, the engine's threads at or above it — bitwise identical, so
    the reference property holds on both.
    """

    backend_name = "local"

    def __init__(
        self,
        engine: ParallelSimulationEngine | None = None,
        plan_cache: PlanCache | None = None,
    ):
        self._engine = engine if engine is not None else ParallelSimulationEngine()
        self._owns_engine = engine is None
        self._plan_cache = plan_cache

    @property
    def engine(self) -> ParallelSimulationEngine:
        return self._engine

    def _cache(self) -> PlanCache:
        return self._plan_cache if self._plan_cache is not None else get_plan_cache()

    def _replay_pool(self, plan):
        """The chunk pool this plan replays on (``None`` = serial replay).

        A state below the plan's ``chunk_threshold`` — the measured
        crossover under which splitting a replay across workers loses to
        the serial sweep — replays serially, a state at or above it on the
        engine's threads.  Both lanes are bit-identical.
        """
        if (1 << plan.n_qubits) < plan.chunk_threshold:
            return None
        return self._engine

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
        plan, _ = self._cache().lookup_or_compile(
            circuit,
            _resolve_width(circuit, n_qubits),
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
    ) -> ExecutionResult:
        width = _resolve_width(circuit, n_qubits)
        tracer = get_tracer()
        token = active_cancel_token()
        if token is not None:
            # Pre-compile boundary: a job already past its deadline (or
            # cancelled while queued) must not pay for compilation.
            token.check()
        faults.fire("local.replay")
        # The timer covers the cache lookup so a plan-cache miss reports its
        # compilation cost in `seconds` (matching the historical accelerator
        # path); cached replays pay only the lookup.
        started = time.perf_counter()
        with tracer.span("compile", attrs={"circuit": circuit.name}) as compile_span:
            plan, cached = self._cache().lookup_or_compile(
                circuit,
                width,
                optimize=optimize,
                chunk_threshold=chunk_threshold,
                precision=precision,
            )
            compile_span.set_attribute("plan_cached", cached)
        if plan.is_parametric:
            if params is None:
                raise ExecutionError(
                    f"circuit {circuit.name!r} has unbound parameters; provide params"
                )
            plan = plan.bind(params)
        if plan.has_reset:
            # Opens the ``replay`` span (mode "trajectories") itself.
            counts = self._engine.run_trajectories(
                width, circuit, shots, seed=seed, plan=plan
            )
        else:
            # One interpreter-bound dense kernel at a time (module docstring).
            gated = HANDOFF_BAND_START <= (1 << width) < HANDOFF_BAND_STOP
            queued = time.perf_counter()
            with execution_gate(token) if gated else contextlib.nullcontext():
                # ``seconds`` reports this job's work, not its wait for another's.
                started += time.perf_counter() - queued
                state = StateVector(width, dtype=plan.dtype)
                pool = self._replay_pool(plan)
                with tracer.span(
                    "replay",
                    attrs={
                        "n_qubits": width,
                        "lane": type(pool).__name__ if pool is not None else "serial",
                    },
                ):
                    state.apply_plan(plan, pool=pool)
                measured = plan.measured_qubits or tuple(range(width))
                with tracer.span("sample", attrs={"shots": shots}):
                    counts = self._engine.sample_parallel(
                        state, shots, measured, seed=seed
                    )
        elapsed = time.perf_counter() - started
        return ExecutionResult(
            counts=counts,
            shots=shots,
            n_qubits=width,
            backend=self.backend_name,
            seconds=elapsed,
            plan_cached=cached,
            depth=plan.depth,
            n_gates=plan.n_gates,
        )

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
        width = _resolve_width(circuit, n_qubits)
        plan, _ = self._cache().lookup_or_compile(
            circuit,
            width,
            optimize=optimize,
            chunk_threshold=chunk_threshold,
            precision=precision,
        )
        if plan.is_parametric:
            if params is None:
                raise ExecutionError(
                    f"circuit {circuit.name!r} has unbound parameters; provide params"
                )
            plan = plan.bind(params)
        if plan.has_reset:
            raise ExecutionError(
                "exact expectations are undefined for circuits with mid-circuit resets"
            )
        state = StateVector(width, dtype=plan.dtype)
        state.apply_plan(plan, pool=self._replay_pool(plan))
        return float(state.expectation(observable))

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
    ) -> list[ExecutionResult]:
        """Compile-once sweep: one plan lookup, N in-place rebinds.

        Each binding replays and samples exactly as an independent
        :meth:`execute` of the pre-bound circuit would (same ``seed`` to the
        sampler per binding), so per-binding counts are bit-identical to
        the equivalent independent jobs — only the compile and dispatch
        costs are amortised.
        """
        width = _resolve_width(circuit, n_qubits)
        tracer = get_tracer()
        token = active_cancel_token()
        if token is not None:
            token.check()
        faults.fire("local.replay")
        with tracer.span("compile", attrs={"circuit": circuit.name}) as compile_span:
            plan, cached = self._cache().lookup_or_compile(
                circuit,
                width,
                optimize=optimize,
                chunk_threshold=chunk_threshold,
                precision=precision,
            )
            compile_span.set_attribute("plan_cached", cached)
        if not plan.is_parametric or plan.has_reset:
            # Nothing to rebind (or the trajectory path applies): the
            # protocol's per-binding loop is already the right execution.
            return super().execute_sweep(
                circuit,
                bindings,
                shots,
                n_qubits=n_qubits,
                seed=seed,
                optimize=optimize,
                chunk_threshold=chunk_threshold,
                precision=precision,
            )
        results: list[ExecutionResult] = []
        for index, binding in enumerate(bindings):
            if token is not None:
                # Per-binding boundary: a cancelled/expired sweep stops
                # between evaluations, not after the whole fan-out.
                token.check()
            started = time.perf_counter()
            bound = plan.bind(binding)
            state = StateVector(width, dtype=bound.dtype)
            pool = self._replay_pool(bound)
            with tracer.span(
                "replay",
                attrs={
                    "n_qubits": width,
                    "binding": index,
                    "lane": type(pool).__name__ if pool is not None else "serial",
                },
            ):
                state.apply_plan(bound, pool=pool)
            measured = bound.measured_qubits or tuple(range(width))
            with tracer.span("sample", attrs={"shots": shots}):
                counts = self._engine.sample_parallel(state, shots, measured, seed=seed)
            results.append(
                ExecutionResult(
                    counts=counts,
                    shots=shots,
                    n_qubits=width,
                    backend=self.backend_name,
                    seconds=time.perf_counter() - started,
                    plan_cached=cached or index > 0,
                    depth=bound.depth,
                    n_gates=bound.n_gates,
                )
            )
        return results

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
    ) -> list[float]:
        width = _resolve_width(circuit, n_qubits)
        token = active_cancel_token()
        if token is not None:
            token.check()
        plan, _ = self._cache().lookup_or_compile(
            circuit,
            width,
            optimize=optimize,
            chunk_threshold=chunk_threshold,
            precision=precision,
        )
        if plan.has_reset:
            raise ExecutionError(
                "exact expectations are undefined for circuits with mid-circuit resets"
            )
        if not plan.is_parametric:
            return super().expectation_sweep(
                circuit,
                observable,
                bindings,
                n_qubits=n_qubits,
                optimize=optimize,
                chunk_threshold=chunk_threshold,
                precision=precision,
            )
        values: list[float] = []
        for binding in bindings:
            if token is not None:
                token.check()
            bound = plan.bind(binding)
            state = StateVector(width, dtype=bound.dtype)
            state.apply_plan(bound, pool=self._replay_pool(bound))
            values.append(float(state.expectation(observable)))
        return values

    def gradient(
        self,
        circuit: CompositeInstruction,
        observable,
        values: Mapping[str, float] | Sequence[float],
        *,
        n_qubits: int | None = None,
        optimize: bool = True,
        chunk_threshold: int | None = None,
    ) -> np.ndarray:
        """Exact ``d<observable>/dθ`` at ``values`` by the adjoint method.

        One bind + replay of the cached double-precision parametric plan,
        one ``H|ψ>`` and one backward pass over the circuit's gates
        (:mod:`repro.simulator.adjoint`).  Entries follow the circuit's
        free parameters sorted by name; a circuit
        :func:`~repro.simulator.adjoint.adjoint_refusal` refuses raises.
        """
        reason = adjoint_refusal(circuit)
        if reason is not None:
            raise ExecutionError(
                f"no adjoint gradient for circuit {circuit.name!r}: {reason}"
            )
        width = _resolve_width(circuit, n_qubits)
        token = active_cancel_token()
        if token is not None:
            token.check()
        plan, _ = self._cache().lookup_or_compile(
            circuit, width, optimize=optimize, chunk_threshold=chunk_threshold
        )
        bound = plan.bind(values)
        state = StateVector(width, dtype=bound.dtype)
        state.apply_plan(bound, pool=self._replay_pool(bound))
        psi = state.data
        lam = compile_observable(observable, width).apply(psi)
        return adjoint_gradient(circuit, bound.bound_params, plan.parameter_names, psi, lam)

    def close(self, wait: bool = True) -> None:
        if self._owns_engine:
            self._engine.close(wait=wait)

    def __repr__(self) -> str:
        return f"LocalBackend(engine={self._engine!r})"


class DensityBackend(ExecutionBackend):
    """Density-matrix execution behind the common protocol.

    No plan form exists for (noisy) density evolution, so :meth:`compile`
    returns ``None`` and :meth:`execute` evolves the matrix directly; the
    noisy accelerator is a thin adapter over this class.
    """

    backend_name = "density"

    def __init__(self, noise_model=None):
        self.noise_model = noise_model

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
    ) -> ExecutionResult:
        # chunk_threshold is a plan-replay knob; density evolution has no
        # plan form, so it is accepted (protocol uniformity) and ignored.
        # precision is semantic: "single" evolves the matrix in complex64
        # (half the footprint, diagonal-probability error ≤ 1e-4 at the
        # guarded sizes — Kraus sums accumulate error linearly in depth, so
        # the bound is looser than the statevector lane's) and participates
        # in the job identity like every other semantic option.
        from ..simulator.density import DensityMatrix
        from ..simulator.execution_plan import resolve_precision

        tier = resolve_precision(precision)
        dtype = np.complex128 if tier == "double" else np.complex64
        token = active_cancel_token()
        if token is not None:
            token.check()
        faults.fire("density.execute")
        if params is not None:
            circuit = circuit.bind(params)
        elif circuit.is_parameterized:
            raise ExecutionError(
                f"circuit {circuit.name!r} has unbound parameters; provide params"
            )
        width = _resolve_width(circuit, n_qubits)
        rng = np.random.default_rng(seed)
        started = time.perf_counter()
        rho = DensityMatrix(width, dtype=dtype)
        rho.apply_circuit(circuit, noise_model=self.noise_model)
        if token is not None:
            # Post-evolution boundary: sampling can be a large share of a
            # noisy job, so honour cancellation between the two phases.
            token.check()
        measured = circuit.measured_qubits() or tuple(range(width))
        counts = rho.sample(shots, measured, rng)
        elapsed = time.perf_counter() - started
        return ExecutionResult(
            counts=counts,
            shots=shots,
            n_qubits=width,
            backend=self.backend_name,
            seconds=elapsed,
            depth=circuit.depth(),
            n_gates=circuit.n_gates,
            extra={"purity": rho.purity(), "precision": tier},
        )

    def __repr__(self) -> str:
        return f"DensityBackend(noise_model={self.noise_model!r})"
