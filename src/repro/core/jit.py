"""Asynchronous quantum kernel compilation (Section VII of the paper).

The paper cites Shi et al. (ASPLOS'19): aggressive quantum-circuit
optimisation can take a long time (hours on a GPU), so with user-level
multi-threading one can *offload the compilation asynchronously* and launch
the compiled kernel only when it is ready, without blocking the main thread.

We do not have a GPU compiler, so this module provides the closest local
equivalent that exercises the same programming-model path:

* :class:`AsyncKernelCompiler` owns a background worker pool (the "GPU").
* :meth:`AsyncKernelCompiler.compile_async` submits a circuit and returns a
  :class:`CompilationHandle` immediately.
* Compilation itself runs the IR optimisation pipeline repeatedly at a
  configurable *effort* level (each effort unit re-runs the pass manager),
  recording what it did, so higher effort genuinely costs more time — the
  behaviour the asynchronous launch is meant to hide.
* :meth:`CompilationHandle.execute_when_ready` blocks until compilation
  finishes and then executes the optimised kernel on the calling thread's
  QPU, mirroring "launch the compiled kernel on a QPU only when it is
  ready".
"""

from __future__ import annotations

import concurrent.futures
import threading
import time
from dataclasses import dataclass, field
from typing import Mapping

from ..exceptions import CompilationError, ExecutionError
from ..ir.composite import CompositeInstruction
from ..ir.transforms import InverseCancellationPass, PassManager, RotationMergingPass
from ..runtime.buffer import AcceleratorBuffer
from ..runtime.qreg import qreg

__all__ = ["CompilationResult", "CompilationHandle", "AsyncKernelCompiler"]


@dataclass
class CompilationResult:
    """Outcome of one asynchronous compilation job."""

    original: CompositeInstruction
    optimized: CompositeInstruction
    effort: int
    compile_seconds: float
    passes_applied: list[str] = field(default_factory=list)

    @property
    def gate_reduction(self) -> int:
        """Number of instructions removed by optimisation."""
        return self.original.n_instructions - self.optimized.n_instructions


class CompilationHandle:
    """Future-like handle to an in-flight compilation (``std::future`` analogue)."""

    def __init__(self, future: "concurrent.futures.Future[CompilationResult]", name: str):
        self._future = future
        self.kernel_name = name

    def done(self) -> bool:
        return self._future.done()

    def result(self, timeout: float | None = None) -> CompilationResult:
        """Block until the compilation finishes and return its result."""
        try:
            return self._future.result(timeout)
        except concurrent.futures.TimeoutError as exc:
            raise ExecutionError(
                f"compilation of kernel {self.kernel_name!r} did not finish in time"
            ) from exc

    def execute_when_ready(
        self,
        register: qreg | AcceleratorBuffer,
        shots: int | None = None,
        timeout: float | None = None,
    ) -> dict[str, int]:
        """Wait for the compiled kernel and execute it on this thread's QPU."""
        from .api import execute_circuit

        compiled = self.result(timeout)
        return execute_circuit(compiled.optimized, register, shots=shots)


class AsyncKernelCompiler:
    """Background compiler pool (the stand-in for the GPU compile service)."""

    def __init__(self, max_workers: int = 2, synthetic_latency_per_effort: float = 0.0):
        if max_workers < 1:
            raise CompilationError("the compiler pool needs at least one worker")
        if synthetic_latency_per_effort < 0:
            raise CompilationError("synthetic latency must be non-negative")
        self._pool = concurrent.futures.ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-jit"
        )
        #: Extra sleep per effort unit, to emulate a genuinely slow compiler
        #: in examples/tests without burning CPU.
        self.synthetic_latency_per_effort = synthetic_latency_per_effort
        self._jobs_submitted = 0
        self._lock = threading.Lock()

    # -- compilation -----------------------------------------------------------------
    def _compile(self, circuit: CompositeInstruction, effort: int) -> CompilationResult:
        started = time.perf_counter()
        passes_applied: list[str] = []
        current = circuit
        pipeline = [RotationMergingPass(), InverseCancellationPass()]
        manager = PassManager(pipeline)
        for _ in range(max(1, effort)):
            current = manager.run(current)
            passes_applied.extend(p.name for p in pipeline)
            if self.synthetic_latency_per_effort:
                time.sleep(self.synthetic_latency_per_effort)
        elapsed = time.perf_counter() - started
        return CompilationResult(
            original=circuit,
            optimized=current,
            effort=effort,
            compile_seconds=elapsed,
            passes_applied=passes_applied,
        )

    def compile_async(
        self, circuit: CompositeInstruction, effort: int = 1, name: str | None = None
    ) -> CompilationHandle:
        """Submit ``circuit`` for background optimisation; returns immediately."""
        if effort < 1:
            raise CompilationError(f"effort must be at least 1, got {effort}")
        if not isinstance(circuit, CompositeInstruction):
            raise CompilationError("compile_async expects a CompositeInstruction")
        with self._lock:
            self._jobs_submitted += 1
        future = self._pool.submit(self._compile, circuit, effort)
        return CompilationHandle(future, name or circuit.name)

    def compile(self, circuit: CompositeInstruction, effort: int = 1) -> CompilationResult:
        """Synchronous compilation (convenience for tests and baselines)."""
        return self._compile(circuit, effort)

    # -- bookkeeping -------------------------------------------------------------------
    @property
    def jobs_submitted(self) -> int:
        with self._lock:
            return self._jobs_submitted

    def shutdown(self, wait: bool = True) -> None:
        self._pool.shutdown(wait=wait)

    def __enter__(self) -> "AsyncKernelCompiler":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()


def compile_and_execute_async(
    circuit: CompositeInstruction,
    register: qreg | AcceleratorBuffer,
    effort: int = 2,
    shots: int | None = None,
    compiler_options: Mapping[str, object] | None = None,
) -> dict[str, int]:
    """One-shot helper: asynchronously compile, then execute when ready.

    This is the end-to-end "Asynchronous Quantum JIT Compilation" scenario of
    Section VII collapsed into a single call (the caller's thread is free
    between ``compile_async`` returning and ``execute_when_ready`` blocking).
    """
    options = dict(compiler_options or {})
    with AsyncKernelCompiler(
        max_workers=int(options.get("max_workers", 1)),
        synthetic_latency_per_effort=float(options.get("latency", 0.0)),
    ) as compiler:
        handle = compiler.compile_async(circuit, effort=effort)
        return handle.execute_when_ready(register, shots=shots)
