"""Tests for the Section VII extension: async JIT compilation."""

import pytest

import repro
from repro.core.jit import AsyncKernelCompiler, compile_and_execute_async
from repro.exceptions import CompilationError
from repro.ir.builder import CircuitBuilder


def redundant_circuit():
    """A circuit the optimiser can visibly shrink."""
    return (
        CircuitBuilder(2)
        .h(0)
        .h(0)
        .h(0)
        .rz(1, 0.2)
        .rz(1, -0.2)
        .cx(0, 1)
        .measure_all()
        .build()
    )


class TestAsyncKernelCompiler:
    def test_compilation_removes_redundant_gates(self):
        with AsyncKernelCompiler() as compiler:
            result = compiler.compile(redundant_circuit(), effort=1)
        assert result.gate_reduction >= 3
        assert result.optimized.n_measurements == 2
        assert result.compile_seconds >= 0.0

    def test_higher_effort_applies_more_passes(self):
        with AsyncKernelCompiler() as compiler:
            low = compiler.compile(redundant_circuit(), effort=1)
            high = compiler.compile(redundant_circuit(), effort=3)
        assert len(high.passes_applied) > len(low.passes_applied)

    def test_async_handle_returns_immediately_then_completes(self):
        with AsyncKernelCompiler(synthetic_latency_per_effort=0.05) as compiler:
            handle = compiler.compile_async(redundant_circuit(), effort=2)
            # The handle exists before compilation finished (latency 0.1s total).
            assert handle.kernel_name == "circuit"
            result = handle.result(timeout=10)
            assert handle.done()
            assert result.effort == 2

    def test_execute_when_ready_runs_the_optimised_kernel(self):
        q = repro.qalloc(2)
        with AsyncKernelCompiler() as compiler:
            handle = compiler.compile_async(redundant_circuit(), effort=2)
            counts = handle.execute_when_ready(q, shots=128, timeout=30)
        assert sum(counts.values()) == 128
        assert set(counts) <= {"00", "11"}

    def test_compile_and_execute_async_helper(self):
        q = repro.qalloc(2)
        counts = compile_and_execute_async(redundant_circuit(), q, effort=2, shots=64)
        assert sum(counts.values()) == 64

    def test_main_thread_can_overlap_with_compilation(self):
        with AsyncKernelCompiler(synthetic_latency_per_effort=0.1) as compiler:
            handle = compiler.compile_async(redundant_circuit(), effort=2)
            overlapped = sum(i for i in range(1000))  # classical work
            assert overlapped == 499500
            assert handle.result(timeout=10).gate_reduction >= 3

    def test_validation(self):
        compiler = AsyncKernelCompiler()
        with pytest.raises(CompilationError):
            compiler.compile_async(redundant_circuit(), effort=0)
        with pytest.raises(CompilationError):
            compiler.compile_async("not a circuit")  # type: ignore[arg-type]
        with pytest.raises(CompilationError):
            AsyncKernelCompiler(max_workers=0)
        compiler.shutdown()

    def test_jobs_submitted_counter(self):
        with AsyncKernelCompiler() as compiler:
            compiler.compile_async(redundant_circuit())
            compiler.compile_async(redundant_circuit())
            assert compiler.jobs_submitted == 2
