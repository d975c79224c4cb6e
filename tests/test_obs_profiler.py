"""Tests for the per-kernel replay profiler (:mod:`repro.obs.profiler`).

The acceptance property: on a serial replay, the profiler's per-kernel
seconds must sum to (within tolerance of) the wall time of the enclosing
replay span — the attribution accounts for the replay, it does not invent
time.  Plus unit coverage for the accumulator, wire format, and the
install/uninstall switches the hot paths key off.
"""

import time

import pytest

from repro.algorithms.qft import qft_circuit
from repro.obs import (
    ReplayProfiler,
    active_profiler,
    disable_profiler,
    enable_profiler,
)
from repro.obs.profiler import profiler_installed
from repro.simulator.execution_plan import compile_plan


class TestAccumulator:
    def test_record_kernel_aggregates_per_class(self):
        profiler = ReplayProfiler()
        profiler.record_kernel("single", 0.001)
        profiler.record_kernel("single", 0.003)
        profiler.record_kernel("dense", 0.010)
        snap = profiler.snapshot()
        assert snap.kernels["single"].calls == 2
        assert snap.kernels["single"].seconds == pytest.approx(0.004)
        assert snap.kernels["single"].mean_seconds == pytest.approx(0.002)
        assert snap.total_calls == 3
        assert snap.total_kernel_seconds == pytest.approx(0.014)

    def test_reset_clears_everything(self):
        profiler = ReplayProfiler()
        profiler.record_kernel("single", 1.0)
        profiler.reset()
        assert not profiler.snapshot().kernels

    def test_as_table_sorts_slowest_first(self):
        profiler = ReplayProfiler()
        profiler.record_kernel("fast", 0.001)
        profiler.record_kernel("slow", 1.0)
        lines = profiler.snapshot().as_table().splitlines()
        assert lines[0].startswith("kernel")
        assert lines[1].startswith("slow")
        assert lines[2].startswith("fast")
        assert len(lines) == 3


class TestSwitches:
    def test_disabled_by_default(self):
        assert active_profiler() is None

    def test_enable_returns_the_same_instance_until_disabled(self):
        first = enable_profiler()
        assert enable_profiler() is first
        assert active_profiler() is first
        disable_profiler()
        assert active_profiler() is None

    def test_profiler_installed_restores_previous(self):
        outer = enable_profiler()
        inner = ReplayProfiler()
        with profiler_installed(inner):
            assert active_profiler() is inner
        assert active_profiler() is outer
        with profiler_installed(None):
            assert active_profiler() is outer


class TestReplayAttribution:
    def test_kernel_seconds_account_for_the_serial_replay(self):
        """Per-kernel seconds must sum to the enclosing replay's wall time
        (within 10%): the profiler attributes the replay, it does not
        sample or extrapolate.  Uses a circuit big enough (~14 qubits,
        every QFT kernel class) that the loop body dwarfs timer noise."""
        plan = compile_plan(qft_circuit(14), 14)
        profiler = ReplayProfiler()
        with profiler_installed(profiler):
            t0 = time.perf_counter()
            plan.execute(plan.new_state())
            wall = time.perf_counter() - t0
        snap = profiler.snapshot()
        assert snap.total_calls == plan.n_steps
        assert snap.total_kernel_seconds == pytest.approx(wall, rel=0.10)

    def test_profiled_replay_is_bitwise_identical(self):
        import numpy as np

        plan = compile_plan(qft_circuit(8), 8)
        reference = plan.execute(plan.new_state())
        with profiler_installed(ReplayProfiler()):
            profiled = plan.execute(plan.new_state())
        assert np.array_equal(reference, profiled)

    def test_chunked_replay_records_every_step(self):
        """On the engine's threads each step is timed once, as a whole,
        under the same kernel class as in the serial replay."""
        from repro.simulator.parallel_engine import ParallelSimulationEngine

        plan = compile_plan(qft_circuit(8), 8, chunk_threshold=2)
        serial, chunked = ReplayProfiler(), ReplayProfiler()
        with profiler_installed(serial):
            plan.execute(plan.new_state())
        with ParallelSimulationEngine(num_threads=2) as engine:
            with profiler_installed(chunked):
                plan.execute(plan.new_state(), pool=engine)
        assert chunked.snapshot().total_calls == plan.n_steps
        assert set(chunked.snapshot().kernels) == set(serial.snapshot().kernels)

    def test_profiled_chunked_replay_is_bitwise_identical(self):
        import numpy as np

        from repro.simulator.parallel_engine import ParallelSimulationEngine

        plan = compile_plan(qft_circuit(8), 8, chunk_threshold=2)
        reference = plan.execute(plan.new_state())
        with ParallelSimulationEngine(num_threads=2) as engine:
            with profiler_installed(ReplayProfiler()):
                profiled = plan.execute(plan.new_state(), pool=engine)
        assert np.array_equal(reference, profiled)

    def test_unprofiled_replay_records_nothing(self):
        plan = compile_plan(qft_circuit(6), 6)
        profiler = ReplayProfiler()
        plan.execute(plan.new_state())  # profiler not installed
        assert not profiler.snapshot().kernels
