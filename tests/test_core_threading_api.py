"""Tests for qcor_thread / qcor_async / TaskGroup and thread-safety helpers."""

import os
import threading

import pytest

import repro
from repro.algorithms.bell import bell_kernel
from repro.benchmark import figure3_workload
from repro.core.executor import run_parallel
from repro.core.qpu_manager import QPUManager
from repro.core.thread_safety import GlobalLockRegistry, synchronized
from repro.core.threading_api import TaskGroup, qcor_async, qcor_thread
from repro.parallel.thread_tools import join_all, std_async, std_thread


def bell_task(shots: int = 64) -> dict[str, int]:
    q = repro.qalloc(2)
    return bell_kernel(q, shots=shots)


class TestQcorThread:
    def test_thread_runs_kernel_with_auto_initialization(self):
        results = {}

        def target():
            results["counts"] = bell_task()

        thread = qcor_thread(target)
        thread.join()
        assert sum(results["counts"].values()) == 64

    def test_each_thread_gets_its_own_qpu_instance(self):
        seen = []
        barrier = threading.Barrier(3)

        def target():
            barrier.wait(timeout=10)
            seen.append(id(repro.get_qpu()))
            bell_task(16)

        threads = [qcor_thread(target) for _ in range(3)]
        join_all(threads)
        assert len(set(seen)) == 3

    def test_thread_registration_cleaned_up_after_target_returns(self):
        thread = qcor_thread(bell_task, 16)
        thread.join()
        assert QPUManager.get_instance().active_thread_count() == 0

    def test_listing4_two_threads_in_parallel(self):
        """The paper's Listing 4: two Bell kernels on two threads."""
        outputs = []

        def foo():
            outputs.append(bell_task(128))

        t0 = qcor_thread(foo)
        t1 = qcor_thread(foo)
        t0.join()
        t1.join()
        assert len(outputs) == 2
        for counts in outputs:
            assert sum(counts.values()) == 128
            assert set(counts) <= {"00", "11"}

    def test_accelerator_options_forwarded(self):
        captured = {}

        def target():
            captured["threads"] = repro.get_qpu().num_threads

        qcor_thread(target, options={"threads": 3}).join()
        assert captured["threads"] == 3


class TestQcorAsync:
    def test_listing5_async_launch(self):
        """The paper's Listing 5: async launch returning a future."""
        future = qcor_async(lambda: (bell_task(64), 1)[1])
        assert future.result(timeout=30) == 1

    def test_future_propagates_return_value(self):
        future = qcor_async(bell_task, 32)
        counts = future.result(timeout=30)
        assert sum(counts.values()) == 32

    def test_future_propagates_exceptions(self):
        def boom():
            raise ValueError("kernel failed")

        future = qcor_async(boom)
        with pytest.raises(ValueError):
            future.result(timeout=30)

    def test_many_concurrent_async_tasks(self):
        futures = [qcor_async(bell_task, 16) for _ in range(8)]
        results = [f.result(timeout=60) for f in futures]
        assert all(sum(r.values()) == 16 for r in results)


class TestAsyncPool:
    """One pool for ``qcor_async`` and ``std_async``: one worker per core,
    all started by the first call, so it cannot grow afterwards.  (The parent
    kept two lazily growing 32-worker pools: a submit that landed between a
    worker publishing its result and counting itself idle started one more
    thread, long after set-up.)"""

    def test_pool_is_full_after_the_first_call_and_never_grows(self):
        qcor_async(lambda: None).result(timeout=30)
        workers = [t for t in threading.enumerate() if t.name.startswith("qcor-async")]
        assert len(workers) == (os.cpu_count() or 1)
        threads = threading.active_count()
        tasks = figure3_workload().tasks
        for _ in range(500):
            run_parallel(tasks, 2)
        assert std_async(lambda: 42).result(timeout=30) == 42
        assert threading.active_count() == threads

    def test_more_tasks_than_workers_queue_and_complete(self):
        n_tasks = 4 * (os.cpu_count() or 1)
        with TaskGroup() as group:
            group.launch_all(bell_task, [(8,)] * n_tasks)
        results = group.results(timeout=60)
        assert [sum(counts.values()) for counts in results] == [8] * n_tasks


class TestTaskGroup:
    def test_launch_and_results_in_order(self):
        with TaskGroup() as group:
            group.launch(lambda x: x * 2, 1)
            group.launch(lambda x: x * 2, 2)
            group.launch(lambda x: x * 2, 3)
        assert group.results() == [2, 4, 6]

    def test_launch_all(self):
        group = TaskGroup()
        group.launch_all(lambda a, b: a + b, [(1, 2), (3, 4)])
        assert group.results() == [3, 7]

    def test_kernel_tasks_in_group(self):
        with TaskGroup(shots=32) as group:
            group.launch(bell_task, 32)
            group.launch(bell_task, 32)
        for counts in group.results():
            assert sum(counts.values()) == 32

    def test_futures_property(self):
        group = TaskGroup()
        group.launch(lambda: 1)
        assert len(group.futures) == 1


class TestStdAnalogues:
    def test_std_thread_starts_immediately(self):
        flag = threading.Event()
        thread = std_thread(flag.set)
        thread.join()
        assert flag.is_set()

    def test_std_async_returns_future(self):
        assert std_async(lambda: 41 + 1).result(timeout=10) == 42


class TestSynchronized:
    def test_synchronized_serialises_concurrent_calls(self):
        counter = {"value": 0}

        @synchronized("test-lock")
        def increment():
            current = counter["value"]
            # A tiny window that would lose updates without the lock.
            for _ in range(100):
                pass
            counter["value"] = current + 1

        threads = [threading.Thread(target=lambda: [increment() for _ in range(50)]) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter["value"] == 400

    def test_named_locks_are_shared(self):
        assert GlobalLockRegistry.get("shared") is GlobalLockRegistry.get("shared")
        assert GlobalLockRegistry.get("a") is not GlobalLockRegistry.get("b")
        assert "shared" in GlobalLockRegistry.known_locks()

    def test_synchronized_preserves_return_value_and_name(self):
        @synchronized()
        def answer():
            """Docstring preserved."""
            return 42

        assert answer() == 42
        assert answer.__doc__ == "Docstring preserved."
