"""The paper's kernels, built once and handed off once — pinned.

Three things are checked here:

* **Identity.**  The digests in ``GOLDEN_FIGURES`` / ``GOLDEN_RESETS`` were
  recorded at commit 967d495, before a kernel task kept its circuit, before
  in-band dense kernels took the execution gate and before sub-edge
  trajectory chunks ran inline: sha256 over the ordered ``(key, count)``
  items of every Figure 3-5 task through both variants, and of reset
  circuits at three widths and three thread counts.  None of the three
  changes may move a count or a key order.  They hold at sampling stream 2;
  the three 12-qubit reset digests were re-recorded there (one-shot
  trajectory draws over 4096 bins moved to inverse CDF), the rest were
  unmoved by it.  Stream 4 (one draw per job) re-recorded every row drawn
  on more than one thread — the one-by-one figure rows and the two- and
  three-thread reset rows — to the one-thread values.
* **Work bounds** the parent fails: a task builds and hashes its circuit
  once however often it runs, and a small reset job starts no worker thread.
* **The gate**: in-band dense kernels never overlap one another or a tableau
  job, out-of-band ones still do, and a job queued behind the gate honours
  its deadline without replaying and reports its own work, not its wait.
"""

from __future__ import annotations

import hashlib
import json
import sys
import threading
import time

import pytest

import repro.ir.serialization as serialization
from repro.benchmark import figure3_workload, figure4_workload, figure5_workload
from repro.cancellation import CancelToken, cancel_scope
from repro.config import set_config
from repro.core.executor import run_one_by_one, run_parallel
from repro.exceptions import DeadlineExceeded
from repro.exec import LocalBackend, StabilizerBackend
from repro.exec.backend import execution_gate
from repro.algorithms.ghz import ghz_circuit
from repro.ir.builder import CircuitBuilder
from repro.simulator.execution_plan import HANDOFF_BAND_START, HANDOFF_BAND_STOP
from repro.simulator.parallel_engine import ParallelSimulationEngine
from repro.simulator.sampling import SAMPLING_STREAM
from repro.simulator.statevector import StateVector

#: Widths on either side of the band and inside it.
BELOW_BAND = 4
IN_BAND = 10
ABOVE_BAND = 15


def test_the_probe_widths_sit_where_their_names_say():
    assert (1 << BELOW_BAND) < HANDOFF_BAND_START <= (1 << IN_BAND)
    assert (1 << IN_BAND) < HANDOFF_BAND_STOP <= (1 << ABOVE_BAND)


def digest(counts) -> str:
    items = json.dumps(list(counts.items()), separators=(",", ":"))
    return hashlib.sha256(items.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Identity: digests recorded at the parent
# ---------------------------------------------------------------------------


def figure_digests(seed: int) -> dict[str, str]:
    set_config(seed=seed)
    served = {}
    for name, workload in (
        ("fig3", figure3_workload()),
        ("fig4", figure4_workload()),
        ("fig5", figure5_workload()),
    ):
        for variant, run in (("parallel", run_parallel), ("one_by_one", run_one_by_one)):
            first = {r.name: digest(r.counts) for r in run(workload.tasks, 2).results}
            # The second run is served by each task's kept circuit.
            assert {r.name: digest(r.counts) for r in run(workload.tasks, 2).results} == first
            served.update({f"{name}/{variant}/{task}": d for task, d in first.items()})
    return served


def reset_circuit(n_qubits: int):
    builder = CircuitBuilder(n_qubits, name=f"paper_reset_{n_qubits}")
    for qubit in range(n_qubits):
        builder.ry(qubit, 0.37 * (qubit + 1))
    for qubit in range(n_qubits - 1):
        builder.cx(qubit, qubit + 1)
    builder.reset(n_qubits - 1).h(n_qubits - 1).cx(n_qubits - 1, 0)
    return builder.measure_all().build()


def reset_digests() -> dict[str, str]:
    served = {}
    for n_qubits in (6, 8, 12):
        circuit = reset_circuit(n_qubits)
        for threads in (1, 2, 3):
            with LocalBackend(engine=ParallelSimulationEngine(num_threads=threads)) as backend:
                counts = backend.execute(circuit, 64, seed=1234).counts
            served[f"{n_qubits}q/threads{threads}"] = digest(counts)
    return served


GOLDEN_FIGURES = {
    0: {
        "fig3/one_by_one/bell_0": "15cb8ffabfe10fbf",
        "fig3/one_by_one/bell_1": "15cb8ffabfe10fbf",
        "fig3/parallel/bell_0": "15cb8ffabfe10fbf",
        "fig3/parallel/bell_1": "15cb8ffabfe10fbf",
        "fig4/one_by_one/shor_N15_a2": "a2c0e9457e6c8b06",
        "fig4/one_by_one/shor_N15_a7": "a2c0e9457e6c8b06",
        "fig4/parallel/shor_N15_a2": "a2c0e9457e6c8b06",
        "fig4/parallel/shor_N15_a7": "a2c0e9457e6c8b06",
        "fig5/one_by_one/shor_N7_a2_0": "d541271910bae03d",
        "fig5/one_by_one/shor_N7_a2_1": "d541271910bae03d",
        "fig5/parallel/shor_N7_a2_0": "d541271910bae03d",
        "fig5/parallel/shor_N7_a2_1": "d541271910bae03d",
    },
    1234: {
        "fig3/one_by_one/bell_0": "cd39a80310fae0c6",
        "fig3/one_by_one/bell_1": "cd39a80310fae0c6",
        "fig3/parallel/bell_0": "cd39a80310fae0c6",
        "fig3/parallel/bell_1": "cd39a80310fae0c6",
        "fig4/one_by_one/shor_N15_a2": "a55ed328b73e72dc",
        "fig4/one_by_one/shor_N15_a7": "a55ed328b73e72dc",
        "fig4/parallel/shor_N15_a2": "a55ed328b73e72dc",
        "fig4/parallel/shor_N15_a7": "a55ed328b73e72dc",
        "fig5/one_by_one/shor_N7_a2_0": "1535afe3c1a5fd15",
        "fig5/one_by_one/shor_N7_a2_1": "1535afe3c1a5fd15",
        "fig5/parallel/shor_N7_a2_0": "1535afe3c1a5fd15",
        "fig5/parallel/shor_N7_a2_1": "1535afe3c1a5fd15",
    },
}
GOLDEN_RESETS = {
    "6q/threads1": "3c45c0e6e2bd6ee3",
    "6q/threads2": "3c45c0e6e2bd6ee3",
    "6q/threads3": "3c45c0e6e2bd6ee3",
    "8q/threads1": "450329239f8d73ca",
    "8q/threads2": "450329239f8d73ca",
    "8q/threads3": "450329239f8d73ca",
    "12q/threads1": "91917da3c15f9275",
    "12q/threads2": "91917da3c15f9275",
    "12q/threads3": "91917da3c15f9275",
}


@pytest.mark.parametrize("seed", sorted(GOLDEN_FIGURES))
def test_figure_task_histograms_are_byte_identical_to_the_parent(seed):
    # The one-by-one rows (two threads a task) moved once, at stream 4.
    assert SAMPLING_STREAM == 4
    assert figure_digests(seed) == GOLDEN_FIGURES[seed]


def test_reset_circuit_histograms_are_byte_identical_to_the_parent():
    # The two- and three-thread rows moved once, at stream 4.
    assert SAMPLING_STREAM == 4
    assert reset_digests() == GOLDEN_RESETS


# ---------------------------------------------------------------------------
# One circuit object per task
# ---------------------------------------------------------------------------


def test_a_task_builds_its_circuit_once_and_shares_it_with_no_other_task():
    first, second = figure5_workload().tasks  # two tasks, equal circuits
    assert first.build_circuit() is first.build_circuit()
    assert first.build_circuit() is not second.build_circuit()
    assert first.build_circuit() == second.build_circuit()


def test_rounds_after_the_first_neither_build_nor_hash_a_circuit(monkeypatch):
    """Work bound the parent fails (it builds and hashes per run: 50 each)."""
    workload = figure4_workload()
    built = {task.name: 0 for task in workload.tasks}
    for task in workload.tasks:
        def counting_factory(factory=task.circuit_factory, name=task.name):
            built[name] += 1
            return factory()

        task.circuit_factory = counting_factory
    hashed = []
    real_hash = serialization._content_hash

    def counting_hash(circuit, include_name):
        hashed.append(circuit)
        return real_hash(circuit, include_name)

    monkeypatch.setattr(serialization, "_content_hash", counting_hash)
    for _ in range(50):
        run_parallel(workload.tasks, 2)
    assert built == {task.name: 1 for task in workload.tasks}
    assert len(hashed) == len(workload.tasks)


def test_a_small_reset_job_starts_no_engine_thread():
    """Work bound the parent fails (it pools the two shot chunks)."""
    engine = ParallelSimulationEngine(num_threads=2)
    before = set(threading.enumerate())
    with LocalBackend(engine=engine) as backend:
        counts = backend.execute(reset_circuit(8), 64, seed=1).counts
        started = [t.name for t in set(threading.enumerate()) - before]
        assert engine._pool is None
    assert sum(counts.values()) == 64
    assert not [name for name in started if name.startswith("sim-engine")]


# ---------------------------------------------------------------------------
# The execution gate
# ---------------------------------------------------------------------------


def ansatz(n_qubits: int, offset: float):
    builder = CircuitBuilder(n_qubits, name=f"paper_gate_{n_qubits}_{offset}")
    for qubit in range(n_qubits):
        builder.ry(qubit, offset + 0.05 * qubit)
    for qubit in range(n_qubits - 1):
        builder.cx(qubit, qubit + 1)
    return builder.measure_all().build()


class _ReplayProbe:
    """Wraps ``StateVector.apply_plan`` to see which replays overlap."""

    def __init__(self, monkeypatch, rendezvous: threading.Barrier | None = None):
        self.widths: list[int] = []
        self.peak = 0
        self._active = 0
        self._lock = threading.Lock()
        real = StateVector.apply_plan

        def apply_plan(state, *args, **kwargs):
            with self._lock:
                self.widths.append(state.n_qubits)
                self._active += 1
                self.peak = max(self.peak, self._active)
            try:
                if rendezvous is not None:
                    rendezvous.wait(timeout=30)  # passes only if two replays overlap
                else:
                    time.sleep(0.001)  # drops the GIL: an ungated peer would enter
                return real(state, *args, **kwargs)
            finally:
                with self._lock:
                    self._active -= 1

        monkeypatch.setattr(StateVector, "apply_plan", apply_plan)


def _run_threads(targets) -> None:
    threads = [threading.Thread(target=target) for target in targets]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)


def test_in_band_replays_never_overlap(monkeypatch):
    probe = _ReplayProbe(monkeypatch)
    circuits = [ansatz(IN_BAND, 0.1 * (index + 1)) for index in range(4)]
    backend = LocalBackend(engine=ParallelSimulationEngine(num_threads=1))
    expected = [backend.execute(circuit, 64, seed=3).counts for circuit in circuits]
    results = [None] * len(circuits)

    def job(index):
        def run():
            for _ in range(5):
                results[index] = backend.execute(circuits[index], 64, seed=3).counts

        return run

    _run_threads([job(index) for index in range(len(circuits))])
    assert results == expected
    assert len(probe.widths) == 4 + 4 * 5
    assert probe.peak == 1


@pytest.mark.parametrize("width", [BELOW_BAND, ABOVE_BAND])
def test_out_of_band_replays_still_overlap(monkeypatch, width):
    """Guard: outside the band two threads are inside a replay at once."""
    circuits = [ansatz(width, 0.1), ansatz(width, 0.2)]
    backend = LocalBackend(engine=ParallelSimulationEngine(num_threads=1))
    for circuit in circuits:
        backend.execute(circuit, 64, seed=3)
    probe = _ReplayProbe(monkeypatch, rendezvous=threading.Barrier(2))
    _run_threads(
        [lambda c=circuit: backend.execute(c, 64, seed=3) for circuit in circuits]
    )
    assert probe.peak == 2


def test_a_dense_in_band_job_and_a_tableau_job_exclude_each_other(monkeypatch):
    dense = LocalBackend(engine=ParallelSimulationEngine(num_threads=1))
    tableau = StabilizerBackend()
    circuit = ansatz(IN_BAND, 0.3)
    dense.execute(circuit, 16, seed=1)
    holding, release = threading.Event(), threading.Event()
    real_evolve = StabilizerBackend._evolve

    def held_evolve(table, program):
        if table.n == 6:  # the long tableau job: sit inside the gate
            holding.set()
            assert release.wait(timeout=30)
        real_evolve(table, program)

    monkeypatch.setattr(StabilizerBackend, "_evolve", staticmethod(held_evolve))
    long_job = threading.Thread(target=tableau.execute, args=(ghz_circuit(6), 16))
    long_job.start()
    try:
        assert holding.wait(timeout=30)
        with pytest.raises(DeadlineExceeded):
            with cancel_scope(CancelToken(timeout=0.05)):
                dense.execute(circuit, 16, seed=1)
        # A below-band dense job does not queue behind the tableau.
        assert dense.execute(ansatz(BELOW_BAND, 0.3), 16, seed=1).counts
    finally:
        release.set()
        long_job.join(timeout=30)
    assert not long_job.is_alive()
    # ... and the other way round: a dense in-band job holds the tableau off.
    holding.clear()
    release.clear()
    real_apply = StateVector.apply_plan

    def held_apply(state, *args, **kwargs):
        holding.set()
        assert release.wait(timeout=30)
        return real_apply(state, *args, **kwargs)

    monkeypatch.setattr(StateVector, "apply_plan", held_apply)
    long_job = threading.Thread(target=dense.execute, args=(circuit, 16))
    long_job.start()
    try:
        assert holding.wait(timeout=30)
        with pytest.raises(DeadlineExceeded):
            with cancel_scope(CancelToken(timeout=0.05)):
                tableau.execute(ghz_circuit(5), 16, seed=1)
    finally:
        release.set()
        long_job.join(timeout=30)
    assert not long_job.is_alive()


def test_deadline_passing_at_the_gate_raises_without_replaying(monkeypatch):
    """Typed error, bounded wait, no replay, gate left usable."""
    backend = LocalBackend(engine=ParallelSimulationEngine(num_threads=1))
    circuit = ansatz(IN_BAND, 0.4)
    expected = backend.execute(circuit, 64, seed=5).counts
    probe = _ReplayProbe(monkeypatch)
    started = time.perf_counter()
    with execution_gate(None):  # a plain lock: held here, held by "another job"
        with pytest.raises(DeadlineExceeded):
            with cancel_scope(CancelToken(timeout=0.05)):
                backend.execute(circuit, 64, seed=5)
    waited = time.perf_counter() - started
    assert 0.04 <= waited < 2.0
    assert probe.widths == []
    # The gate was handed back: the next job runs.
    assert backend.execute(circuit, 64, seed=5).counts == expected
    assert probe.widths == [IN_BAND]


def test_reported_seconds_exclude_the_wait_at_the_gate():
    backend = LocalBackend(engine=ParallelSimulationEngine(num_threads=1))
    circuit = ansatz(IN_BAND, 0.5)
    backend.execute(circuit, 16, seed=1)
    holding = threading.Event()

    def another_job():
        with execution_gate(None):
            holding.set()
            time.sleep(0.3)

    holder = threading.Thread(target=another_job)
    holder.start()
    assert holding.wait(timeout=30)
    started = time.perf_counter()
    result = backend.execute(circuit, 16, seed=1)
    wall = time.perf_counter() - started
    holder.join(timeout=30)
    assert wall >= 0.25
    assert result.seconds < 0.1
