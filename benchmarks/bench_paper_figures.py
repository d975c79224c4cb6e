"""Paper-figures benchmark — at what kernel size do two threads beat one?

The source paper's claim is that two kernels on two user threads finish
sooner than the same two one after the other.  On an interpreter with a
global lock that is a property of the *kernel size*, so this script measures
where it holds on the host it runs on, in three parts:

* **Figures 3-5 in wall clock.**  The paper's own Bell / Shor tasks through
  :func:`~repro.core.executor.run_parallel` and ``run_one_by_one``: median
  round time of each, their ratio, and the voluntary context switches
  (``ru_nvcsw``) a round costs — the witness of a cross-core GIL hand-off
  per numpy call.
* **The size sweep.**  ``LocalBackend.execute`` on a 2-layer RY/CX ansatz at
  2 ... 20 qubits, jobs/s of {one thread; two threads, each on its own
  circuit, execution gate never taken; two threads, gate always taken},
  each the median of three cells taken in rotation.
  *gated / ungated* is the measurement the hand-off band
  (``HANDOFF_BAND_START`` / ``HANDOFF_BAND_STOP`` beside
  ``DEFAULT_CHUNK_THRESHOLD``) cites: a size belongs in the band iff the gate
  wins there by :data:`GATE_MARGIN`.  *ungated / solo* is the paper's
  contrast itself.  Each side is forced by patching the band constants from
  here, the way ``bench_chunked_replay.py`` forces its lanes with
  ``chunk_threshold=2`` — the program has no option for it.
* **Trajectory shot chunks**, pooled on ``sim-engine`` threads vs back to
  back on the calling thread, at 6 ... 16 qubits (same patching).

Everything is taken after a spin-up (:func:`spin_up`): the OS only spreads a
process's kernel threads over both cores a second or so into its life, and
every number here is different before that.

Acceptance: fixed-seed counts must be identical across the sides of every
comparison (parallel vs one-by-one at equal threads per task; solo / ungated
/ gated; pooled / inline).  Speed is recorded, never gated.

Run standalone (writes the ``BENCH_paper_figures.json`` trajectory file; the
tracked copy is the **full** run, ~10 min — pass ``--output`` elsewhere for a
quick one)::

    PYTHONPATH=src python benchmarks/bench_paper_figures.py [--quick]

or through pytest::

    PYTHONPATH=src python -m pytest benchmarks/bench_paper_figures.py -q
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import threading
import time
from pathlib import Path

import numpy as np

import repro.exec.backend as backend_module
import repro.simulator.parallel_engine as engine_module
from repro.benchmark import figure3_workload, figure4_workload, figure5_workload
from repro.config import configure
from repro.core.executor import run_one_by_one, run_parallel
from repro.exec import LocalBackend
from repro.ir.builder import CircuitBuilder
from repro.simulator.execution_plan import HANDOFF_BAND_START, HANDOFF_BAND_STOP
from repro.simulator.parallel_engine import ParallelSimulationEngine

#: The gate "wins" a sweep point when gated / ungated reaches this.
GATE_MARGIN = 1.05
SWEEP_QUBITS = tuple(range(2, 19)) + (20,)
QUICK_SWEEP_QUBITS = (4, 10, 15)
TRAJECTORY_QUBITS = (6, 8, 10, 12, 14, 16)
QUICK_TRAJECTORY_QUBITS = (6, 14)
SWEEP_SHOTS = 256
TRAJECTORY_SHOTS = 64
SEED = 1234
#: Band edges that put every / no state size inside the band.
EVERY_SIZE = (0, 1 << 62)
NO_SIZE = (0, 0)


def host_cores() -> int:
    return os.cpu_count() or 1


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _set_gate_band(band: tuple[int, int]) -> None:
    backend_module.HANDOFF_BAND_START, backend_module.HANDOFF_BAND_STOP = band


def _voluntary_switches() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_nvcsw


# ---------------------------------------------------------------------------
# Part 1: Figures 3-5, parallel vs one-by-one, after the threads have spread
# ---------------------------------------------------------------------------


def _timed_rounds(run, rounds: int) -> tuple[float, float]:
    """(median seconds, voluntary switches per round) over ``rounds`` calls."""
    samples = []
    switches = _voluntary_switches()
    for _ in range(rounds):
        started = time.perf_counter()
        run()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples), (_voluntary_switches() - switches) / rounds


def bench_figures(quick: bool) -> dict:
    rounds = 20 if quick else 200
    total = max(2, host_cores())
    figures = {
        "fig3": figure3_workload(),
        "fig4": figure4_workload(),
        "fig5": figure5_workload(),
    }
    points = []
    for name, workload in figures.items():
        tasks = workload.tasks
        per_task = max(1, total // len(tasks))
        # Same threads per task on both sides => same shot chunks => the
        # fixed-seed histograms must agree task for task.
        identical = (
            run_parallel(tasks, total).counts_by_task()
            == run_one_by_one(tasks, per_task).counts_by_task()
        )
        parallel, parallel_switches = _timed_rounds(
            lambda: run_parallel(tasks, total), rounds
        )
        serial, serial_switches = _timed_rounds(
            lambda: run_one_by_one(tasks, total), rounds
        )
        points.append(
            {
                "figure": name,
                "workload": workload.name,
                "n_qubits": [task.n_qubits for task in tasks],
                "parallel_seconds": parallel,
                "one_by_one_seconds": serial,
                "parallel_speedup": serial / parallel,
                "parallel_nvcsw_per_round": parallel_switches,
                "one_by_one_nvcsw_per_round": serial_switches,
                "counts_identical": identical,
            }
        )
    return {
        "workload": "figures_parallel_vs_one_by_one",
        "total_threads": total,
        "rounds": rounds,
        "statistic": "median",
        "points": points,
        "counts_identical": all(p["counts_identical"] for p in points),
    }


# ---------------------------------------------------------------------------
# Part 2: the size sweep that fixes the hand-off band
# ---------------------------------------------------------------------------


def ansatz_circuit(n_qubits: int, offset: float, layers: int = 2):
    """Hardware-efficient RY/CX ansatz; ``offset`` makes each thread's own."""
    builder = CircuitBuilder(n_qubits, name=f"ansatz_{n_qubits}q_{offset}")
    for layer in range(layers):
        for qubit in range(n_qubits):
            builder.ry(qubit, offset + 0.2 * layer + 0.05 * qubit)
        for qubit in range(n_qubits - 1):
            builder.cx(qubit, qubit + 1)
    builder.measure_all()
    return builder.build()


class _Crew:
    """Two long-lived threads that run one timed cell at a time.

    The threads outlive the cells so that every cell is measured in the
    process's steady scheduling mode (both cores in use), not in the first
    second of a new thread's life.
    """

    def __init__(self):
        self._backends = [
            LocalBackend(engine=ParallelSimulationEngine(num_threads=1)) for _ in range(2)
        ]
        # The timeout turns a worker that died mid-cell into an error, not a hang.
        self._sync = threading.Barrier(3, timeout=600)
        self._cell = None  # (circuits, active threads, seconds) or None to stop
        self._jobs = [0, 0]
        self._counts: list[dict | None] = [None, None]
        self._threads = [
            threading.Thread(target=self._work, args=(index,), daemon=True)
            for index in range(2)
        ]
        for thread in self._threads:
            thread.start()

    def _work(self, index: int) -> None:
        while True:
            self._sync.wait()
            if self._cell is None:
                return
            circuits, active, seconds = self._cell
            jobs, counts = 0, None
            if index < active:
                backend, circuit = self._backends[index], circuits[index]
                deadline = time.perf_counter() + seconds
                while True:  # at least one job, so a 0 s cell is a warm-up
                    counts = backend.execute(circuit, SWEEP_SHOTS, seed=SEED).counts
                    jobs += 1
                    if time.perf_counter() >= deadline:
                        break
            self._jobs[index], self._counts[index] = jobs, counts
            self._sync.wait()

    def run(self, circuits, active: int, seconds: float) -> tuple[float, list]:
        """Jobs per second summed over ``active`` threads, and their counts."""
        self._cell = (circuits, active, seconds)
        self._sync.wait()
        started = time.perf_counter()
        self._sync.wait()
        elapsed = time.perf_counter() - started
        return sum(self._jobs[:active]) / elapsed, self._counts[:active]

    def close(self) -> None:
        self._cell = None
        self._sync.wait()
        for thread in self._threads:
            thread.join(timeout=30)
        for backend in self._backends:
            backend.close()


#: The three sides of a sweep point: (name, band that forces it, threads).
SWEEP_SIDES = (("solo", NO_SIZE, 1), ("ungated", NO_SIZE, 2), ("gated", EVERY_SIZE, 2))


def bench_size_sweep(quick: bool) -> dict:
    seconds = 0.3 if quick else 2.5
    # A point near the margin flips on one cell (13 qubits read 0.96-1.16
    # over six single cells), so each side is the median of `repeats` cells
    # taken in rotation.
    repeats = 1 if quick else 3
    crew = _Crew()
    points = []
    try:
        for n_qubits in QUICK_SWEEP_QUBITS if quick else SWEEP_QUBITS:
            circuits = [ansatz_circuit(n_qubits, 0.1), ansatz_circuit(n_qubits, 0.3)]
            _set_gate_band(NO_SIZE)
            crew.run(circuits, 2, 0.0)  # compile both plans outside the cells
            cells = {side: [] for side, _, _ in SWEEP_SIDES}
            counts = {}
            for _ in range(repeats):
                for side, band, threads in SWEEP_SIDES:
                    _set_gate_band(band)
                    rate, counts[side] = crew.run(circuits, threads, seconds)
                    cells[side].append(rate)
            solo, ungated, gated = (statistics.median(cells[side]) for side, _, _ in SWEEP_SIDES)
            points.append(
                {
                    "n_qubits": n_qubits,
                    "solo_jobs_per_s": solo,
                    "ungated_jobs_per_s": ungated,
                    "gated_jobs_per_s": gated,
                    "gated_over_ungated": gated / ungated,
                    "ungated_over_solo": ungated / solo,
                    "cells_jobs_per_s": cells,
                    "counts_identical": counts["ungated"] == counts["gated"]
                    and counts["solo"][0] == counts["gated"][0],
                }
            )
    finally:
        _set_gate_band((HANDOFF_BAND_START, HANDOFF_BAND_STOP))
        crew.close()
    gate_wins = [p["n_qubits"] for p in points if p["gated_over_ungated"] >= GATE_MARGIN]
    contrast_from = None
    for point in reversed(points):
        if point["ungated_over_solo"] < 1.0:
            break
        contrast_from = point["n_qubits"]
    return {
        "workload": "gate_size_sweep",
        "circuit": "2-layer RY/CX ansatz, one per thread",
        "shots": SWEEP_SHOTS,
        "seconds_per_cell": seconds,
        "cells_per_side": repeats,
        "statistic": "median",
        "points": points,
        "gate_margin": GATE_MARGIN,
        "gate_wins_at_qubits": gate_wins,
        "two_threads_beat_one_from_qubits": contrast_from,
        "handoff_band_start": HANDOFF_BAND_START,
        "handoff_band_stop": HANDOFF_BAND_STOP,
        "counts_identical": all(p["counts_identical"] for p in points),
    }


# ---------------------------------------------------------------------------
# Part 3: trajectory shot chunks, pooled vs inline
# ---------------------------------------------------------------------------


def reset_circuit(n_qubits: int):
    builder = CircuitBuilder(n_qubits, name=f"reset_{n_qubits}q")
    for qubit in range(n_qubits):
        builder.ry(qubit, 0.3 + 0.07 * qubit)
    for qubit in range(n_qubits - 1):
        builder.cx(qubit, qubit + 1)
    builder.reset(n_qubits - 1).h(n_qubits - 1).cx(n_qubits - 1, 0)
    builder.measure_all()
    return builder.build()


def bench_trajectory_chunks(quick: bool) -> dict:
    rounds = 3 if quick else 7
    points = []
    shipped = engine_module.HANDOFF_BAND_STOP
    try:
        for n_qubits in QUICK_TRAJECTORY_QUBITS if quick else TRAJECTORY_QUBITS:
            circuit = reset_circuit(n_qubits)
            sides = {}
            for side, stop in (("pooled", 0), ("inline", 1 << 62)):
                engine_module.HANDOFF_BAND_STOP = stop
                with ParallelSimulationEngine(num_threads=2) as engine:
                    samples = []
                    for _ in range(rounds + 1):  # the first run builds the pool
                        started = time.perf_counter()
                        counts = engine.run_trajectories(
                            n_qubits, circuit, TRAJECTORY_SHOTS, seed=SEED
                        )
                        samples.append(time.perf_counter() - started)
                sides[side] = (statistics.median(samples[1:]), counts)
            points.append(
                {
                    "n_qubits": n_qubits,
                    "pooled_seconds": sides["pooled"][0],
                    "inline_seconds": sides["inline"][0],
                    "pooled_over_inline": sides["pooled"][0] / sides["inline"][0],
                    "counts_identical": sides["pooled"][1] == sides["inline"][1],
                }
            )
    finally:
        engine_module.HANDOFF_BAND_STOP = shipped
    return {
        "workload": "trajectory_chunks_pooled_vs_inline",
        "shots": TRAJECTORY_SHOTS,
        "threads": 2,
        "rounds": rounds,
        "statistic": "median",
        "points": points,
        "inline_below_amplitudes": shipped,
        "counts_identical": all(p["counts_identical"] for p in points),
    }


def spin_up(seconds: float) -> None:
    """Run two kernel threads until the process is in its steady mode.

    About a second and a half into a process the OS spreads its runnable
    threads over both cores, and from then on every GIL-releasing numpy call
    on a small state is a cross-core hand-off (at commit 967d495 a round of
    the three figures went from 18 to 110-170 voluntary switches and from 11
    to 17 ms).  A 15 s run spends > 90 % of its time in that mode, and it
    persists through idle and single-threaded stretches, so every part
    below is measured in it.
    """
    tasks = figure4_workload().tasks
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        run_parallel(tasks, max(2, host_cores()))


def run_suite(quick: bool = False) -> dict:
    spin_up_seconds = 0.3 if quick else 3.0
    spin_up(spin_up_seconds)
    with configure(seed=SEED):
        figures = bench_figures(quick)
    sweep = bench_size_sweep(quick)
    chunks = bench_trajectory_chunks(quick)
    return {
        "benchmark": "paper_figures",
        "quick": quick,
        "created_unix": time.time(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpu_model": cpu_model(),
        "cpu_count": host_cores(),
        "spin_up_seconds": spin_up_seconds,
        "results": [figures, sweep, chunks],
        "counts_identity_all": bool(
            figures["counts_identical"]
            and sweep["counts_identical"]
            and chunks["counts_identical"]
        ),
    }


def write_trajectory_file(report: dict, output: Path) -> None:
    output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


def _report_lines(report: dict) -> list[str]:
    figures, sweep, chunks = report["results"]
    lines = [
        f"figures 3-5, {figures['total_threads']} threads, median of "
        f"{figures['rounds']} rounds after a {report['spin_up_seconds']} s spin-up:"
    ]
    lines += [
        f"  {p['figure']}  parallel {1e3 * p['parallel_seconds']:6.2f} ms "
        f"({p['parallel_nvcsw_per_round']:5.1f} nvcsw)  one-by-one "
        f"{1e3 * p['one_by_one_seconds']:6.2f} ms ({p['one_by_one_nvcsw_per_round']:5.1f})"
        f"  speed-up {p['parallel_speedup']:.2f}"
        for p in figures["points"]
    ]
    lines.append(
        f"size sweep, jobs/s, median of {sweep['cells_per_side']} cells "
        "(solo | 2 thr ungated | 2 thr gated):"
    )
    lines += [
        f"  {p['n_qubits']:>2} q  {p['solo_jobs_per_s']:8.1f} | {p['ungated_jobs_per_s']:8.1f}"
        f" | {p['gated_jobs_per_s']:8.1f}   gated/ungated {p['gated_over_ungated']:.2f}"
        f"   ungated/solo {p['ungated_over_solo']:.2f}"
        for p in sweep["points"]
    ]
    lines.append(
        f"gate wins >= {GATE_MARGIN}x at {sweep['gate_wins_at_qubits']} qubits (shipped band "
        f"[{sweep['handoff_band_start']}, {sweep['handoff_band_stop']}) amplitudes); two "
        f"threads beat one from {sweep['two_threads_beat_one_from_qubits']} qubits"
    )
    lines.append(f"trajectory chunks, {chunks['shots']} shots, 2 threads (pooled | inline):")
    lines += [
        f"  {p['n_qubits']:>2} q  {1e3 * p['pooled_seconds']:8.2f} ms | "
        f"{1e3 * p['inline_seconds']:8.2f} ms   pooled/inline {p['pooled_over_inline']:.2f}"
        for p in chunks["points"]
    ]
    lines.append(f"counts identical on every side: {report['counts_identity_all']}")
    return lines


def test_paper_figures_sweep_and_identity(tmp_path):
    """Acceptance: fixed-seed counts agree across the sides of every
    comparison.  Quick runs record speed only, and write beside the test,
    not over the tracked full-run file."""
    report = run_suite(quick=True)
    write_trajectory_file(report, tmp_path / "BENCH_paper_figures.json")
    print("\n" + "\n".join(_report_lines(report)))
    assert report["counts_identity_all"], report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="three sizes, short cells")
    parser.add_argument(
        "--output",
        type=Path,
        default=Path("BENCH_paper_figures.json"),
        help="where to write the JSON trajectory file",
    )
    args = parser.parse_args()
    report = run_suite(quick=args.quick)
    write_trajectory_file(report, args.output)
    print("\n".join(_report_lines(report)))
    print(f"wrote {args.output}")
    return 0 if report["counts_identity_all"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
