"""Chunked-replay benchmark — where chunk-parallel replay starts to pay.

Measures the two large-state execution-plan mechanisms:

* **Chunk-parallel replay vs serial replay, as a sweep.**  Fused plans of
  the two ``large_state`` circuit shapes (an RY/CX ansatz and a QFT behind
  an RY layer) at 16 / 17 / 18 / 20 / 21 / 22 qubits, replayed serially and with
  every kernel split across a
  :class:`~repro.simulator.parallel_engine.ParallelSimulationEngine` worker
  pool (chunking is forced with ``chunk_threshold=2``).  The sweep is the
  measurement ``DEFAULT_CHUNK_THRESHOLD`` cites: ``crossover_amplitudes`` is
  the smallest state size from which chunking wins by
  :data:`CROSSOVER_MARGIN` on *both* shapes at every larger size measured.
* **Diagonal batching**: the QFT's CPHASE ladders collapsed into combined
  product-diagonal steps — reported as the plan step-count reduction.

Acceptance: chunked amplitudes must be **bitwise identical** to the serial
replay at every point of the sweep, the QFT step count must shrink,
fixed-seed counts must be identical with chunking disabled and forced across
bell/ghz/qft/shor/vqe on every backend (local, density, sharded), and
replaying the unbatched and the batched plan of each circuit must sample the
same fixed-seed counts — all enforced everywhere.  Speed is recorded, never gated, on hosts with fewer
than 4 cores and in ``--quick`` runs (which stop at 16 qubits, below any
crossover measured so far); a full run on a >= 4-core host must show the
>= 1.5x chunked speedup at the largest size.

Run standalone (writes the ``BENCH_chunked_replay.json`` trajectory file)::

    PYTHONPATH=src python benchmarks/bench_chunked_replay.py [--quick]

or through pytest::

    PYTHONPATH=src python -m pytest benchmarks/bench_chunked_replay.py -q
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import time
from pathlib import Path

import numpy as np

from repro.algorithms.bell import bell_circuit
from repro.algorithms.ghz import ghz_circuit
from repro.algorithms.qft import qft_circuit
from repro.algorithms.shor import period_finding_circuit
from repro.algorithms.vqe import deuteron_ansatz_circuit
from repro.exec import DensityBackend, LocalBackend, ShardedExecutor
from repro.ir.builder import CircuitBuilder
from repro.simulator.execution_plan import DEFAULT_CHUNK_THRESHOLD, compile_plan
from repro.simulator.parallel_engine import ParallelSimulationEngine
from repro.simulator.sampling import sample_counts

SPEEDUP_TARGET = 1.5
#: The 1.5x chunked-replay target only binds where threads can win.
MIN_CORES_FOR_TARGET = 4
#: Chunking "wins" a sweep point when serial / chunked reaches this.
CROSSOVER_MARGIN = 1.2
SWEEP_QUBITS = (16, 17, 18, 20, 21, 22)
QUICK_SWEEP_QUBITS = (14, 16)


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


def threshold_enforced(quick: bool) -> bool:
    return host_cores() >= MIN_CORES_FOR_TARGET and not quick


# ---------------------------------------------------------------------------
# Workload: the two large_state circuit shapes, replayed serial vs chunked
# ---------------------------------------------------------------------------


def ansatz_circuit(n_qubits: int, layers: int = 2):
    """Hardware-efficient RY/CX ansatz: block + permutation kernels."""
    builder = CircuitBuilder(n_qubits, name=f"ansatz_{n_qubits}q")
    for layer in range(layers):
        for qubit in range(n_qubits):
            builder.ry(qubit, 0.1 + 0.2 * layer + 0.05 * qubit)
        for qubit in range(n_qubits - 1):
            builder.cx(qubit, qubit + 1)
    return builder.build()


def qft_behind_ry_circuit(n_qubits: int):
    """An RY layer, then the QFT: block, single, diagonal and swap kernels."""
    builder = CircuitBuilder(n_qubits, name=f"qft_ry_{n_qubits}q")
    for qubit in range(n_qubits):
        builder.ry(qubit, 0.3 + 0.07 * qubit)
    builder.append(qft_circuit(n_qubits))
    return builder.build()


def _median_of(rounds: int, fn) -> float:
    samples = []
    for _ in range(rounds):
        started = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def bench_chunked_sweep(quick: bool) -> dict:
    rounds = 3 if quick else 5
    workers = min(4, max(2, host_cores()))
    points = []
    with ParallelSimulationEngine(num_threads=workers) as engine:
        for n_qubits in QUICK_SWEEP_QUBITS if quick else SWEEP_QUBITS:
            for shape, build in (
                ("ansatz", ansatz_circuit),
                ("qft", qft_behind_ry_circuit),
            ):
                # Default (fused) compile; chunk_threshold=2 forces the pool.
                plan = compile_plan(build(n_qubits), n_qubits, chunk_threshold=2)
                serial_state = plan.execute(plan.new_state())
                chunked_state = plan.execute(plan.new_state(), pool=engine)
                identical = bool(np.array_equal(serial_state, chunked_state))
                del serial_state, chunked_state
                serial = _median_of(
                    rounds, lambda: plan.execute(plan.new_state())
                )
                chunked = _median_of(
                    rounds, lambda: plan.execute(plan.new_state(), pool=engine)
                )
                points.append(
                    {
                        "n_qubits": n_qubits,
                        "shape": shape,
                        "plan_steps": plan.n_steps,
                        "kernels": dict(plan.kernel_counts()),
                        "serial_seconds": serial,
                        "chunked_seconds": chunked,
                        "speedup": serial / chunked,
                        "amplitudes_bitwise_identical": identical,
                    }
                )
    sizes = sorted({p["n_qubits"] for p in points})
    wins = {
        n: all(
            p["speedup"] >= CROSSOVER_MARGIN for p in points if p["n_qubits"] == n
        )
        for n in sizes
    }
    crossover = None
    for n in reversed(sizes):
        if not wins[n]:
            break
        crossover = 1 << n
    largest = [p for p in points if p["n_qubits"] == sizes[-1]]
    return {
        "workload": "serial_vs_chunked_sweep",
        "workers": workers,
        "rounds": rounds,
        "statistic": "median",
        "points": points,
        "crossover_margin": CROSSOVER_MARGIN,
        "crossover_amplitudes": crossover,
        "default_chunk_threshold": DEFAULT_CHUNK_THRESHOLD,
        "amplitudes_bitwise_identical": all(
            p["amplitudes_bitwise_identical"] for p in points
        ),
        "speedup_at_largest": min(p["speedup"] for p in largest),
        "target": SPEEDUP_TARGET,
        "target_enforced": threshold_enforced(quick),
    }


# ---------------------------------------------------------------------------
# Diagonal batching: QFT step-count reduction
# ---------------------------------------------------------------------------


def bench_qft_step_reduction(n_qubits: int = 16) -> dict:
    circuit = qft_circuit(n_qubits)
    unbatched = compile_plan(circuit, n_qubits, batch_diagonals=False)
    batched = compile_plan(circuit, n_qubits)
    return {
        "workload": "qft_diagonal_batching",
        "n_qubits": n_qubits,
        "unbatched_steps": unbatched.n_steps,
        "batched_steps": batched.n_steps,
        "diagonals_absorbed": batched.batched_diagonals,
        "step_reduction": 1.0 - batched.n_steps / unbatched.n_steps,
    }


# ---------------------------------------------------------------------------
# Acceptance identity: chunking and batching never move a count
# ---------------------------------------------------------------------------


def algorithm_suite():
    shor = period_finding_circuit(15, 2)
    vqe = deuteron_ansatz_circuit(0.59)
    return {
        "bell": (bell_circuit(2), 2),
        "ghz": (ghz_circuit(5), 5),
        "qft": (qft_circuit(6), 6),
        "shor": (shor, shor.n_qubits),
        "vqe": (vqe, max(vqe.n_qubits, 2)),
    }


def replayed_counts(plan, shots: int, seed: int) -> dict[str, int]:
    """Fixed-seed counts sampled from one serial replay of ``plan``."""
    data = plan.execute(plan.new_state())
    measured = plan.measured_qubits or tuple(range(plan.n_qubits))
    rng = np.random.default_rng(seed)
    return sample_counts(np.abs(data) ** 2, shots, measured, plan.n_qubits, rng)


def check_identity(shots: int = 512, seed: int = 1234) -> dict:
    """Per backend: counts with chunking disabled vs forced.  Chunking is
    bitwise-neutral, so the histograms must be identical — local, sharded
    and density (where the threshold is ignored) alike.  The density lane
    swaps in a 9-qubit Shor instance: density evolution is O(4^n) per gate,
    so the 12-qubit period-finding circuit would take minutes for a check
    that is backend-independent anyway.  Per circuit, ``"batching"``
    compares the unbatched plan with the default (batched) plan on replayed
    counts: batching is bit-exact from |0...0> on this suite."""
    off = {"chunk_threshold": 1 << 30}
    on = {"chunk_threshold": 2}
    small_shor = period_finding_circuit(7, 3)
    results: dict[str, dict[str, bool]] = {}

    local = LocalBackend(engine=ParallelSimulationEngine(num_threads=2))
    density = DensityBackend()
    with ShardedExecutor(2, name="bench-chunk-identity") as sharded:
        for name, (circuit, width) in algorithm_suite().items():
            per_backend = {}
            for backend_name, backend in (
                ("local", local),
                ("sharded", sharded),
                ("density", density),
            ):
                if backend_name == "density" and name == "shor":
                    job, job_width = small_shor, small_shor.n_qubits
                else:
                    job, job_width = circuit, width
                reference = backend.execute(
                    job, shots, n_qubits=job_width, seed=seed, **off
                )
                tuned = backend.execute(
                    job, shots, n_qubits=job_width, seed=seed, **on
                )
                per_backend[backend_name] = dict(reference.counts) == dict(
                    tuned.counts
                )
            unbatched = compile_plan(circuit, width, batch_diagonals=False)
            batched = compile_plan(circuit, width)
            per_backend["batching"] = replayed_counts(
                unbatched, shots, seed
            ) == replayed_counts(batched, shots, seed)
            results[name] = per_backend
    local.close()
    return results


def run_suite(quick: bool = False) -> dict:
    identity = check_identity()
    identity_all = all(ok for algo in identity.values() for ok in algo.values())
    replay = bench_chunked_sweep(quick)
    reduction = bench_qft_step_reduction()
    return {
        "benchmark": "chunked_replay",
        "quick": quick,
        "created_unix": time.time(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpu_model": cpu_model(),
        "cpu_count": host_cores(),
        "results": [replay, reduction],
        "counts_identity": identity,
        "counts_identity_all": identity_all,
    }


def write_trajectory_file(report: dict, output: Path) -> None:
    output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# pytest entry points
# ---------------------------------------------------------------------------


def _sweep_lines(sweep: dict) -> list[str]:
    return [
        f"  {p['n_qubits']:>2} q {p['shape']:<6} serial {1e3 * p['serial_seconds']:8.2f} ms"
        f"  chunked {1e3 * p['chunked_seconds']:8.2f} ms  serial/chunked "
        f"{p['speedup']:.2f}  bitwise {p['amplitudes_bitwise_identical']}"
        for p in sweep["points"]
    ]


def _passed(report: dict) -> bool:
    sweep, reduction = report["results"]
    ok = (
        report["counts_identity_all"]
        and sweep["amplitudes_bitwise_identical"]
        and reduction["batched_steps"] < reduction["unbatched_steps"]
        and reduction["diagonals_absorbed"] > 0
    )
    if sweep["target_enforced"]:
        ok = ok and sweep["speedup_at_largest"] >= SPEEDUP_TARGET
    return bool(ok)


def test_chunked_replay_sweep_and_identity(tmp_path):
    """Acceptance: bitwise amplitudes at every sweep point, QFT step
    reduction and cross-backend counts identity.  Quick runs record speed
    only, and write beside the test, not over the tracked full-run file."""
    report = run_suite(quick=True)
    write_trajectory_file(report, tmp_path / "BENCH_chunked_replay.json")
    print("\n" + "\n".join(_sweep_lines(report["results"][0])))
    assert _passed(report), report


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="two small sizes, fewer rounds")
    parser.add_argument(
        "--output",
        type=Path,
        default=Path("BENCH_chunked_replay.json"),
        help="where to write the JSON trajectory file",
    )
    args = parser.parse_args()
    report = run_suite(quick=args.quick)
    write_trajectory_file(report, args.output)
    sweep, reduction = report["results"]
    enforced = "enforced" if sweep["target_enforced"] else "recorded only"
    print(
        f"serial vs chunked replay ({sweep['workers']} workers on "
        f"{report['cpu_count']} core(s), median of {sweep['rounds']}):"
    )
    print("\n".join(_sweep_lines(sweep)))
    print(
        f"chunking wins >= {CROSSOVER_MARGIN}x on both shapes from "
        f"{sweep['crossover_amplitudes']} amplitudes (DEFAULT_CHUNK_THRESHOLD "
        f"= {sweep['default_chunk_threshold']}); {SPEEDUP_TARGET}x at the "
        f"largest size {enforced} ({sweep['speedup_at_largest']:.2f}x)"
    )
    print(
        f"qft diagonal batching: {reduction['unbatched_steps']} -> "
        f"{reduction['batched_steps']} steps "
        f"({reduction['step_reduction']:.0%} fewer, "
        f"{reduction['diagonals_absorbed']} diagonals absorbed)"
    )
    print(f"counts identity (local/sharded/density): {report['counts_identity']}")
    print(f"wrote {args.output}")
    return 0 if _passed(report) else 1


if __name__ == "__main__":
    raise SystemExit(main())
