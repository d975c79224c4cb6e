"""Fault-hook benchmark — the fault-injection hooks must be free.

The fault-injection hooks (:func:`repro.testing.faults.fire`) sit on
production hot paths: plan compilation and replay entry.  Disarmed, each
hook is one module-global read and a branch, and together they must add
**less than 5%** to an in-process replay.  Like the observability gate,
this binds on every host.

Run standalone (writes ``BENCH_fault_recovery.json``)::

    PYTHONPATH=src python benchmarks/bench_fault_recovery.py [--quick]

or through pytest::

    PYTHONPATH=src python -m pytest benchmarks/bench_fault_recovery.py -q
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from pathlib import Path

from repro.exec import LocalBackend
from repro.simulator.parallel_engine import ParallelSimulationEngine
from repro.testing import clear_faults
from repro.testing import faults as faults_module

from bench_chunked_replay import deep_circuit

#: Replay latency with disarmed hooks vs hooks compiled out entirely.
OVERHEAD_LIMIT = 1.05
#: Overhead workload: one hook firing per replay against 2^16 amplitudes
#: of real kernel work — large enough that scheduler jitter, not the hook,
#: does not dominate the ratio.
OVERHEAD_QUBITS = 16


def _best_of(rounds: int, fn) -> float:
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def bench_disabled_overhead(quick: bool) -> dict:
    """In-process replay latency: disarmed hooks vs hooks compiled out."""
    layers = 2 if quick else 4
    rounds = 7 if quick else 11
    circuit = deep_circuit(OVERHEAD_QUBITS, layers)
    backend = LocalBackend(engine=ParallelSimulationEngine(num_threads=1))
    clear_faults()  # the "disabled" side must measure the disarmed fast path
    real_fire = faults_module.fire
    noop_fire = lambda site: None
    try:
        run = lambda: backend.execute(circuit, 64, seed=7)
        reference = run()  # warm the plan cache; both modes replay only

        # Interleave the two modes round by round so host drift (page
        # cache, scheduler) hits both sides equally; best-of then compares
        # like with like.  The "unhooked" floor erases the hook bodies —
        # the cost the codebase would pay if the harness did not exist.
        hooked_seconds = unhooked_seconds = float("inf")
        for _ in range(rounds):
            faults_module.fire = real_fire
            hooked_seconds = min(hooked_seconds, _best_of(1, run))
            faults_module.fire = noop_fire
            unhooked_seconds = min(unhooked_seconds, _best_of(1, run))

        faults_module.fire = real_fire
        identical = dict(run().counts) == dict(reference.counts)
    finally:
        faults_module.fire = real_fire
        backend.close()
    return {
        "workload": "plan_replay",
        "n_qubits": OVERHEAD_QUBITS,
        "layers": layers,
        "rounds": rounds,
        "unhooked_seconds": unhooked_seconds,
        "hooked_seconds": hooked_seconds,
        "overhead_ratio": hooked_seconds / unhooked_seconds,
        "limit": OVERHEAD_LIMIT,
        "counts_identical": bool(identical),
    }


def run_suite(quick: bool = False) -> dict:
    overhead = bench_disabled_overhead(quick)
    return {
        "benchmark": "fault_recovery",
        "quick": quick,
        "created_unix": time.time(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
        "results": [overhead],
    }


def write_trajectory_file(report: dict, output: Path) -> None:
    output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# pytest entry points
# ---------------------------------------------------------------------------


def test_disarmed_hook_overhead(tmp_path):
    """Acceptance (all hosts): the disarmed fault hooks add <5% to an
    in-process replay."""
    report = run_suite(quick=True)
    write_trajectory_file(report, tmp_path / "BENCH_fault_recovery.json")
    (overhead,) = report["results"]
    print(
        f"\ndisarmed hooks {(overhead['overhead_ratio'] - 1) * 100:+.2f}% "
        f"(limit +{(OVERHEAD_LIMIT - 1) * 100:.0f}%)"
    )
    assert overhead["counts_identical"], overhead
    assert overhead["overhead_ratio"] < OVERHEAD_LIMIT, overhead


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="fewer rounds")
    parser.add_argument(
        "--output",
        type=Path,
        default=Path("BENCH_fault_recovery.json"),
        help="where to write the JSON trajectory file",
    )
    args = parser.parse_args()
    report = run_suite(quick=args.quick)
    write_trajectory_file(report, args.output)
    (overhead,) = report["results"]
    print(
        f"disarmed-hook overhead at {overhead['n_qubits']} qubits: "
        f"unhooked {overhead['unhooked_seconds'] * 1e3:.1f}ms, "
        f"hooked {overhead['hooked_seconds'] * 1e3:.1f}ms "
        f"({(overhead['overhead_ratio'] - 1) * 100:+.2f}%, "
        f"limit +{(OVERHEAD_LIMIT - 1) * 100:.0f}%, enforced on all hosts)"
    )
    print(f"wrote {args.output}")
    ok = overhead["counts_identical"] and overhead["overhead_ratio"] < OVERHEAD_LIMIT
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
