"""Fault-recovery benchmark — crashes must be cheap and hooks must be free.

Two contracts from the fault-tolerant lifecycle tier:

* **Recovery latency** — a shard worker killed mid-replay is respawned and
  its chunk re-executed; the job still completes bit-identically.  This
  benchmark kills one worker per round and reports the p50/p95 job latency
  of the recovering runs next to the clean baseline.  Recovery latency is
  reported, not gated — respawn cost is host-dependent (fork speed, page
  cache) — but every recovering run must return the baseline's exact
  counts.
* **Disabled-hooks overhead** — the fault-injection hooks
  (:func:`repro.testing.faults.fire`) sit on production hot paths: plan
  compilation, replay entry, shard worker loops.  Disarmed, each hook is
  one module-global read and a branch, and together they must add **less
  than 5%** to an in-process replay.  Like the observability gate, this
  binds on every host.

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

from repro.exec import LocalBackend, ShardedExecutor
from repro.simulator.parallel_engine import ParallelSimulationEngine
from repro.testing import FaultSpec, clear_faults, install_faults
from repro.testing import faults as faults_module

from bench_chunked_replay import deep_circuit

#: Replay latency with disarmed hooks vs hooks compiled out entirely.
OVERHEAD_LIMIT = 1.05
#: Recovery workload: small enough that respawn dominates honest replay
#: work, large enough that the counts comparison is meaningful.
RECOVERY_QUBITS = 10
RECOVERY_SHOTS = 256
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


def _percentile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


def bench_recovery(quick: bool) -> dict:
    """Kill one shard worker per round; time the recovering job."""
    rounds = 5 if quick else 15
    circuit = deep_circuit(RECOVERY_QUBITS, 2)

    clean = ShardedExecutor(2, name="bench-recovery-clean")
    try:
        expected = dict(clean.execute(circuit, RECOVERY_SHOTS, seed=23).counts)
        clean_seconds = _best_of(
            3, lambda: clean.execute(circuit, RECOVERY_SHOTS, seed=23)
        )
    finally:
        clean.close()

    recovery_seconds: list[float] = []
    total_retries = 0
    mismatches = 0
    for _ in range(rounds):
        # after=1: the warm-up execute consumes one hit (a job runs on one
        # shard), so the kill lands on the *timed* execute — respawn + job
        # re-execution, not pool construction, is what the clock sees.
        install_faults(
            [
                FaultSpec(
                    site="sharded.worker.replay",
                    action="kill",
                    after=1,
                    times=1,
                    scope="global",
                )
            ]
        )
        executor = ShardedExecutor(2, name="bench-recovery")
        try:
            warm = executor.execute(circuit, RECOVERY_SHOTS, seed=23)
            if dict(warm.counts) != expected:
                mismatches += 1
            retries_before = executor.total_retries
            started = time.perf_counter()
            result = executor.execute(circuit, RECOVERY_SHOTS, seed=23)
            recovery_seconds.append(time.perf_counter() - started)
            total_retries += executor.total_retries - retries_before
            if dict(result.counts) != expected:
                mismatches += 1
        finally:
            executor.close()
            clear_faults()
    return {
        "workload": "sharded_worker_kill",
        "n_qubits": RECOVERY_QUBITS,
        "shots": RECOVERY_SHOTS,
        "rounds": rounds,
        "clean_seconds": clean_seconds,
        "recovery_p50_seconds": _percentile(recovery_seconds, 0.50),
        "recovery_p95_seconds": _percentile(recovery_seconds, 0.95),
        "recovery_max_seconds": max(recovery_seconds),
        "retries_observed": total_retries,
        "count_mismatches": mismatches,
    }


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
    recovery = bench_recovery(quick)
    overhead = bench_disabled_overhead(quick)
    return {
        "benchmark": "fault_recovery",
        "quick": quick,
        "created_unix": time.time(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
        "results": [recovery, overhead],
    }


def write_trajectory_file(report: dict, output: Path) -> None:
    output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# pytest entry points
# ---------------------------------------------------------------------------


def test_fault_recovery_and_hook_overhead(tmp_path):
    """Acceptance (all hosts): every killed-worker round recovers
    bit-identically with at least one retry, and the disarmed fault hooks
    add <5% to an in-process replay."""
    report = run_suite(quick=True)
    write_trajectory_file(report, tmp_path / "BENCH_fault_recovery.json")
    recovery, overhead = report["results"]
    print(
        f"\nrecovery p95 {recovery['recovery_p95_seconds'] * 1e3:.1f}ms "
        f"(p50 {recovery['recovery_p50_seconds'] * 1e3:.1f}ms, clean "
        f"{recovery['clean_seconds'] * 1e3:.1f}ms, "
        f"{recovery['retries_observed']} retries/{recovery['rounds']} rounds); "
        f"disarmed hooks {(overhead['overhead_ratio'] - 1) * 100:+.2f}% "
        f"(limit +{(OVERHEAD_LIMIT - 1) * 100:.0f}%)"
    )
    assert recovery["count_mismatches"] == 0, recovery
    assert recovery["retries_observed"] >= recovery["rounds"], recovery
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
    recovery, overhead = report["results"]
    print(
        f"worker-kill recovery at {recovery['n_qubits']} qubits: "
        f"p50 {recovery['recovery_p50_seconds'] * 1e3:.1f}ms, "
        f"p95 {recovery['recovery_p95_seconds'] * 1e3:.1f}ms, "
        f"max {recovery['recovery_max_seconds'] * 1e3:.1f}ms "
        f"(clean best-of {recovery['clean_seconds'] * 1e3:.1f}ms, "
        f"{recovery['retries_observed']} retries over {recovery['rounds']} rounds)"
    )
    print(
        f"disarmed-hook overhead at {overhead['n_qubits']} qubits: "
        f"unhooked {overhead['unhooked_seconds'] * 1e3:.1f}ms, "
        f"hooked {overhead['hooked_seconds'] * 1e3:.1f}ms "
        f"({(overhead['overhead_ratio'] - 1) * 100:+.2f}%, "
        f"limit +{(OVERHEAD_LIMIT - 1) * 100:.0f}%, enforced on all hosts)"
    )
    print(f"wrote {args.output}")
    ok = (
        recovery["count_mismatches"] == 0
        and recovery["retries_observed"] >= recovery["rounds"]
        and overhead["counts_identical"]
        and overhead["overhead_ratio"] < OVERHEAD_LIMIT
    )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
