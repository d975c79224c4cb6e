"""Stabilizer-vs-statevector benchmark — polynomial routing for Clifford work.

The workload is the circuit class the tableau backend exists for: GHZ
chains (entanglement distribution) at widths where the dense lanes are
slow (24 qubits, 2^24 amplitudes) or impossible (500 qubits).  The broker
classifies each circuit at submit time and routes Clifford jobs to the
CHP tableau automatically; everything else keeps the dense path untouched.

Acceptance — all gates bind on **every** host, because the contrast is
asymptotic (O(n²) bits vs O(2^n) amplitudes), not parallelism:

* ≥100x tableau speedup over the statevector lane on the 24-qubit GHZ;
* a 500-qubit GHZ completes end-to-end through the broker in <1 s, with
  the automatic router (no explicit method request) picking the tableau;
* tableau counts agree with the dense lane's distribution at 24 qubits;
* a 400-qubit depth-8 H/S/CX/CZ brickwork (the end-to-end benchmark's widest
  ``clifford_wide`` job: ~3.7k gates, every measured qubit random) returns
  all its shots — its seconds are the record of the packed tableau's cost;
* ``choose_backend`` routes Clifford circuits to the tableau, refuses an
  explicit ``stabilizer`` request for non-Clifford circuits, and the
  broker leaves non-Clifford jobs on the dense path.

Run standalone (writes the ``BENCH_stabilizer.json`` trajectory file)::

    PYTHONPATH=src python benchmarks/bench_stabilizer.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from pathlib import Path

import numpy as np

from repro.algorithms.ghz import ghz_circuit
from repro.config import set_config
from repro.exceptions import ExecutionError
from repro.exec import LocalBackend
from repro.exec.stabilizer import StabilizerBackend
from repro.ir.builder import CircuitBuilder
from repro.ir.transforms.clifford import classify_clifford
from repro.runtime.service_registry import reset_registry
from repro.service import QuantumJobService
from repro.simulator.cost_model import choose_backend

SPEEDUP_TARGET = 100.0
GHZ_WIDE_QUBITS = 500
GHZ_WIDE_SECONDS = 1.0
SEED = 20230523  # fixed: counts comparisons only exist at a seed


def host_cores() -> int:
    return os.cpu_count() or 1


def bench_clifford_speedup(quick: bool) -> dict:
    """24-qubit GHZ: tableau vs dense statevector, same shots, same seed."""
    n_qubits = 24
    shots = 1024
    circuit = ghz_circuit(n_qubits)
    dense_backend = LocalBackend()
    tableau_backend = StabilizerBackend()

    started = time.perf_counter()
    dense = dense_backend.execute(circuit, shots, seed=SEED)
    dense_seconds = time.perf_counter() - started

    # The tableau run is sub-millisecond at this width; best-of-3 keeps the
    # denominator out of timer-resolution noise.
    repeats = 3 if quick else 5
    tableau_seconds = float("inf")
    tableau = None
    for _ in range(repeats):
        started = time.perf_counter()
        tableau = tableau_backend.execute(circuit, shots, seed=SEED)
        tableau_seconds = min(tableau_seconds, time.perf_counter() - started)

    poles = {"0" * n_qubits, "1" * n_qubits}
    agreement = (
        set(dense.counts) <= poles
        and set(tableau.counts) <= poles
        and sum(tableau.counts.values()) == shots
        # Fair-coin marginal within 5 sigma on both lanes.
        and abs(tableau.counts.get("0" * n_qubits, 0) - shots / 2)
        < 5 * (shots * 0.25) ** 0.5
    )
    return {
        "case": "clifford_speedup_24q",
        "n_qubits": n_qubits,
        "shots": shots,
        "statevector_seconds": dense_seconds,
        "stabilizer_seconds": tableau_seconds,
        "speedup": dense_seconds / tableau_seconds,
        "counts_agree": agreement,
        "target": SPEEDUP_TARGET,
        "target_enforced": True,  # asymptotic contrast: binds on all hosts
    }


def bench_ghz_wide_broker(quick: bool) -> dict:
    """500-qubit GHZ end-to-end through the broker's automatic routing."""
    n_qubits = GHZ_WIDE_QUBITS
    shots = 256 if quick else 1024
    circuit = ghz_circuit(n_qubits)

    reset_registry()
    set_config(seed=SEED)
    with QuantumJobService(workers=1, name="bench-stab-wide") as service:
        started = time.perf_counter()
        result = service.submit(circuit, shots=shots).result(timeout=120)
        wall_seconds = time.perf_counter() - started
        metrics = service.metrics()

    poles = {"0" * n_qubits, "1" * n_qubits}
    return {
        "case": "ghz_wide_broker",
        "n_qubits": n_qubits,
        "shots": shots,
        "wall_seconds": wall_seconds,
        "routed_to_tableau": metrics.stabilizer_executions == 1,
        "counts_on_poles": set(result.counts) <= poles,
        "total_counts": result.total_counts(),
        "target_seconds": GHZ_WIDE_SECONDS,
        "target_enforced": True,
    }


def brickwork_circuit(rng, n_qubits: int, depth: int):
    """Random H/S/CX/CZ brickwork, as ``benchmarks/e2e`` builds it."""
    builder = CircuitBuilder(n_qubits, name="bench_brickwork")
    for layer in range(depth):
        for qubit, gate in enumerate(rng.integers(3, size=n_qubits)):
            if gate == 0:
                builder.h(qubit)
            elif gate == 1:
                builder.s(qubit)
        pairs = range(layer % 2, n_qubits - 1, 2)
        for qubit, gate in zip(pairs, rng.integers(2, size=len(pairs))):
            if gate:
                builder.cx(qubit, qubit + 1)
            else:
                builder.cz(qubit, qubit + 1)
    return builder.measure_all().build()


def bench_wide_brickwork(quick: bool) -> dict:
    """400-qubit depth-8 brickwork on the tableau: best-of-N seconds."""
    n_qubits, depth, shots = 400, 8, 1024
    circuit = brickwork_circuit(np.random.default_rng(SEED), n_qubits, depth)
    backend = StabilizerBackend()
    seconds = float("inf")
    result = None
    for _ in range(3 if quick else 7):
        started = time.perf_counter()
        result = backend.execute(circuit, shots, seed=SEED)
        seconds = min(seconds, time.perf_counter() - started)
    return {
        "case": "wide_brickwork_400q",
        "n_qubits": n_qubits,
        "depth": depth,
        "n_gates": result.n_gates,
        "shots": shots,
        "seconds": seconds,
        "distinct_outcomes": len(result.counts),
        "total_counts": sum(result.counts.values()),
    }


def bench_routing(quick: bool) -> dict:
    """Routing soundness: picks the tableau for Clifford, refuses otherwise."""
    clifford = classify_clifford(ghz_circuit(8))
    non_clifford_circuit = (
        CircuitBuilder(3, name="bench_non_clifford")
        .h(0)
        .rx(1, 0.3)
        .cx(0, 1)
        .measure_all()
        .build()
    )
    non_clifford = classify_clifford(non_clifford_circuit)

    picks_tableau = choose_backend(clifford) == "stabilizer"
    keeps_dense = choose_backend(non_clifford) == "statevector"
    try:
        choose_backend(non_clifford, "stabilizer")
        refuses_explicit = False
    except ExecutionError:
        refuses_explicit = True

    # The broker leaves non-Clifford jobs on the dense path end to end.
    reset_registry()
    set_config(seed=SEED)
    with QuantumJobService(workers=1, name="bench-stab-routing") as service:
        dense_result = service.submit(non_clifford_circuit, shots=128).result(
            timeout=60
        )
        metrics = service.metrics()
    return {
        "case": "routing_soundness",
        "auto_picks_tableau_for_clifford": picks_tableau,
        "auto_keeps_non_clifford_dense": keeps_dense,
        "refuses_explicit_stabilizer_on_non_clifford": refuses_explicit,
        "broker_dense_executions": metrics.executions,
        "broker_stabilizer_executions": metrics.stabilizer_executions,
        "dense_total_counts": dense_result.total_counts(),
    }


def run_suite(quick: bool = False) -> dict:
    reset_registry()
    set_config(seed=SEED)
    speedup = bench_clifford_speedup(quick)
    wide = bench_ghz_wide_broker(quick)
    brickwork = bench_wide_brickwork(quick)
    routing = bench_routing(quick)
    set_config(seed=None)
    reset_registry()
    return {
        "benchmark": "stabilizer",
        "quick": quick,
        "created_unix": time.time(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": host_cores(),
        "results": [speedup, wide, brickwork, routing],
    }


def write_trajectory_file(report: dict, output: Path) -> None:
    output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


def _gates(report: dict) -> list[str]:
    """Every failed gate, as human-readable strings (empty = all green)."""
    speedup, wide, brickwork, routing = report["results"]
    failures = []
    if speedup["speedup"] < speedup["target"]:
        failures.append(
            f"24q speedup {speedup['speedup']:.1f}x < {speedup['target']:.0f}x"
        )
    if not speedup["counts_agree"]:
        failures.append("24q tableau counts disagree with the dense lane")
    if wide["wall_seconds"] >= wide["target_seconds"]:
        failures.append(
            f"{wide['n_qubits']}q GHZ took {wide['wall_seconds']:.2f}s "
            f">= {wide['target_seconds']:.0f}s"
        )
    if not wide["routed_to_tableau"]:
        failures.append("wide GHZ was not auto-routed to the tableau")
    if not wide["counts_on_poles"]:
        failures.append("wide GHZ counts left the GHZ poles")
    if brickwork["total_counts"] != brickwork["shots"]:
        failures.append(
            f"{brickwork['n_qubits']}q brickwork returned "
            f"{brickwork['total_counts']} of {brickwork['shots']} shots"
        )
    for key in (
        "auto_picks_tableau_for_clifford",
        "auto_keeps_non_clifford_dense",
        "refuses_explicit_stabilizer_on_non_clifford",
    ):
        if not routing[key]:
            failures.append(f"routing gate failed: {key}")
    if routing["broker_stabilizer_executions"] != 0:
        failures.append("broker routed a non-Clifford job to the tableau")
    return failures


# ---------------------------------------------------------------------------
# pytest entry points
# ---------------------------------------------------------------------------


def test_stabilizer_speedup_and_routing(tmp_path):
    """Acceptance: every gate binds on every host — the contrast under test
    is asymptotic, not a parallelism ratio.  The JSON file lands either way."""
    report = run_suite(quick=True)
    write_trajectory_file(report, tmp_path / "BENCH_stabilizer.json")
    speedup, wide, brickwork, _ = report["results"]
    print(
        f"\nstabilizer {speedup['speedup']:.0f}x over statevector "
        f"({speedup['n_qubits']} qubits, target {SPEEDUP_TARGET:.0f}x); "
        f"{wide['n_qubits']}q GHZ through the broker in "
        f"{wide['wall_seconds']:.3f}s (target <{GHZ_WIDE_SECONDS:.0f}s); "
        f"{brickwork['n_qubits']}q brickwork in {brickwork['seconds'] * 1e3:.1f} ms"
    )
    failures = _gates(report)
    assert not failures, failures


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="fewer shots/repeats")
    parser.add_argument(
        "--output",
        type=Path,
        default=Path("BENCH_stabilizer.json"),
        help="where to write the JSON trajectory file",
    )
    args = parser.parse_args()
    report = run_suite(quick=args.quick)
    write_trajectory_file(report, args.output)
    speedup, wide, brickwork, _ = report["results"]
    failures = _gates(report)
    print(
        f"stabilizer: {speedup['speedup']:.0f}x vs statevector at "
        f"{speedup['n_qubits']} qubits (target {SPEEDUP_TARGET:.0f}x); "
        f"{wide['n_qubits']}q GHZ in {wide['wall_seconds']:.3f}s "
        f"(target <{GHZ_WIDE_SECONDS:.0f}s); "
        f"{brickwork['n_qubits']}q brickwork x {brickwork['shots']} shots in "
        f"{brickwork['seconds'] * 1e3:.1f} ms; routing sound: "
        f"{not any('routing' in f or 'broker' in f for f in failures)}"
    )
    for failure in failures:
        print(f"GATE FAILED: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
