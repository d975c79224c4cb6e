"""Parameter-sweep benchmark — compile-once fan-out vs independent submits.

The workload is the paper's dominant variational shape: one hardware-
efficient VQE ansatz, many parameter bindings (an optimiser sweep or a
parameter-shift gradient batch).  ``submit_sweep`` compiles the parametric
plan once and fans the bindings out with in-place trig rebinds; the
baseline binds and submits each point as its own job, recompiling and
re-dispatching every time.

Acceptance:

* per-binding counts bit-identical to independent submissions at a fixed
  seed — gated on **every** host;
* parameter-shift gradients agree with central finite differences to
  1e-6 — gated on every host;
* ≥3x cold-path speedup for the 32-binding 16-qubit sweep — enforced only
  on hosts with ≥4 cores (single-core CI records the ratio without
  gating; the fan-out has no parallelism to exploit there).

Run standalone (writes the ``BENCH_sweep.json`` trajectory file)::

    PYTHONPATH=src python benchmarks/bench_sweep.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from pathlib import Path

import numpy as np

from repro.config import set_config
from repro.core.objective import createObjectiveFunction
from repro.ir.builder import CircuitBuilder
from repro.ir.parameter import Parameter
from repro.operators import X, Z
from repro.runtime.service_registry import reset_registry
from repro.service import QuantumJobService

SPEEDUP_TARGET = 3.0
#: Below this many cores the fan-out cannot express parallelism, so the
#: speedup is recorded for the trajectory but not gated.
MIN_CORES_FOR_TARGET = 4
SEED = 20230523  # fixed: the bit-identity contract only exists at a seed


def host_cores() -> int:
    return os.cpu_count() or 1


def threshold_enforced() -> bool:
    return host_cores() >= MIN_CORES_FOR_TARGET


def vqe_ansatz(n_qubits: int, layers: int = 2):
    """Parametric hardware-efficient RY/CX ansatz with measurements."""
    builder = CircuitBuilder(n_qubits, name=f"sweep_vqe_{n_qubits}q")
    index = 0
    for _ in range(layers):
        for qubit in range(n_qubits):
            builder.ry(qubit, Parameter(f"t{index:03d}"))
            index += 1
        for qubit in range(n_qubits - 1):
            builder.cx(qubit, qubit + 1)
    for qubit in range(n_qubits):
        builder.measure(qubit)
    return builder.build(), index


def sweep_bindings(n_bindings: int, n_params: int):
    rng = np.random.default_rng(SEED)
    return [list(rng.uniform(-np.pi, np.pi, n_params)) for _ in range(n_bindings)]


def bench_sweep_fanout(quick: bool) -> dict:
    """Cold-path wall clock: one sweep vs N independent submits."""
    n_qubits = 12 if quick else 16
    n_bindings = 8 if quick else 32
    shots = 1024
    circuit, n_params = vqe_ansatz(n_qubits)
    bindings = sweep_bindings(n_bindings, n_params)
    workers = min(4, host_cores())

    # Baseline first so its plan-cache warmup cannot subsidise the sweep.
    reset_registry()
    set_config(seed=SEED)
    independent_counts = []
    with QuantumJobService(
        workers=workers, enable_cache=False, name="bench-independent"
    ) as service:
        started = time.perf_counter()
        handles = [
            service.submit(circuit.bind(values), shots=shots) for values in bindings
        ]
        independent_counts = [
            dict(h.result(timeout=600).counts) for h in handles
        ]
        independent_seconds = time.perf_counter() - started

    reset_registry()
    set_config(seed=SEED)
    with QuantumJobService(
        workers=workers, enable_cache=False, name="bench-sweep"
    ) as service:
        started = time.perf_counter()
        table = service.submit_sweep(circuit, bindings, shots=shots).result(
            timeout=600
        )
        sweep_seconds = time.perf_counter() - started
        metrics = service.metrics()

    sweep_counts = [dict(row.counts) for row in table]
    identical = sweep_counts == independent_counts
    return {
        "case": "sweep_fanout",
        "n_qubits": n_qubits,
        "n_bindings": n_bindings,
        "shots": shots,
        "workers": workers,
        "independent_seconds": independent_seconds,
        "sweep_seconds": sweep_seconds,
        "speedup": independent_seconds / sweep_seconds,
        "fanout_chunks": metrics.sweep_fanout,
        "counts_bit_identical": identical,
        "target": SPEEDUP_TARGET,
        "target_enforced": threshold_enforced(),
    }


def bench_gradient(quick: bool) -> dict:
    """Parameter-shift through the service vs central finite differences."""
    n_qubits = 3
    circuit, n_params = vqe_ansatz(n_qubits, layers=1)
    # Expectation sweeps need the bare ansatz (no terminal measurements).
    builder = CircuitBuilder(n_qubits, name="sweep_grad")
    index = 0
    for qubit in range(n_qubits):
        builder.ry(qubit, Parameter(f"t{index:03d}"))
        index += 1
    for qubit in range(n_qubits - 1):
        builder.cx(qubit, qubit + 1)
    ansatz = builder.build()
    observable = 1.5 * Z(0) + 0.7 * Z(1) * Z(2) + 0.4 * X(0) * X(1)
    rng = np.random.default_rng(SEED + 1)
    theta = rng.uniform(-np.pi, np.pi, index)

    reset_registry()
    set_config(seed=SEED)
    step = 1e-4
    with QuantumJobService(workers=2, name="bench-gradient") as service:
        started = time.perf_counter()
        grad = service.gradient(ansatz, observable, theta)
        gradient_seconds = time.perf_counter() - started

        fd = np.zeros(index)
        for i in range(index):
            plus, minus = theta.copy(), theta.copy()
            plus[i] += step
            minus[i] -= step
            e_plus, e_minus = service.expectations(
                ansatz, observable, [list(plus), list(minus)]
            )
            fd[i] = (e_plus - e_minus) / (2.0 * step)

    serial = createObjectiveFunction(
        ansatz, observable, n_qubits, index, {"gradient-strategy": "parameter-shift"}
    ).gradient(theta)
    return {
        "case": "parameter_shift_gradient",
        "n_parameters": index,
        "gradient_seconds": gradient_seconds,
        "max_error_vs_central_fd": float(np.max(np.abs(grad - fd))),
        "max_error_vs_serial_shift": float(np.max(np.abs(grad - serial))),
        "fd_tolerance": 1e-6,
    }


def run_suite(quick: bool = False) -> dict:
    fanout = bench_sweep_fanout(quick)
    gradient = bench_gradient(quick)
    set_config(seed=None)
    reset_registry()
    return {
        "benchmark": "sweep",
        "quick": quick,
        "created_unix": time.time(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": host_cores(),
        "results": [fanout, gradient],
    }


def write_trajectory_file(report: dict, output: Path) -> None:
    output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# pytest entry points
# ---------------------------------------------------------------------------


def test_sweep_identity_gradient_and_speedup(tmp_path):
    """Acceptance: bit-identical counts and 1e-6 gradients on every host;
    ≥3x fan-out speedup on ≥4-core hosts.  The JSON file lands either way."""
    report = run_suite(quick=True)
    write_trajectory_file(report, tmp_path / "BENCH_sweep.json")
    fanout, gradient = report["results"]
    assert fanout["counts_bit_identical"], fanout
    assert gradient["max_error_vs_central_fd"] < gradient["fd_tolerance"], gradient
    assert gradient["max_error_vs_serial_shift"] < 1e-9, gradient
    print(
        f"\nsweep fan-out {fanout['speedup']:.2f}x over independent submits "
        f"({fanout['n_bindings']} bindings, {fanout['n_qubits']} qubits, "
        f"{report['cpu_count']} cores, target {SPEEDUP_TARGET}x "
        f"{'enforced' if fanout['target_enforced'] else 'recorded only'})"
    )
    if fanout["target_enforced"]:
        assert fanout["speedup"] >= SPEEDUP_TARGET, fanout


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="smaller sweep")
    parser.add_argument(
        "--output",
        type=Path,
        default=Path("BENCH_sweep.json"),
        help="where to write the JSON trajectory file",
    )
    args = parser.parse_args()
    report = run_suite(quick=args.quick)
    write_trajectory_file(report, args.output)
    fanout, gradient = report["results"]
    enforced = "enforced" if fanout["target_enforced"] else "recorded only"
    print(
        f"sweep fan-out: {fanout['speedup']:.2f}x vs independent submits "
        f"({fanout['n_bindings']} bindings, {fanout['n_qubits']} qubits, "
        f"target {SPEEDUP_TARGET}x {enforced}); "
        f"counts identical: {fanout['counts_bit_identical']}; "
        f"gradient max FD error {gradient['max_error_vs_central_fd']:.2e}"
    )
    ok = fanout["counts_bit_identical"] and (
        gradient["max_error_vs_central_fd"] < gradient["fd_tolerance"]
    )
    if fanout["target_enforced"]:
        ok = ok and fanout["speedup"] >= SPEEDUP_TARGET
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
