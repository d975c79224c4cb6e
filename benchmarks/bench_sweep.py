"""Parameter-sweep benchmark — compile-once fan-out vs independent submits.

The workload is the paper's dominant variational shape: one hardware-
efficient VQE ansatz, many parameter bindings (an optimiser sweep or a
parameter-shift gradient batch).  ``submit_sweep`` compiles the parametric
plan once and fans the bindings out with in-place rebinds; the baseline
binds and submits each point as its own job, recompiling and re-dispatching
every time.

Acceptance:

* per-binding counts bit-identical to independent submissions at a fixed
  seed — gated on **every** host;
* ``service.gradient`` (the adjoint method on this RY/CX ansatz) agrees
  with central finite differences to 1e-6 — gated on every host — and
  with the serial parameter-shift objective (recorded);
* ≥3x cold-path speedup for the 32-binding 16-qubit sweep — enforced only
  on hosts with ≥4 cores (single-core CI records the ratio without
  gating; the fan-out has no parallelism to exploit there);
* the compiled exact expectation of the 10- and 12-qubit transverse-field
  Ising observables (the expectation under every gradient binding) agrees
  with the per-term basis-rotation reference to 1e-12 — gated on every
  host — and takes ≤150 µs per call at 10 qubits, gated on full runs only;
* a bound parametric plan replays bit for bit the amplitudes of the bound
  circuit's concrete plan (the ``rebind`` case: bind and bind + replay µs
  of the 10-qubit gradient and 12/16-qubit sweep ansätze) — gated on every
  host.

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
from bench_chunked_replay import cpu_model

from repro.config import set_config
from repro.core.objective import createObjectiveFunction
from repro.ir.builder import CircuitBuilder
from repro.ir.parameter import Parameter
from repro.operators import X, Z
from repro.simulator.execution_plan import compile_parametric_plan, compile_plan
from repro.simulator.statevector import StateVector
from repro.runtime.service_registry import reset_registry
from repro.service import QuantumJobService

SPEEDUP_TARGET = 3.0
#: Per-call budget of the compiled 10-qubit Ising expectation (full runs).
EXPECTATION_TARGET_US = 150.0
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
    """``service.gradient`` (the adjoint method here) vs central finite
    differences and the serial parameter-shift objective."""
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


def ising_observable(n_qubits: int, field: float = 0.7):
    """Transverse-field Ising chain: -sum Z_i Z_{i+1} - h sum X_i."""
    observable = -field * X(0)
    for qubit in range(1, n_qubits):
        observable = observable - field * X(qubit)
    for qubit in range(n_qubits - 1):
        observable = observable - Z(qubit) * Z(qubit + 1)
    return observable


def rotated_expectation(state: StateVector, observable) -> float:
    """Reference: copy, rotate each term into the Z basis, read its parity."""
    index = np.arange(state.dim)
    total = observable.constant.real
    for term in observable.non_identity_terms():
        rotated = state.copy()
        rotated.apply_circuit(term.basis_rotation_circuit(state.n_qubits))
        parity = np.zeros(state.dim, dtype=np.int64)
        for qubit in term.qubits:
            parity ^= (index >> qubit) & 1
        total += term.coefficient.real * np.dot(rotated.probabilities(), 1 - 2 * parity)
    return float(total)


def _us_per_call(fn, calls: int, repeats: int = 5) -> float:
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - started) / calls)
    return float(np.median(samples)) * 1e6


def bench_compiled_expectation(quick: bool) -> dict:
    """µs per exact Ising expectation: compiled form vs per-term rotation."""
    calls = 200 if quick else 2000
    rows = []
    for n_qubits in (10, 12):
        observable = ising_observable(n_qubits)
        circuit, n_params = vqe_ansatz(n_qubits)
        state = StateVector(n_qubits)
        state.run(circuit.without_measurements(), sweep_bindings(1, n_params)[0])
        compiled = state.expectation(observable)  # compiles once, memoised
        reference = rotated_expectation(state, observable)
        rows.append({
            "n_qubits": n_qubits,
            "n_terms": observable.n_terms,
            "compiled_us_per_call": _us_per_call(
                lambda: state.expectation(observable), calls
            ),
            "rotated_us_per_call": _us_per_call(
                lambda: rotated_expectation(state, observable), max(1, calls // 10)
            ),
            "abs_error_vs_rotated": abs(compiled - reference),
        })
    return {
        "case": "compiled_expectation",
        "observable": "ising",
        "calls": calls,
        "rows": rows,
        "tolerance": 1e-12,
        "target_us_10q": EXPECTATION_TARGET_US,
        "target_enforced": not quick,
    }


def expectation_ok(report: dict) -> bool:
    """Agreement on every host; the 10-qubit budget on full runs only."""
    ok = all(r["abs_error_vs_rotated"] <= report["tolerance"] for r in report["rows"])
    if report["target_enforced"]:
        ten = next(r for r in report["rows"] if r["n_qubits"] == 10)
        ok = ok and ten["compiled_us_per_call"] <= report["target_us_10q"]
    return ok


def _bare_ansatz(n_qubits: int, layers: int, closing: bool):
    """The e2e ``vqe_sweep`` shapes, unmeasured: RY layers between CX
    ladders, plus a closing RY layer for the gradient ansatz."""
    circuit, _ = vqe_ansatz(n_qubits, layers)
    circuit = circuit.without_measurements()
    if closing:
        builder = CircuitBuilder(n_qubits, name=circuit.name)
        builder.append(circuit)
        start = layers * n_qubits
        for qubit in range(n_qubits):
            builder.ry(qubit, Parameter(f"t{start + qubit:03d}"))
        circuit = builder.build()
    return circuit


def bench_rebind(quick: bool) -> dict:
    """µs per ``bind`` and per bind + replay of one thread's parametric plan,
    over fresh random bindings (a sweep) and, for the gradient ansatz, the
    parameter-shift pattern (one angle moves per binding).  Every binding
    measured is checked against ``compile_plan(circuit.bind(values))``."""
    bindings_per_repeat = 20 if quick else 200
    rows = []
    for n_qubits, layers, closing in ((10, 1, True), (12, 2, False), (16, 2, False)):
        circuit = _bare_ansatz(n_qubits, layers, closing)
        parametric = compile_parametric_plan(circuit, n_qubits)
        names = parametric.parameter_names
        rng = np.random.default_rng(SEED + n_qubits)
        patterns = {"random": [
            dict(zip(names, rng.uniform(-np.pi, np.pi, len(names))))
            for _ in range(bindings_per_repeat)
        ]}
        if closing:
            theta = dict(zip(names, rng.uniform(-np.pi, np.pi, len(names))))
            shifted = []
            for name in names:
                for sign in (1.0, -1.0):
                    shifted.append({**theta, name: theta[name] + sign * np.pi / 2})
            patterns["parameter_shift"] = shifted
        bitwise = True
        for values in patterns["random"][:3]:
            bound = parametric.bind(values)
            concrete = compile_plan(circuit.bind(values), n_qubits)
            bitwise = bitwise and np.array_equal(
                bound.execute(bound.new_state()), concrete.execute(concrete.new_state())
            )
        for pattern, bindings in patterns.items():
            def bind_all():
                for values in bindings:
                    parametric.bind(values)

            def bind_and_replay():
                for values in bindings:
                    plan = parametric.bind(values)
                    plan.execute(plan.new_state())

            rows.append({
                "n_qubits": n_qubits,
                "layers": layers,
                "closing_layer": closing,
                "bindings": pattern,
                "parametric_steps": parametric.n_steps,
                "concrete_steps": compile_plan(
                    circuit.bind(bindings[0]), n_qubits
                ).n_steps,
                "bind_us": _us_per_call(bind_all, 1) / len(bindings),
                "bind_replay_us": _us_per_call(bind_and_replay, 1) / len(bindings),
                "bitwise_equal_to_concrete": bitwise,
            })
    return {"case": "rebind", "rows": rows}


def rebind_ok(report: dict) -> bool:
    """The bound plan is the concrete plan, bitwise, on every host."""
    return all(row["bitwise_equal_to_concrete"] for row in report["rows"])


def run_suite(quick: bool = False) -> dict:
    fanout = bench_sweep_fanout(quick)
    gradient = bench_gradient(quick)
    expectation = bench_compiled_expectation(quick)
    rebind = bench_rebind(quick)
    set_config(seed=None)
    reset_registry()
    return {
        "benchmark": "sweep",
        "quick": quick,
        "created_unix": time.time(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_model": cpu_model(),
        "numpy": np.__version__,
        "cpu_count": host_cores(),
        "results": [fanout, gradient, expectation, rebind],
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
    fanout, gradient, expectation, rebind = report["results"]
    assert fanout["counts_bit_identical"], fanout
    assert gradient["max_error_vs_central_fd"] < gradient["fd_tolerance"], gradient
    assert gradient["max_error_vs_serial_shift"] < 1e-9, gradient
    assert expectation_ok(expectation), expectation
    assert rebind_ok(rebind), rebind
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
    fanout, gradient, expectation, rebind = report["results"]
    enforced = "enforced" if fanout["target_enforced"] else "recorded only"
    print(
        f"sweep fan-out: {fanout['speedup']:.2f}x vs independent submits "
        f"({fanout['n_bindings']} bindings, {fanout['n_qubits']} qubits, "
        f"target {SPEEDUP_TARGET}x {enforced}); "
        f"counts identical: {fanout['counts_bit_identical']}; "
        f"gradient max FD error {gradient['max_error_vs_central_fd']:.2e}"
    )
    for row in expectation["rows"]:
        print(
            f"ising {row['n_qubits']}q expectation: compiled "
            f"{row['compiled_us_per_call']:.1f} us/call vs rotated "
            f"{row['rotated_us_per_call']:.1f} us/call "
            f"(|diff| {row['abs_error_vs_rotated']:.1e})"
        )
    for row in rebind["rows"]:
        print(
            f"rebind {row['n_qubits']}q ({row['bindings']}): bind "
            f"{row['bind_us']:.0f} us, bind + replay {row['bind_replay_us']:.0f} us, "
            f"{row['parametric_steps']} steps (bound circuit "
            f"{row['concrete_steps']}); bitwise == concrete: "
            f"{row['bitwise_equal_to_concrete']}"
        )
    ok = (
        fanout["counts_bit_identical"]
        and gradient["max_error_vs_central_fd"] < gradient["fd_tolerance"]
        and expectation_ok(expectation)
        and rebind_ok(rebind)
    )
    if fanout["target_enforced"]:
        ok = ok and fanout["speedup"] >= SPEEDUP_TARGET
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
