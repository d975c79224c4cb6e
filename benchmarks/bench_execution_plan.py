"""Execution-plan benchmark — compiled plans vs per-call gate dispatch.

Measures what the compile-once/execute-many pipeline buys on the three
traffic shapes that dominate the paper's workloads:

1. **Parametric ansatz replay** (the VQE/QAOA optimiser loop): one cached
   parametric plan re-bound per parameter set, against the pre-plan
   accelerator behaviour of bind + IR passes + gate-by-gate dispatch on
   every evaluation.  Target: >= 3x.
2. **Trajectory replay** (mid-circuit-reset workloads): one compiled plan
   replayed per shot, against the historical per-shot Python dispatch.
   Target: >= 2x.
3. **Accelerator repeats** (broker-shaped traffic): repeated
   ``QppAccelerator.execute`` of one hot circuit with the plan cache warm
   vs the gate-by-gate reference (IR passes + ``StateVector.apply_circuit``
   + the engine's sampler) per repeat.
4. **Sampling crossover**: one draw by ``multinomial`` vs by
   inverse CDF over positive bins 2^1..2^17 x shots 1..8192, median
   of 5 each; the table ``repro.simulator.sampling.INVERSE_CDF_MIN_BINS``
   cites, with the regret of the rule that constant sets.

It also verifies the acceptance identity: with a fixed seed, plan-executed
results produce *the same counts* as that reference across the algorithm
suite (bell / ghz / qft / shor / vqe).

Run standalone (writes the ``BENCH_execution_plan.json`` trajectory file)::

    PYTHONPATH=src python benchmarks/bench_execution_plan.py [--quick]

or through pytest::

    PYTHONPATH=src python -m pytest benchmarks/bench_execution_plan.py -q
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
from bench_paper_figures import cpu_model

from repro.algorithms.bell import bell_circuit
from repro.algorithms.ghz import ghz_circuit
from repro.algorithms.qft import qft_circuit
from repro.algorithms.shor import period_finding_circuit
from repro.algorithms.vqe import deuteron_ansatz_circuit
from repro.config import set_config
from repro.ir.builder import CircuitBuilder
from repro.ir.gates import X
from repro.ir.parameter import Parameter
from repro.ir.transforms import default_pass_manager
from repro.runtime.buffer import AcceleratorBuffer
from repro.runtime.qpp_accelerator import QppAccelerator
from repro.simulator.execution_plan import compile_parametric_plan, compile_plan
from repro.simulator.parallel_engine import ParallelSimulationEngine
from repro.simulator.plan_cache import reset_plan_cache
from repro.simulator.sampling import _inverse_cdf_draw, _inverse_cdf_wins, _normalised
from repro.simulator.statevector import StateVector

SPEEDUP_TARGET_PARAMETRIC = 3.0
SPEEDUP_TARGET_TRAJECTORY = 2.0


# ---------------------------------------------------------------------------
# Workload circuits
# ---------------------------------------------------------------------------


def hwe_ansatz(n_qubits: int = 8, layers: int = 3):
    """Hardware-efficient symbolic ansatz: RY layers + CX entanglers."""
    builder = CircuitBuilder(n_qubits, name="hwe_ansatz")
    names = []
    for layer in range(layers):
        for qubit in range(n_qubits):
            name = f"t{layer}_{qubit}"
            names.append(name)
            builder.ry(qubit, Parameter(name))
        for qubit in range(n_qubits - 1):
            builder.cx(qubit, qubit + 1)
    return builder.build(), len(names)


def reset_circuit(n_qubits: int = 8, layers: int = 3):
    """A trajectory workload: entangling layers with mid-circuit resets."""
    builder = CircuitBuilder(n_qubits, name="reset_workload")
    for layer in range(layers):
        for qubit in range(n_qubits):
            builder.h(qubit) if layer % 2 == 0 else builder.ry(qubit, 0.3 + 0.1 * qubit)
        for qubit in range(n_qubits - 1):
            builder.cx(qubit, qubit + 1)
        builder.reset(layer % n_qubits)
    for qubit in range(n_qubits):
        builder.measure(qubit)
    return builder.build()


# ---------------------------------------------------------------------------
# Baselines: the pre-plan execution paths, replicated exactly
# ---------------------------------------------------------------------------


def naive_parametric_evaluation(circuit, parameter_sets, n_qubits, optimize=True):
    """Bind + IR passes + gate-by-gate dispatch per evaluation (the old path)."""
    manager = default_pass_manager()
    for values in parameter_sets:
        bound = circuit.bind(values)
        if optimize:
            bound = manager.run(bound)
        state = StateVector(n_qubits)
        for instruction in bound:
            if instruction.is_measurement:
                continue
            state.apply(instruction)


def reference_counts(circuit, width, shots, seed, engine):
    """IR passes + ``StateVector.apply_circuit`` + the engine's sampler: the
    gate-by-gate reference every plan-executed job must reproduce."""
    circuit = default_pass_manager().run(circuit)
    if any(instruction.name == "RESET" for instruction in circuit):
        return engine.run_trajectories(width, circuit, shots, seed=seed)
    state = StateVector(width).apply_circuit(circuit)
    measured = circuit.measured_qubits() or tuple(range(width))
    return engine.sample_parallel(state, shots, measured, seed=seed)


def plan_parametric_evaluation(parametric_plan, parameter_sets):
    """Re-bind the cached plan's rotations and replay it per evaluation."""
    for values in parameter_sets:
        plan = parametric_plan.bind(values)
        plan.execute(plan.new_state())


def naive_trajectories(circuit, n_qubits, shots, seed):
    """The historical per-shot gate-by-gate trajectory loop."""
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    measured = circuit.measured_qubits() or tuple(range(n_qubits))
    histogram: dict[str, int] = {}
    for _ in range(shots):
        state = StateVector(n_qubits)
        for instruction in circuit:
            if instruction.is_measurement:
                continue
            if instruction.name == "RESET":
                outcome = state.measure(instruction.qubits[0], rng)
                if outcome == 1:
                    state.apply(X([instruction.qubits[0]]))
                continue
            state.apply(instruction)
        for key, value in state.sample(1, measured, rng).items():
            histogram[key] = histogram.get(key, 0) + value
    return histogram


# ---------------------------------------------------------------------------
# Benchmark suite
# ---------------------------------------------------------------------------


def _best_of(rounds, fn, *args):
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - started)
    return best


def bench_parametric(quick: bool) -> dict:
    n_qubits, layers = (6, 2) if quick else (8, 3)
    repeats = 10 if quick else 50
    rounds = 2 if quick else 3
    circuit, n_params = hwe_ansatz(n_qubits, layers)
    rng = np.random.default_rng(0)
    parameter_sets = [list(rng.uniform(-np.pi, np.pi, n_params)) for _ in range(repeats)]

    parametric_plan = compile_parametric_plan(circuit, n_qubits)
    plan_parametric_evaluation(parametric_plan, parameter_sets[:1])  # warm up

    naive_seconds = _best_of(
        rounds, naive_parametric_evaluation, circuit, parameter_sets, n_qubits
    )
    plan_seconds = _best_of(rounds, plan_parametric_evaluation, parametric_plan, parameter_sets)
    # Secondary baseline: dispatch without the per-call IR passes.
    dispatch_seconds = _best_of(
        rounds, naive_parametric_evaluation, circuit, parameter_sets, n_qubits, False
    )
    return {
        "workload": "parametric_ansatz",
        "n_qubits": n_qubits,
        "layers": layers,
        "parameter_sets": repeats,
        "naive_seconds": naive_seconds,
        "naive_no_passes_seconds": dispatch_seconds,
        "plan_seconds": plan_seconds,
        "speedup": naive_seconds / plan_seconds,
        "speedup_vs_no_passes": dispatch_seconds / plan_seconds,
        "target": SPEEDUP_TARGET_PARAMETRIC,
    }


def bench_trajectory(quick: bool) -> dict:
    n_qubits, layers = (6, 2) if quick else (8, 3)
    shots = 100 if quick else 300
    rounds = 2 if quick else 3
    circuit = reset_circuit(n_qubits, layers)
    engine = ParallelSimulationEngine(num_threads=1)
    plan = compile_plan(circuit, n_qubits, optimize=False)

    naive_seconds = _best_of(rounds, naive_trajectories, circuit, n_qubits, shots, 7)
    plan_seconds = _best_of(
        rounds,
        lambda: engine.run_trajectories(n_qubits, circuit, shots, seed=7, plan=plan),
    )
    naive_counts = naive_trajectories(circuit, n_qubits, shots, 7)
    plan_counts = engine.run_trajectories(n_qubits, circuit, shots, seed=7, plan=plan)
    engine.close()
    return {
        "workload": "trajectory_replay",
        "n_qubits": n_qubits,
        "shots": shots,
        "naive_seconds": naive_seconds,
        "plan_seconds": plan_seconds,
        "speedup": naive_seconds / plan_seconds,
        "counts_identical": naive_counts == plan_counts,
        "target": SPEEDUP_TARGET_TRAJECTORY,
    }


def bench_accelerator_repeats(quick: bool) -> dict:
    """Broker-shaped traffic: the same hot circuit executed repeatedly."""
    n_qubits = 8 if quick else 10
    repeats = 5 if quick else 20
    shots = 256
    circuit = qft_circuit(n_qubits)
    set_config(seed=1234)

    def run_plans():
        accelerator = QppAccelerator()
        for _ in range(repeats):
            buffer = AcceleratorBuffer(n_qubits)
            accelerator.execute(buffer, circuit, shots=shots)

    def run_reference():
        with ParallelSimulationEngine() as engine:
            for _ in range(repeats):
                reference_counts(circuit, n_qubits, shots, 1234, engine)

    reset_plan_cache()
    run_plans()  # warm the plan cache
    plan_seconds = _best_of(2, run_plans)
    legacy_seconds = _best_of(2, run_reference)
    return {
        "workload": "accelerator_repeats",
        "n_qubits": n_qubits,
        "repeats": repeats,
        "shots": shots,
        "legacy_seconds": legacy_seconds,
        "plan_seconds": plan_seconds,
        "speedup": legacy_seconds / plan_seconds,
    }


def _median_us(rounds, fn, *args) -> float:
    samples = []
    for _ in range(rounds):
        started = time.perf_counter()
        fn(*args)
        samples.append(time.perf_counter() - started)
    return statistics.median(samples) * 1e6


def _multinomial_hits(probs, shots, rng):
    counts = rng.multinomial(shots, _normalised(probs, probs.sum()))
    hit = np.flatnonzero(counts)
    return hit, counts[hit]


def _inverse_hits(probs, shots, rng):
    return _inverse_cdf_draw(probs, shots, rng)


def bench_sampling_crossover(quick: bool) -> dict:
    """One draw both ways over (positive bins x shots)."""
    bin_exponents = range(1, 18, 4 if quick else 1)
    shot_counts = [1 << k for k in range(0, 14, 4 if quick else 1)]
    rounds = 3 if quick else 5
    rng = np.random.default_rng(0)
    cells = []
    for exponent in bin_exponents:
        bins = 1 << exponent
        probs = rng.random(bins) + 0.5  # every bin positive, none dominant
        probs /= probs.sum()
        for shots in shot_counts:
            multinomial = _median_us(rounds, _multinomial_hits, probs, shots, rng)
            inverse = _median_us(rounds, _inverse_hits, probs, shots, rng)
            chosen = inverse if _inverse_cdf_wins(shots, bins) else multinomial
            cells.append({
                "bins": bins,
                "shots": shots,
                "multinomial_us": multinomial,
                "inverse_cdf_us": inverse,
                "rule_picks_inverse": _inverse_cdf_wins(shots, bins),
                "rule_regret": chosen / min(multinomial, inverse),
            })
    return {
        "workload": "sampling_crossover",
        "rounds": rounds,
        "cells": cells,
        "max_rule_regret": max(cell["rule_regret"] for cell in cells),
    }


def algorithm_suite() -> dict:
    """(name -> (circuit, width)) for the counts-identity acceptance check."""
    shor = period_finding_circuit(15, 2)
    vqe = deuteron_ansatz_circuit(0.297)
    return {
        "bell": (bell_circuit(2), 2),
        "ghz": (ghz_circuit(5), 5),
        "qft": (qft_circuit(6), 6),
        "shor": (shor, shor.n_qubits),
        "vqe": (vqe, max(vqe.n_qubits, 2)),
    }


def check_identity(shots: int = 512, seed: int = 1234) -> dict:
    """Fixed-seed counts equality: plan path vs the gate-by-gate reference."""
    results = {}
    with ParallelSimulationEngine(num_threads=2) as engine:
        for name, (circuit, width) in algorithm_suite().items():
            set_config(seed=seed)
            planned = AcceleratorBuffer(width)
            QppAccelerator({"threads": 2}).execute(planned, circuit, shots=shots)
            reference = reference_counts(circuit, width, shots, seed, engine)
            results[name] = planned.get_measurement_counts() == reference
    return results


def run_suite(quick: bool = False) -> dict:
    identity = check_identity()
    results = [
        bench_parametric(quick),
        bench_trajectory(quick),
        bench_accelerator_repeats(quick),
    ]
    return {
        "benchmark": "execution_plan",
        "quick": quick,
        "created_unix": time.time(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
        "cpu_model": cpu_model(),
        "results": results,
        "sampling_crossover": bench_sampling_crossover(quick),
        "counts_identity": identity,
        "counts_identity_all": all(identity.values()),
    }


def write_trajectory_file(report: dict, output: Path) -> None:
    output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# pytest entry points
# ---------------------------------------------------------------------------


def test_parametric_plan_speedup_and_trajectory_file(tmp_path):
    """Acceptance: >=3x on parametric replay, >=2x on trajectories, counts
    identical across the algorithm suite; the JSON trajectory file lands."""
    report = run_suite(quick=True)
    write_trajectory_file(report, tmp_path / "BENCH_execution_plan.json")
    parametric, trajectory, repeats = report["results"]
    assert report["counts_identity_all"], report["counts_identity"]
    assert trajectory["counts_identical"]
    print(
        f"\nparametric {parametric['speedup']:.1f}x (target {SPEEDUP_TARGET_PARAMETRIC}x), "
        f"trajectory {trajectory['speedup']:.1f}x (target {SPEEDUP_TARGET_TRAJECTORY}x), "
        f"accelerator repeats {repeats['speedup']:.1f}x"
    )
    assert parametric["speedup"] >= SPEEDUP_TARGET_PARAMETRIC, parametric
    assert trajectory["speedup"] >= SPEEDUP_TARGET_TRAJECTORY, trajectory


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="smaller sizes / fewer repeats")
    parser.add_argument(
        "--output",
        type=Path,
        default=Path("BENCH_execution_plan.json"),
        help="where to write the JSON trajectory file",
    )
    args = parser.parse_args()
    report = run_suite(quick=args.quick)
    write_trajectory_file(report, args.output)
    for result in report["results"]:
        target = result.get("target")
        target_note = f" (target {target}x)" if target else ""
        print(f"{result['workload']}: {result['speedup']:.2f}x{target_note}")
    crossover = report["sampling_crossover"]
    print(f"sampling rule regret: max {crossover['max_rule_regret']:.2f}x over "
          f"{len(crossover['cells'])} (bins, shots) cells")
    print(f"counts identity (bell/ghz/qft/shor/vqe): {report['counts_identity']}")
    print(f"wrote {args.output}")
    ok = report["counts_identity_all"]
    parametric, trajectory, _ = report["results"]
    ok = ok and parametric["speedup"] >= SPEEDUP_TARGET_PARAMETRIC
    ok = ok and trajectory["speedup"] >= SPEEDUP_TARGET_TRAJECTORY
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
