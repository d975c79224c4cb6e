"""Calibration benchmark — modeled lane ranking vs measured lane times.

Runs a quick host calibration, builds the cost model from the persisted
profile, and checks the model's *adaptive lane selection* against reality:
for each workload the lane the model would route to must land within
``RANKING_TOLERANCE`` of the measured-cheapest lane.  The gate is enforced
on **every** host, including 1-core containers — there the viable lane set
collapses to ``{serial}`` (exactly what the adaptive backend sees through
``effective_threads``), so the model must simply agree that serial wins.

Also re-verifies the two result invariants the adaptive selector rests on:

* fixed-seed counts are **bit-identical** with adaptive routing on vs off
  at complex128 across bell/ghz/qft/shor/vqe;
* the complex64 tier stays within the documented 1e-4 max amplitude
  deviation from complex128 on the same suite.

Run standalone (writes the ``BENCH_calibration.json`` trajectory file)::

    PYTHONPATH=src python benchmarks/bench_calibration.py [--quick]

or through pytest::

    PYTHONPATH=src python -m pytest benchmarks/bench_calibration.py -q
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from repro.algorithms.bell import bell_circuit
from repro.algorithms.ghz import ghz_circuit
from repro.algorithms.qft import qft_circuit
from repro.algorithms.shor import period_finding_circuit
from repro.algorithms.vqe import deuteron_ansatz_circuit
from repro.calibrate import run_calibration
from repro.exec import LocalBackend, SharedStatePool
from repro.ir.builder import CircuitBuilder
from repro.simulator.cost_model import SimulationCostModel
from repro.simulator.execution_plan import compile_plan
from repro.simulator.parallel_engine import ParallelSimulationEngine

#: The modeled-cheapest lane's *measured* time may exceed the measured
#: minimum by at most this factor.  Enforced on every host.
RANKING_TOLERANCE = 1.25

#: Documented complex64 fidelity bound (max |amp64 - amp128|).
AMPLITUDE_BOUND = 1e-4


def host_cores() -> int:
    return os.cpu_count() or 1


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


def _best_of(rounds: int, fn) -> float:
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def ranking_circuit(n_qubits: int, layers: int):
    """RX layers + CX ladder: a plan with no structure the optimizer can
    collapse, so the modeled step sequence is exactly what replays."""
    builder = CircuitBuilder(n_qubits, name=f"rank_{n_qubits}q_{layers}l")
    for layer in range(layers):
        for qubit in range(n_qubits):
            builder.rx(qubit, 0.1 + 0.07 * layer + 0.013 * qubit)
        for qubit in range(n_qubits - 1):
            builder.cx(qubit, qubit + 1)
    return builder.build()


# ---------------------------------------------------------------------------
# Modeled vs measured lane ranking
# ---------------------------------------------------------------------------


def measure_lane_ranking(model: SimulationCostModel, profile, quick: bool) -> list[dict]:
    """Per workload: the model's lane prediction vs measured lane seconds.

    The viable lane set mirrors what the adaptive backend sees in
    production: threads only when the calibration recommended a thread
    count > 1, shm only when the shm stage measured a barrier cost.
    """
    threads = int(profile.recommended_threads or 1)
    shm_workers = int(profile.recommended_shm_workers or 0)
    rounds = 2 if quick else 3
    workloads = [(8, 2), (12, 2)] if quick else [(8, 3), (12, 3), (15, 2)]

    engine = ParallelSimulationEngine(num_threads=threads) if threads > 1 else None
    pool = (
        SharedStatePool(shm_workers, name="bench-cal-rank")
        if shm_workers > 1
        else None
    )
    rankings = []
    try:
        for n_qubits, layers in workloads:
            plan = compile_plan(
                ranking_circuit(n_qubits, layers),
                n_qubits,
                chunk_threshold=model.chunk_threshold,
            )
            predicted = model.lane_costs(
                plan, 0, threads=threads, shm_workers=shm_workers
            )
            choice = model.choose_lane(
                plan, 0, threads=threads, shm_workers=shm_workers
            )
            measured = {
                "serial": _best_of(rounds, lambda: plan.execute(plan.new_state()))
            }
            if engine is not None:
                measured["threads"] = _best_of(
                    rounds, lambda: plan.execute(plan.new_state(), pool=engine)
                )
            if pool is not None:
                measured["shm"] = _best_of(
                    rounds, lambda: plan.execute(plan.new_state(), pool=pool)
                )
            cheapest = min(measured, key=measured.get)
            within = measured[choice] <= measured[cheapest] * RANKING_TOLERANCE
            rankings.append(
                {
                    "n_qubits": n_qubits,
                    "plan_steps": plan.n_steps,
                    "modeled_units": predicted,
                    "modeled_choice": choice,
                    "measured_seconds": measured,
                    "measured_cheapest": cheapest,
                    "agreement": choice == cheapest,
                    "within_tolerance": bool(within),
                }
            )
    finally:
        if engine is not None:
            engine.close()
        if pool is not None:
            pool.close()
    return rankings


# ---------------------------------------------------------------------------
# Result invariants: adaptive identity at complex128, fidelity at complex64
# ---------------------------------------------------------------------------


def check_adaptive_identity(model: SimulationCostModel, shots: int = 512, seed: int = 1234) -> dict:
    fixed = LocalBackend(adaptive=False)
    adaptive = LocalBackend(adaptive=True, cost_model=model)
    results = {}
    for name, (circuit, width) in algorithm_suite().items():
        reference = fixed.execute(circuit, shots, n_qubits=width, seed=seed)
        routed = adaptive.execute(circuit, shots, n_qubits=width, seed=seed)
        results[name] = dict(routed.counts) == dict(reference.counts)
    return results


def check_single_precision_fidelity() -> dict:
    results = {}
    for name, (circuit, width) in algorithm_suite().items():
        double_plan = compile_plan(circuit, width)
        single_plan = compile_plan(circuit, width, precision="single")
        ref = double_plan.execute(double_plan.new_state())
        low = single_plan.execute(single_plan.new_state())
        deviation = float(np.max(np.abs(low.astype(np.complex128) - ref)))
        results[name] = {
            "max_amplitude_deviation": deviation,
            "within_bound": deviation <= AMPLITUDE_BOUND,
        }
    return results


def run_suite(quick: bool = False, profile_path: Path | None = None) -> dict:
    profile = run_calibration(quick=True, profile_path=profile_path)
    model = SimulationCostModel.from_profile(profile)
    rankings = measure_lane_ranking(model, profile, quick)
    identity = check_adaptive_identity(model)
    fidelity = check_single_precision_fidelity()
    return {
        "benchmark": "calibration",
        "quick": quick,
        "created_unix": time.time(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": host_cores(),
        "ranking_tolerance": RANKING_TOLERANCE,
        "amplitude_bound": AMPLITUDE_BOUND,
        "profile": json.loads(profile.to_json()),
        "cost_model": {
            k: (dict(v) if isinstance(v, dict) else v)
            for k, v in asdict(model).items()
        },
        "lane_rankings": rankings,
        "ranking_within_tolerance_all": all(r["within_tolerance"] for r in rankings),
        "adaptive_counts_identity": identity,
        "adaptive_counts_identity_all": all(identity.values()),
        "single_precision_fidelity": fidelity,
        "single_precision_within_bound_all": all(
            f["within_bound"] for f in fidelity.values()
        ),
    }


def write_trajectory_file(report: dict, output: Path) -> None:
    output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# pytest entry point
# ---------------------------------------------------------------------------


def test_calibrated_lane_ranking_and_precision_bounds(tmp_path):
    """Acceptance, enforced on every host including 1-core: the modeled
    lane choice lands within tolerance of the measured-cheapest lane,
    adaptive routing is count-identical at complex128, and complex64 stays
    within the documented amplitude bound.  The JSON artifact lands
    either way."""
    report = run_suite(quick=True, profile_path=tmp_path / "calibration.json")
    write_trajectory_file(report, tmp_path / "BENCH_calibration.json")
    assert report["adaptive_counts_identity_all"], report["adaptive_counts_identity"]
    assert report["single_precision_within_bound_all"], report[
        "single_precision_fidelity"
    ]
    assert report["ranking_within_tolerance_all"], report["lane_rankings"]
    for ranking in report["lane_rankings"]:
        print(
            f"\n{ranking['n_qubits']}q: modeled={ranking['modeled_choice']} "
            f"measured-cheapest={ranking['measured_cheapest']} "
            f"(agree={ranking['agreement']}, within tolerance)"
        )


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="fewer workloads/rounds")
    parser.add_argument(
        "--output",
        type=Path,
        default=Path("BENCH_calibration.json"),
        help="where to write the JSON trajectory file",
    )
    args = parser.parse_args()
    report = run_suite(quick=args.quick)
    write_trajectory_file(report, args.output)
    for ranking in report["lane_rankings"]:
        measured = {k: f"{v * 1e3:.2f}ms" for k, v in ranking["measured_seconds"].items()}
        print(
            f"{ranking['n_qubits']}q ({ranking['plan_steps']} steps): "
            f"modeled={ranking['modeled_choice']} measured={measured} "
            f"cheapest={ranking['measured_cheapest']} "
            f"within_tolerance={ranking['within_tolerance']}"
        )
    print(f"adaptive counts identical: {report['adaptive_counts_identity']}")
    worst = max(
        f["max_amplitude_deviation"]
        for f in report["single_precision_fidelity"].values()
    )
    print(f"complex64 worst amplitude deviation: {worst:.2e} (bound {AMPLITUDE_BOUND})")
    print(f"wrote {args.output}")
    ok = (
        report["ranking_within_tolerance_all"]
        and report["adaptive_counts_identity_all"]
        and report["single_precision_within_bound_all"]
    )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
