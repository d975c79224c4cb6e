"""Calibration benchmark — the measured profile and the complex64 bound.

Runs a host calibration (per-kernel cost factors, plan-step dispatch,
tableau gate cost), records the profile and the cost model built from it,
and gates the one binding invariant this file owns: the complex64 tier
stays within the documented 1e-4 max amplitude deviation from complex128
across bell/ghz/qft/shor/vqe.  Which lane replays a plan is not priced
here; that is the fixed chunk-threshold rule in ``LocalBackend``.

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
from repro.simulator.cost_model import SimulationCostModel
from repro.simulator.execution_plan import compile_plan

#: Documented complex64 fidelity bound (max |amp64 - amp128|).
AMPLITUDE_BOUND = 1e-4


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
    profile = run_calibration(quick=quick, profile_path=profile_path)
    model = SimulationCostModel.from_profile(profile)
    fidelity = check_single_precision_fidelity()
    return {
        "benchmark": "calibration",
        "quick": quick,
        "created_unix": time.time(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
        "amplitude_bound": AMPLITUDE_BOUND,
        "profile": json.loads(profile.to_json()),
        "cost_model": {
            k: (dict(v) if isinstance(v, dict) else v)
            for k, v in asdict(model).items()
        },
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


def test_calibration_profile_and_precision_bound(tmp_path):
    """Acceptance, enforced on every host: the quick calibration yields a
    complete kernel-factor table and complex64 stays within the documented
    amplitude bound.  The JSON artifact lands either way."""
    report = run_suite(quick=True, profile_path=tmp_path / "calibration.json")
    write_trajectory_file(report, tmp_path / "BENCH_calibration.json")
    assert report["profile"]["kernel_cost_factors"]["single"] == 1.0
    assert report["single_precision_within_bound_all"], report[
        "single_precision_fidelity"
    ]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="smaller states / fewer repeats")
    parser.add_argument(
        "--output",
        type=Path,
        default=Path("BENCH_calibration.json"),
        help="where to write the JSON trajectory file",
    )
    args = parser.parse_args()
    report = run_suite(quick=args.quick)
    write_trajectory_file(report, args.output)
    print(f"kernel cost factors: {report['profile']['kernel_cost_factors']}")
    print(f"plan-step dispatch: {report['profile']['plan_step_dispatch_cost']} units")
    worst = max(
        f["max_amplitude_deviation"]
        for f in report["single_precision_fidelity"].values()
    )
    print(f"complex64 worst amplitude deviation: {worst:.2e} (bound {AMPLITUDE_BOUND})")
    print(f"wrote {args.output}")
    return 0 if report["single_precision_within_bound_all"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
