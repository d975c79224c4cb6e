"""Observability overhead benchmark — tracing/profiling must stay cheap.

The observability layer (:mod:`repro.obs`) instruments the hottest paths in
the repo: ``ExecutionPlan.execute``'s kernel loop, ``LocalBackend.execute``
and the broker's dispatch path.  Its contract is *pay only when switched
on*: disabled, every hook is one global read and a branch; enabled,
tracing + per-kernel profiling together must add **less than 5%** to an
18-qubit plan replay.

Unlike the speedup benchmarks, the overhead gate binds on **every** host —
a 1-core container measures a branch and a ``perf_counter`` call exactly as
well as a 64-core box does.

Run standalone (writes ``BENCH_obs_overhead.json`` and a Chrome trace
artifact loadable in Perfetto/chrome://tracing)::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py [--quick]

or through pytest::

    PYTHONPATH=src python -m pytest benchmarks/bench_obs_overhead.py -q
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from pathlib import Path

import numpy as np

from repro.exec import LocalBackend
from repro.obs import (
    disable_profiler,
    disable_tracing,
    enable_profiler,
    enable_tracing,
    get_tracer,
    to_chrome_trace,
)
from repro.simulator.parallel_engine import ParallelSimulationEngine

from bench_shm_replay import deep_circuit

#: Enabled-observability overhead ceiling vs the disabled baseline.
OVERHEAD_LIMIT = 1.05
#: Replay size: 2^18 amplitudes keeps each kernel step large enough that
#: per-step timer calls are measured against real work, not loop overhead.
REPLAY_QUBITS = 18
#: Few shots: the gate targets the replay loop, not the sampler.
SHOTS = 64


def _best_of(rounds: int, fn) -> float:
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def bench_overhead(quick: bool) -> dict:
    """Best-of replay latency, observability off vs fully on."""
    layers = 2 if quick else 4
    rounds = 3 if quick else 5
    circuit = deep_circuit(REPLAY_QUBITS, layers)
    backend = LocalBackend(engine=ParallelSimulationEngine(num_threads=1))
    tracer = get_tracer()
    try:
        run = lambda: backend.execute(circuit, SHOTS, seed=7)
        reference = run()  # warm the plan cache; both modes replay only

        disable_tracing()
        disable_profiler()
        disabled_seconds = _best_of(rounds, run)

        enable_tracing()
        enable_profiler()
        traced = run()
        enabled_seconds = _best_of(rounds, run)
        identical = bool(dict(traced.counts) == dict(reference.counts))
    finally:
        disable_tracing()
        disable_profiler()
        backend.close()
    span_count = len(tracer.spans())
    return {
        "workload": "plan_replay",
        "n_qubits": REPLAY_QUBITS,
        "layers": layers,
        "shots": SHOTS,
        "rounds": rounds,
        "disabled_seconds": disabled_seconds,
        "enabled_seconds": enabled_seconds,
        "overhead_ratio": enabled_seconds / disabled_seconds,
        "limit": OVERHEAD_LIMIT,
        "spans_recorded": span_count,
        "counts_identical_with_obs": identical,
    }


def traced_workload_artifact(output: Path) -> dict:
    """One fully-traced + profiled job; writes the Chrome trace artifact.

    This is the CI smoke artifact: a real execution's span tree rendered as
    trace-event JSON so a failing run can be *looked at* in Perfetto.
    """
    circuit = deep_circuit(10, 2)
    backend = LocalBackend(engine=ParallelSimulationEngine(num_threads=1))
    tracer = enable_tracing()
    profiler = enable_profiler()
    try:
        with tracer.span("bench-job", attrs={"workload": "obs-smoke"}) as root:
            backend.execute(circuit, 128, seed=7)
        spans = tracer.spans(root.trace_id)
        document = to_chrome_trace(spans)
        output.write_text(document + "\n")
        json.loads(document)  # the artifact must be loadable JSON
        snapshot = profiler.snapshot()
        return {
            "trace_file": str(output),
            "spans": len(spans),
            "kernel_classes": sorted(snapshot.kernels),
            "total_kernel_seconds": snapshot.total_kernel_seconds,
        }
    finally:
        disable_tracing()
        disable_profiler()
        backend.close()


def run_suite(quick: bool = False, trace_output: Path | None = None) -> dict:
    overhead = bench_overhead(quick)
    artifact = traced_workload_artifact(trace_output or Path("BENCH_obs_trace.json"))
    return {
        "benchmark": "obs_overhead",
        "quick": quick,
        "created_unix": time.time(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
        "results": [overhead],
        "trace_artifact": artifact,
    }


def write_trajectory_file(report: dict, output: Path) -> None:
    output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# pytest entry points
# ---------------------------------------------------------------------------


def test_obs_overhead_under_limit(tmp_path):
    """Acceptance (all hosts): tracing + profiling enabled adds <5% to an
    18-qubit replay, perturbs no counts, and the traced run's Chrome trace
    artifact is valid JSON."""
    report = run_suite(quick=True, trace_output=tmp_path / "BENCH_obs_trace.json")
    write_trajectory_file(report, tmp_path / "BENCH_obs_overhead.json")
    (overhead,) = report["results"]
    print(
        f"\nobs overhead at {overhead['n_qubits']} qubits: "
        f"{(overhead['overhead_ratio'] - 1) * 100:+.2f}% "
        f"(disabled {overhead['disabled_seconds'] * 1e3:.1f}ms, "
        f"enabled {overhead['enabled_seconds'] * 1e3:.1f}ms, "
        f"limit +{(OVERHEAD_LIMIT - 1) * 100:.0f}%)"
    )
    assert overhead["counts_identical_with_obs"], "observability changed counts"
    assert overhead["spans_recorded"] > 0
    assert overhead["overhead_ratio"] < OVERHEAD_LIMIT, overhead
    assert report["trace_artifact"]["spans"] > 0


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="fewer layers/rounds")
    parser.add_argument(
        "--output",
        type=Path,
        default=Path("BENCH_obs_overhead.json"),
        help="where to write the JSON trajectory file",
    )
    parser.add_argument(
        "--trace-output",
        type=Path,
        default=Path("BENCH_obs_trace.json"),
        help="where to write the Chrome trace-event artifact",
    )
    args = parser.parse_args()
    report = run_suite(quick=args.quick, trace_output=args.trace_output)
    write_trajectory_file(report, args.output)
    (overhead,) = report["results"]
    print(
        f"plan replay at {overhead['n_qubits']} qubits: "
        f"disabled {overhead['disabled_seconds'] * 1e3:.1f}ms, "
        f"enabled {overhead['enabled_seconds'] * 1e3:.1f}ms "
        f"({(overhead['overhead_ratio'] - 1) * 100:+.2f}%, "
        f"limit +{(OVERHEAD_LIMIT - 1) * 100:.0f}%, enforced on all hosts)"
    )
    print(
        f"counts identical with obs on: {overhead['counts_identical_with_obs']}; "
        f"spans recorded: {overhead['spans_recorded']}"
    )
    print(
        f"chrome trace artifact: {report['trace_artifact']['trace_file']} "
        f"({report['trace_artifact']['spans']} spans, kernels "
        f"{report['trace_artifact']['kernel_classes']})"
    )
    print(f"wrote {args.output}")
    ok = (
        overhead["counts_identical_with_obs"]
        and overhead["overhead_ratio"] < OVERHEAD_LIMIT
    )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
