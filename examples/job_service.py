#!/usr/bin/env python3
"""The job broker under multi-tenant load: 16 client threads, one service.

Each client thread plays a tenant running a small variational workload: it
repeatedly submits a QAOA MaxCut circuit (most tenants share a handful of
distinct circuits, as real traffic does) and waits on the returned futures.
The broker serves the flood through a 4-worker dispatcher pool — each worker
holding its own accelerator clone via the QPUManager, the paper's
thread-safe path — while the result cache and batch coalescing collapse the
repeated work into a handful of backend executions.

The second half re-runs the same load in legacy (non-thread-safe) mode and
prints the data races the detector records — the paper's contrast, observed
through a production-shaped workload instead of two hand-rolled threads.

Run with::

    PYTHONPATH=src python examples/job_service.py
"""

import threading
import time

import networkx as nx

import repro
from repro import QuantumJobService, configure
from repro.algorithms.qaoa import qaoa_circuit
from repro.core.race_detector import get_race_detector, reset_race_detector
from repro.obs import disable_profiler, disable_tracing, enable_profiler, enable_tracing

N_CLIENTS = 16
JOBS_PER_CLIENT = 6
SHOTS = 2048

#: Four distinct tenant workloads; clients share them round-robin.
CIRCUITS = [
    qaoa_circuit(nx.cycle_graph(n), gammas=[0.8], betas=[0.4]) for n in (4, 5, 6, 7)
]


def run_clients(service: QuantumJobService) -> float:
    """Hammer ``service`` from N_CLIENTS threads; returns the wall time."""
    barrier = threading.Barrier(N_CLIENTS)

    def client(index: int) -> None:
        barrier.wait()
        circuit = CIRCUITS[index % len(CIRCUITS)]
        handles = [service.submit(circuit, shots=SHOTS) for _ in range(JOBS_PER_CLIENT)]
        for handle in handles:
            result = handle.result(timeout=60)
            assert result.total_counts() == SHOTS

    threads = [threading.Thread(target=client, args=(i,)) for i in range(N_CLIENTS)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - started


def main() -> None:
    total_jobs = N_CLIENTS * JOBS_PER_CLIENT

    print(f"== {N_CLIENTS} tenants x {JOBS_PER_CLIENT} jobs through the broker ==")
    # Observability on for the dashboard: spans trace every job's lifecycle
    # (sampled at 25% to keep overhead bounded under flood traffic), the
    # profiler attributes replay time to kernel classes.
    tracer = enable_tracing(sample_rate=0.25)
    profiler = enable_profiler()
    try:
        with QuantumJobService(backend="qpp", workers=4, max_pending=256) as service:
            wall = run_clients(service)
            metrics = service.metrics()
    finally:
        disable_tracing()
        disable_profiler()
    print(f"jobs completed:      {metrics.completed}/{total_jobs} in {wall * 1e3:.0f} ms")
    print(f"backend executions:  {metrics.executions} "
          f"(coalesced riders: {metrics.coalesced}, cache hits: {metrics.cache_hits})")
    print(f"cache hit rate:      {metrics.cache_hit_rate:.0%}")
    print(f"shots simulated:     {metrics.executed_shots} of {metrics.served_shots} served")
    print(f"throughput:          {metrics.throughput_jobs_per_second:.0f} jobs/s")
    plan_cache = metrics.plan_cache
    print(f"plan cache:          {plan_cache.hits} hits / {plan_cache.lookups} lookups "
          f"({plan_cache.hit_rate:.0%}), {plan_cache.size}/{plan_cache.capacity} plans resident")
    for backend, latency in metrics.backend_latency.items():
        print(f"{backend} execution latency: p50 {latency.p50_seconds * 1e3:.1f} ms / "
              f"p95 {latency.p95_seconds * 1e3:.1f} ms / "
              f"p99 {latency.p99_seconds * 1e3:.1f} ms "
              f"(mean {latency.mean_seconds * 1e3:.1f} ms over {latency.executions} runs)")
    profile = profiler.snapshot()
    if profile.kernels:
        print("\nper-kernel replay profile (cumulative worker-seconds):")
        for line in profile.as_table().splitlines():
            print(f"  {line}")
    traces = tracer.trace_ids()
    if traces:
        # Show the deepest tree (batch leaders host the execution subtree;
        # coalesced riders close with a bare root span).
        richest = max(traces, key=lambda t: len(tracer.spans(t)))
        print(f"\ntraced {len(traces)} of {metrics.completed} jobs; one span tree:")
        for line in tracer.render_tree(richest).splitlines():
            print(f"  {line}")
    races = get_race_detector().race_count()
    print(f"\nrace-detector reports (thread-safe mode): {races}")

    print("\n== the same load in legacy (pre-paper) mode ==")
    reset_race_detector()
    with configure(thread_safe=False):
        # Disable the cache so every job drives the shared simulator, the
        # way the original runtime would have served this traffic.
        with QuantumJobService(workers=4, max_pending=256, enable_cache=False) as legacy:
            run_clients(legacy)
    detector = get_race_detector()
    print(f"race-detector reports (legacy mode):      {detector.race_count()} "
          f"on {sorted(detector.resources_with_races())}")


if __name__ == "__main__":
    main()
