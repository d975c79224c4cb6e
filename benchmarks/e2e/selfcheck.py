"""``run.py --selfcheck``: tests of the harness itself; no timing is asserted.

Checks generator determinism at a fixed seed, the percentile, block-median
and comparison helpers, the span self-time arithmetic, and that the oracle
rejects histograms this file corrupts on purpose.
"""

from __future__ import annotations

import numpy as np

import oracle
import stats
from workloads import WORKLOADS, Job, ansatz_circuit, ghz_chain_circuit

from repro import QuantumJobService, set_config


def check_determinism() -> None:
    for name, cls in WORKLOADS.items():
        digests = []
        for seed in (11, 11, 12):
            workload = cls(seed)
            try:
                workload.prepare()
                workload.next_block()
                digests.append(workload.inputs_digest())
            finally:
                workload.close()
        assert digests[0] == digests[1], f"{name}: same seed, different inputs"
        # The paper's kernels are fixed circuits; every other workload's
        # inputs must move with the seed.
        assert (digests[0] != digests[2]) == (name != "paper_kernels"), name


def check_statistics() -> None:
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert stats.percentile(values, 50) == 3.0
    assert stats.percentile(values, 95) == 5.0
    assert stats.percentile(values, 0) == 1.0
    assert stats.percentile([7.0], 95) == 7.0
    middle, spread = stats.block_median([10.0, 12.0, 11.0, 9.0, 13.0])
    assert middle == 11.0 and abs(spread - 3.0 / 11.0) < 1e-12
    assert stats.block_median([4.0]) == (4.0, 0.0)

    def verdict(better, after, spread=0.02):
        return stats.compare("m", better, 0.1, {"value": 100.0, "spread": 0.02},
                             {"value": after, "spread": spread})["verdict"]

    assert verdict("lower", 105.0) == "pass"
    assert verdict("lower", 115.0) == "regress"
    assert verdict("higher", 85.0) == "regress"
    assert verdict("higher", 115.0) == "pass"
    assert verdict("lower", 115.0, spread=0.3) == "unresolved"


def check_self_times() -> None:
    def span(op, layer, parent, start, end):
        return {"op_id": op, "layer": layer, "parent_layer": parent, "start": start, "end": end}

    spans = [
        span(0, "root", None, 0.0, 10.0),
        span(0, "mid", "root", 20.0, 26.0),   # replayed later: own clock interval
        span(0, "leaf_a", "mid", 30.0, 32.0),
        span(0, "leaf_b", "mid", 40.0, 43.0),
        span(0, "leaf_c", "root", 50.0, 51.0),
        span(1, "root", None, 60.0, 61.0),
    ]
    selfs = stats.self_times(spans)
    assert selfs[0, "root"] == 10.0 - 6.0 - 1.0
    assert selfs[0, "mid"] == 6.0 - 2.0 - 3.0
    assert selfs[0, "leaf_a"] == 2.0 and selfs[1, "root"] == 1.0
    assert sum(v for (op, _), v in selfs.items() if op == 0) == 10.0


def check_oracle() -> None:
    set_config(seed=1234)
    rng = np.random.default_rng(5)
    jobs = [
        Job(ansatz_circuit(rng, 6, 2), 1024, "ansatz"),
        Job(ghz_chain_circuit(rng, 6), 1024, "ghz", support=("000000", "111111")),
    ]
    with QuantumJobService(workers=1, name="e2e-selfcheck") as service:
        results = [dict(service.submit(j.circuit, shots=j.shots).result(timeout=60).counts)
                   for j in jobs]
    for job, counts in zip(jobs, results):
        assert oracle.check_counts(job, counts) == [], "oracle rejected a correct histogram"
    ansatz, ghz = results
    short = dict(ansatz)
    short[next(iter(short))] += 1
    assert oracle.check_counts(jobs[0], short), "oracle accepted a wrong shot total"
    reversed_bits = {bits[::-1]: count for bits, count in ansatz.items()}
    assert oracle.check_counts(jobs[0], reversed_bits), "oracle accepted reversed bit order"
    stray = dict(ghz)
    stray["010101"] = stray.pop("000000")
    assert oracle.check_counts(jobs[1], stray), "oracle accepted an outcome outside the support"


def main() -> int:
    for check in (check_statistics, check_self_times, check_oracle, check_determinism):
        check()
        print(f"selfcheck: {check.__name__} ok")
    return 0
