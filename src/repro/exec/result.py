"""The result type every execution backend returns.

One dataclass covers the in-process path, the process-sharded path and the
density-matrix path: a histogram plus enough provenance (plan-cache
behaviour, retry count) for callers — accelerators, the job broker,
benchmarks — to assert on *how* the result was produced, not just what it
contains.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

__all__ = ["ExecutionResult"]


@dataclass(frozen=True)
class ExecutionResult:
    """Outcome of one backend execution."""

    #: Measurement histogram (bitstring -> observations).
    counts: Mapping[str, int]
    #: Number of shots the execution produced (``counts`` sums to this).
    shots: int
    #: Width of the simulated register.
    n_qubits: int
    #: Name of the backend that produced the result.
    backend: str
    #: Wall-clock seconds of the execution, including plan compilation when
    #: the plan cache missed (cached replays pay only the lookup).
    seconds: float = 0.0
    #: True when the execution replayed an already-compiled plan.
    plan_cached: bool = False
    #: Depth of the optimised circuit the plan was lowered from.
    depth: int = 0
    #: Unitary gate count of the optimised circuit.
    n_gates: int = 0
    #: Shard tasks that had to be re-executed after a worker died.
    retries: int = 0
    #: Backend-specific extras (e.g. density-matrix purity).
    extra: Mapping[str, object] = field(default_factory=dict)

    def total_counts(self) -> int:
        return sum(self.counts.values())

    def __post_init__(self) -> None:
        if self.shots <= 0:
            raise ValueError(f"shots must be positive, got {self.shots}")
