"""Reference trajectory sampler: the per-shot loop the branch tree replaced.

Kept as the oracle :func:`repro.simulator.parallel_engine.sample_trajectories`
is tested against: every shot replays the whole plan — resets drawn by
:meth:`~repro.simulator.execution_plan.ExecutionPlan.execute` — and samples
one outcome from the final state, so a job costs ``shots`` full replays and
is only fit for tests.  The branch tree must reproduce its fixed-seed
histograms exactly, key order included.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..simulator.execution_plan import ExecutionPlan
from ..simulator.sampling import job_rng, sample_counts

__all__ = ["reference_sample_trajectories", "reference_trajectory_counts"]


def reference_sample_trajectories(
    plan: ExecutionPlan,
    shots: int,
    rng: np.random.Generator,
    measured: Sequence[int],
    n_qubits: int,
    pool=None,
) -> dict[str, int]:
    """``shots`` full plan replays on ``rng``, one sample each."""
    histogram: dict[str, int] = {}
    data: np.ndarray | None = None
    for _ in range(shots):
        if data is None:
            data = plan.new_state()
        else:
            # Recycle the previous trajectory's buffer instead of
            # allocating a fresh 2^n array per shot.
            data.fill(0.0)
            data[0] = 1.0
        data = plan.execute(data, rng=rng, pool=pool)
        sample = sample_counts(np.abs(data) ** 2, 1, measured, n_qubits, rng)
        for key, value in sample.items():
            histogram[key] = histogram.get(key, 0) + value
    return histogram


def reference_trajectory_counts(
    plan: ExecutionPlan,
    shots: int,
    seed: int | None,
    measured: Sequence[int],
    n_qubits: int,
) -> dict[str, int]:
    """A whole job as the engine draws it: every shot on ``job_rng(seed)``."""
    return reference_sample_trajectories(plan, shots, job_rng(seed), measured, n_qubits)
