"""Reference trajectory sampler: the per-shot loop the branch tree replaced.

Kept as the oracle :func:`repro.simulator.parallel_engine.replay_trajectory_chunk`
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
from ..simulator.parallel_engine import merge_counts, split_shots
from ..simulator.sampling import sample_counts

__all__ = ["reference_trajectory_chunk", "reference_trajectory_counts"]


def reference_trajectory_chunk(
    plan: ExecutionPlan,
    shots: int,
    rng: np.random.Generator,
    measured: Sequence[int],
    n_qubits: int,
    pool=None,
) -> dict[str, int]:
    """One chunk: ``shots`` full plan replays on ``rng``, one sample each."""
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
    threads: int,
    measured: Sequence[int],
    n_qubits: int,
) -> dict[str, int]:
    """A whole job as the engine splits it: one seeded chunk per thread,
    merged in chunk order."""
    chunks = split_shots(shots, threads)
    seeds = np.random.SeedSequence(seed).spawn(len(chunks))
    return merge_counts(
        reference_trajectory_chunk(
            plan, chunk, np.random.default_rng(seq), measured, n_qubits
        )
        for chunk, seq in zip(chunks, seeds)
    )
