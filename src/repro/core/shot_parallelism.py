"""Shot-level parallelism (Section II of the paper).

The paper identifies shot-level parallelism as the middle level of the
hierarchy (between task-level and inner-simulator parallelism) but does not
evaluate it.  We implement it so the ablation benchmark can: the requested
shots are split into chunks, each chunk is executed as an independent kernel
launch on its own worker (each worker initialising its own per-thread QPU
clone), and the histograms are merged.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..config import get_config
from ..exceptions import ConfigurationError, ExecutionError
from ..ir.composite import CompositeInstruction
from ..runtime.buffer import AcceleratorBuffer
from ..runtime.service_registry import get_accelerator
from ..simulator.sampling import merge_counts
from .threading_api import qcor_async

__all__ = ["execute_shots_parallel", "split_shots"]


def split_shots(shots: int, workers: int) -> list[int]:
    """Split ``shots`` into ``workers`` near-equal positive chunks."""
    if shots <= 0:
        raise ExecutionError(f"shots must be positive, got {shots}")
    if workers <= 0:
        raise ExecutionError(f"workers must be positive, got {workers}")
    workers = min(workers, shots)
    base, remainder = divmod(shots, workers)
    return [base + (1 if i < remainder else 0) for i in range(workers)]


def execute_shots_parallel(
    circuit: CompositeInstruction,
    n_qubits: int,
    shots: int | None = None,
    workers: int = 2,
    backend: str | None = None,
    accelerator_options: Mapping[str, object] | None = None,
) -> dict[str, int]:
    """Execute ``circuit`` with its shots distributed over ``workers`` tasks.

    Returns the merged measurement histogram.  Each worker executes the full
    circuit with ``shots / workers`` shots on its own accelerator clone, so
    the workers are completely independent — the shot-level analogue of the
    paper's task-level parallelism.

    A single chunk runs at the global ``seed`` and is the plain execution's
    histogram.  Several chunks each run at the ``i``-th child of that seed
    (``SeedSequence(seed).spawn(chunks)[i]``, passed as the accelerator's
    ``seed`` option), so under a fixed seed the merged histogram is
    reproducible and matches the one-worker draw *in distribution only*.
    """
    if workers < 1:
        raise ConfigurationError(f"workers must be at least 1, got {workers}")
    total_shots = shots if shots is not None else get_config().shots
    chunks = split_shots(total_shots, workers)

    def run_chunk(chunk_shots: int, seed: int | None) -> dict[str, int]:
        options = dict(accelerator_options or {})
        if seed is not None:
            options["seed"] = seed
        accelerator = get_accelerator(backend, options)
        buffer = AcceleratorBuffer(n_qubits)
        accelerator.execute(buffer, circuit, shots=chunk_shots)
        return buffer.get_measurement_counts()

    if len(chunks) == 1:
        return run_chunk(chunks[0], None)
    seed = get_config().seed
    seeds = [
        None if seed is None else int(child.generate_state(1, np.uint64)[0])
        for child in np.random.SeedSequence(seed).spawn(len(chunks))
    ]
    futures = [qcor_async(run_chunk, chunk, child) for chunk, child in zip(chunks, seeds)]
    return merge_counts(future.result() for future in futures)
