"""``SharedStatePool``: a name kept over the thread chunk engine.

One state is split across workers one way, by the chunk-parallel replay of
:class:`~repro.simulator.parallel_engine.ParallelSimulationEngine`.  A
shared-memory process lane never beat it by the 1.2x its survival needed
(``BENCH_shm_replay.json``), so this name stays only for callers that build
``SharedStatePool(processes)``, pass it as ``pool=`` and ``close()`` it: it
is an engine on ``processes`` threads and creates no process and no
``/dev/shm`` segment.
"""

from __future__ import annotations

from ..exceptions import ExecutionError
from ..simulator.parallel_engine import ParallelSimulationEngine

__all__ = ["SharedStatePool"]


class SharedStatePool(ParallelSimulationEngine):
    """A :class:`ParallelSimulationEngine` on ``processes`` threads."""

    def __init__(self, processes: int = 2):
        if processes < 1:
            raise ExecutionError(f"processes must be at least 1, got {processes}")
        super().__init__(num_threads=int(processes))
