"""``ShardedExecutor``: a name kept over in-process execution.

Jobs run in one process, on threads.  Process shards never beat in-process
dispatch by the 1.2x their survival needed on broker traffic
(``BENCH_dispatch_grid.json``), so this name stays only for callers that
build ``ShardedExecutor(processes)``, ``compile`` / ``execute`` on it and
``close()`` it: it is a :class:`LocalBackend` owning an engine on
``processes`` threads, and it starts no process.
"""

from __future__ import annotations

from ..exceptions import ExecutionError
from ..simulator.parallel_engine import ParallelSimulationEngine
from .backend import LocalBackend

__all__ = ["ShardedExecutor"]


class ShardedExecutor(LocalBackend):
    """A :class:`LocalBackend` whose engine runs ``processes`` threads."""

    def __init__(self, processes: int = 2, *, name: str = "exec-shard"):
        if processes < 1:
            raise ExecutionError(f"processes must be at least 1, got {processes}")
        super().__init__(engine=ParallelSimulationEngine(num_threads=int(processes)))
        self._owns_engine = True
        self.processes = int(processes)
        self.name = name
