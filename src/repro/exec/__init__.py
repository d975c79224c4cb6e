"""repro.exec — the unified execution-backend layer.

One protocol (:class:`ExecutionBackend`) behind every execution path:

* :class:`LocalBackend` — in-process plan replay (shared plan cache + the
  thread-pool simulation engine); the default seam under the qpp
  accelerator, ``core/executor`` and the job broker.
* :class:`ShardedExecutor` — a name kept over :class:`LocalBackend` with
  an engine of its own (the process lane it named was retired; see
  :mod:`repro.exec.sharded`).
* :class:`DensityBackend` — density-matrix evolution (the noisy
  accelerator's seam).
* :class:`StabilizerBackend` — CHP-style tableau execution for Clifford
  circuits: O(n²) per measurement instead of O(2^n) amplitudes, the lane
  the cost model routes Clifford-only jobs to automatically.

Every backend runs in this process and returns :class:`ExecutionResult`.
"""

from .backend import DensityBackend, ExecutionBackend, LocalBackend
from .result import ExecutionResult
from .sharded import ShardedExecutor
from .stabilizer import StabilizerBackend, StabilizerTableau, estimate_tableau_bytes

__all__ = [
    "ExecutionBackend",
    "ExecutionResult",
    "LocalBackend",
    "DensityBackend",
    "StabilizerBackend",
    "StabilizerTableau",
    "estimate_tableau_bytes",
    "ShardedExecutor",
]
