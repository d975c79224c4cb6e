"""repro.exec — the unified execution-backend layer.

One protocol (:class:`ExecutionBackend`) behind every execution path:

* :class:`LocalBackend` — in-process plan replay (shared plan cache + the
  thread-pool simulation engine); the default seam under the qpp
  accelerator, ``core/executor`` and the job broker.
* :class:`ShardedExecutor` — process-sharded plan replay: persistent
  worker processes, circuits shipped by content hash + canonical JSON,
  hash-affine job routing (with cold-key work stealing), worker-death
  retry.
* :class:`DensityBackend` — density-matrix evolution (the noisy
  accelerator's seam).
* :class:`StabilizerBackend` — CHP-style tableau execution for Clifford
  circuits: O(n²) per measurement instead of O(2^n) amplitudes, the lane
  the cost model routes Clifford-only jobs to automatically.
* :class:`SharedStatePool` — not a backend but the shared-memory
  :class:`~repro.simulator.execution_plan.ChunkPool`: worker processes
  cooperating on one large state through shared amplitude buffers, the
  lane :class:`LocalBackend` takes for ≥20-qubit replays when configured.

Both process lanes run the worker library in :mod:`repro.exec.workers`:
one circuit payload, one worker plan cache and one job envelope, under
each lane's own process supervisor.  The backends return
:class:`ExecutionResult`.
"""

from .backend import DensityBackend, ExecutionBackend, LocalBackend
from .result import ExecutionResult
from .retry import (
    DEFAULT_RETRY_POLICY,
    NO_RETRY,
    RetryPolicy,
    is_infrastructure_failure,
    is_retryable,
)
from .sharded import ShardedExecutor, get_sharded_executor, shutdown_sharded_executors
from .shm import SharedStatePool, get_shared_state_pool, shutdown_shared_state_pools
from .stabilizer import StabilizerBackend, StabilizerTableau, estimate_tableau_bytes

__all__ = [
    "ExecutionBackend",
    "ExecutionResult",
    "LocalBackend",
    "DensityBackend",
    "StabilizerBackend",
    "StabilizerTableau",
    "estimate_tableau_bytes",
    "RetryPolicy",
    "DEFAULT_RETRY_POLICY",
    "NO_RETRY",
    "is_retryable",
    "is_infrastructure_failure",
    "ShardedExecutor",
    "SharedStatePool",
    "get_sharded_executor",
    "get_shared_state_pool",
    "shutdown_sharded_executors",
    "shutdown_shared_state_pools",
]
