"""Async clients on the quantum job broker: ``await service.asubmit(...)``.

The broker's dispatcher runs on threads, but modern service frontends are asyncio event loops.  This example bridges
the two: a single event loop plays eight concurrent "tenants", each
submitting a mix of Bell/GHZ/QFT jobs without ever blocking the loop —
``asubmit`` hops the (possibly backpressured) submit onto a thread, and the
returned :class:`~repro.service.job.JobHandle` is awaitable directly.

Run with::

    PYTHONPATH=src python examples/async_job_service.py
"""

from __future__ import annotations

import asyncio
import time

from repro.algorithms.bell import bell_circuit
from repro.algorithms.ghz import ghz_circuit
from repro.algorithms.qft import qft_circuit
from repro.config import set_config
from repro.service import QuantumJobService

TENANTS = 8
JOBS_PER_TENANT = 6


async def tenant(service: QuantumJobService, tenant_id: int) -> dict[str, int]:
    """One async client: submit a burst, then await every histogram."""
    circuits = [bell_circuit(2), ghz_circuit(4), qft_circuit(5)]
    handles = [
        await service.asubmit(circuits[i % len(circuits)], shots=512)
        for i in range(JOBS_PER_TENANT)
    ]
    outcomes = {"jobs": 0, "cached": 0, "coalesced": 0}
    for result in await asyncio.gather(*handles):
        outcomes["jobs"] += 1
        outcomes["cached"] += int(result.from_cache)
        outcomes["coalesced"] += int(result.coalesced)
    print(f"tenant {tenant_id}: {outcomes}")
    return outcomes


async def main() -> None:
    set_config(seed=1234)
    started = time.perf_counter()
    with QuantumJobService(backend="qpp", workers=2, name="async-demo") as service:
        totals = await asyncio.gather(*(tenant(service, t) for t in range(TENANTS)))
        metrics = service.metrics()
    elapsed = time.perf_counter() - started

    jobs = sum(t["jobs"] for t in totals)
    print(
        f"\n{jobs} jobs from {TENANTS} async tenants in {elapsed:.2f}s "
        f"({jobs / elapsed:.0f} jobs/s)"
    )
    print(
        f"backend executions: {metrics.executions} "
        f"(cache hit rate {metrics.cache_hit_rate:.0%}, "
        f"{metrics.coalesced} coalesced)"
    )


if __name__ == "__main__":
    asyncio.run(main())
