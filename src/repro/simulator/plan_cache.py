"""Bounded, content-hash-keyed cache of compiled execution plans.

Repeat executions of the same circuit — broker traffic resubmitting a hot
job, trajectory shots, optimiser iterations over one ansatz — should pay
plan compilation once.  Entries are keyed by the same canonical content
hash the job broker uses for result caching
(:func:`repro.ir.serialization.circuit_content_hash`, shared with
:mod:`repro.service.keys`), so circuits that differ only in name share one
plan, and the broker's dispatcher workers (one accelerator clone each) all
hit the same process-wide cache.

Plans are immutable after compilation and parametric plans bind per
thread, so cached entries are safe to share across threads.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from ..exceptions import ExecutionError
from ..ir.composite import CompositeInstruction
from ..ir.serialization import circuit_content_hash
from ..obs.trace import get_tracer
from ..testing import faults
from .execution_plan import (
    DEFAULT_CHUNK_THRESHOLD,
    DEFAULT_PRECISION,
    ExecutionPlan,
    ParametricExecutionPlan,
    compile_parametric_plan,
    compile_plan,
    resolve_precision,
)

__all__ = [
    "PlanCache",
    "PlanCacheStats",
    "get_plan_cache",
    "reset_plan_cache",
]


@dataclass(frozen=True)
class PlanCacheStats:
    """Immutable counter snapshot of a :class:`PlanCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    size: int = 0
    capacity: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0


class PlanCache:
    """Thread-safe bounded LRU cache of compiled execution plans."""

    def __init__(self, capacity: int = 128):
        if capacity < 1:
            raise ExecutionError(f"plan cache capacity must be at least 1, got {capacity}")
        self.capacity = int(capacity)
        self._entries: "OrderedDict[tuple, ExecutionPlan | ParametricExecutionPlan]" = (
            OrderedDict()
        )
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def lookup_or_compile(
        self,
        circuit: CompositeInstruction,
        n_qubits: int | None = None,
        *,
        optimize: bool = True,
        chunk_threshold: int | None = None,
        precision: str = DEFAULT_PRECISION,
    ) -> tuple[ExecutionPlan | ParametricExecutionPlan, bool]:
        """Return ``(plan, was_cache_hit)`` for ``circuit``.

        Compilation happens outside the lock; when two threads race on the
        same key the first insertion wins so every caller shares one plan.
        All compile options participate in the key — ``chunk_threshold``
        never changes results, but it is baked into the compiled plan, so
        distinct thresholds must not share an entry; ``precision`` *does*
        change results (complex64 plans hold complex64 payloads).  Every
        cached plan runs the window pass; ``compile_plan(...,
        fusion_max_qubits=0)`` is the uncached gate-for-gate reference.
        """
        width = max(circuit.n_qubits, 1 if n_qubits is None else int(n_qubits), 1)
        threshold = (
            DEFAULT_CHUNK_THRESHOLD if chunk_threshold is None else int(chunk_threshold)
        )
        precision = resolve_precision(precision)
        key = (
            circuit_content_hash(circuit),
            width,
            bool(optimize),
            threshold,
            precision,
        )
        with self._lock:
            plan = self._entries.get(key)
            if plan is not None:
                self._entries.move_to_end(key)
                self._hits += 1
                return plan, True
            self._misses += 1
        with get_tracer().span(
            "plan-compile", attrs={"circuit": circuit.name, "width": width}
        ):
            faults.fire("plan.compile")
            if circuit.is_parameterized:
                plan = compile_parametric_plan(
                    circuit,
                    width,
                    optimize=optimize,
                    chunk_threshold=threshold,
                    precision=precision,
                )
            else:
                plan = compile_plan(
                    circuit,
                    width,
                    optimize=optimize,
                    chunk_threshold=threshold,
                    precision=precision,
                )
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                self._entries.move_to_end(key)
                return existing, True
            self._entries[key] = plan
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._evictions += 1
        return plan, False

    def get_or_compile(
        self,
        circuit: CompositeInstruction,
        n_qubits: int | None = None,
        *,
        optimize: bool = True,
        chunk_threshold: int | None = None,
        precision: str = DEFAULT_PRECISION,
    ) -> ExecutionPlan | ParametricExecutionPlan:
        """Like :meth:`lookup_or_compile` but returns only the plan."""
        plan, _ = self.lookup_or_compile(
            circuit,
            n_qubits,
            optimize=optimize,
            chunk_threshold=chunk_threshold,
            precision=precision,
        )
        return plan

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def memory_bytes(self) -> int:
        """Total resident bytes of all cached plans (admission accounting)."""
        with self._lock:
            plans = list(self._entries.values())
        return sum(plan.memory_bytes() for plan in plans)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def stats(self) -> PlanCacheStats:
        with self._lock:
            return PlanCacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._entries),
                capacity=self.capacity,
            )


_default_cache: PlanCache | None = None
_default_cache_lock = threading.Lock()


def get_plan_cache() -> PlanCache:
    """The process-wide plan cache shared by accelerators and the broker."""
    global _default_cache
    with _default_cache_lock:
        if _default_cache is None:
            _default_cache = PlanCache()
        return _default_cache


def reset_plan_cache(capacity: int | None = None) -> PlanCache:
    """Replace the process-wide cache (tests, or to resize it)."""
    global _default_cache
    with _default_cache_lock:
        _default_cache = PlanCache(capacity) if capacity is not None else PlanCache()
        return _default_cache
