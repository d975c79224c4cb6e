"""The worker half of the process lane.

:class:`~repro.exec.sharded.ShardedExecutor` supervises its worker
processes (one ``ProcessPoolExecutor`` per shard, independent tasks).
What runs *inside* those workers, and what crosses the process boundary
with a job, is this module:

* :func:`circuit_payload` — a circuit ships as *(canonical JSON, content
  hash)*, each computed once per circuit object;
* :func:`worker_plan` — the one compile-once plan cache in every worker
  process, keyed by ``(content hash, width, compile options)``;
* :class:`Envelope` — a job's trace context, profile flag and deadline:
  captured on the caller's thread, run around the job's body in the
  worker, stitched back into the caller's tracer and profiler.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from ..cancellation import CancelToken, active_cancel_token, cancel_scope
from ..ir.composite import CompositeInstruction
from ..ir.serialization import circuit_content_hash, circuit_from_json, circuit_to_json
from ..obs.profiler import ReplayProfiler, active_profiler, profiler_installed
from ..obs.trace import TraceContext, get_tracer
from ..simulator.execution_plan import compile_parametric_plan, compile_plan
from ..testing import faults

__all__ = [
    "Envelope",
    "PLAN_CAPACITY",
    "circuit_payload",
    "plan_cache_size",
    "worker_plan",
]

#: Compiled plans one worker process keeps (least recently used evicted).
PLAN_CAPACITY = 128

_PLANS: "OrderedDict[tuple, object]" = OrderedDict()


def circuit_payload(circuit: CompositeInstruction) -> tuple[str, str]:
    """``(canonical_json, content_hash)`` for ``circuit``, each computed once
    per circuit object (``CompositeInstruction`` states the invalidation rule).
    The payload keeps the name it was first serialised with; workers compile
    from the instructions and never read it.
    """
    payload = circuit.memoised("exec_payload", lambda: circuit_to_json(circuit))
    return payload, circuit_content_hash(circuit)


def worker_plan(
    payload: str,
    digest: str,
    width: int,
    compile_options: Mapping[str, object],
    site: str,
):
    """Compile-once lookup inside a worker; returns ``(plan, cached)``.

    ``compile_options`` are exactly the compile keyword arguments the parent
    would use, so they are both part of the key and the call, and the worker's
    plan — its chunk decomposition and per-chunk arithmetic — is bitwise
    identical to the parent's.  A parametric circuit compiles once; callers
    bind it per job.  ``site`` names the fault-injection point a miss fires.
    """
    key = (digest, width, tuple(sorted(compile_options.items())))
    plan = _PLANS.get(key)
    if plan is not None:
        _PLANS.move_to_end(key)
        return plan, True
    faults.fire(site)
    circuit = circuit_from_json(payload)
    compiler = compile_parametric_plan if circuit.is_parameterized else compile_plan
    plan = compiler(circuit, width, **compile_options)
    _PLANS[key] = plan
    while len(_PLANS) > PLAN_CAPACITY:
        _PLANS.popitem(last=False)
    return plan, False


def plan_cache_size() -> int:
    """Plans held by this process's worker plan cache."""
    return len(_PLANS)


@dataclass(frozen=True)
class Envelope:
    """What a job carries across the process boundary besides its work.

    ``trace`` is the caller's wire-format trace context (worker spans parent
    to it), ``profile`` whether a replay profiler is active in the caller,
    and ``deadline`` the caller's wall-clock deadline.  A client-side cancel
    cannot cross the boundary: the caller stops awaiting instead.
    """

    trace: dict | None = None
    profile: bool = False
    deadline: float | None = None

    @classmethod
    def capture(cls) -> "Envelope":
        """The envelope for a job submitted from this thread.

        Raises the typed lifecycle error when the ambient cancel token has
        already tripped: a dead job is never shipped.
        """
        token = active_cancel_token()
        if token is not None:
            token.check()
        ctx = get_tracer().current_context()
        return cls(
            trace=ctx.to_wire() if ctx is not None else None,
            profile=active_profiler() is not None,
            deadline=token.deadline if token is not None else None,
        )

    @property
    def observed(self) -> bool:
        return self.trace is not None or self.profile

    def run(self, body: Callable[[], object], span_name: str, attrs: Mapping):
        """Run ``body`` in a worker; returns ``(result, obs_payload)``.

        The deadline becomes the ambient cancel token, so replay loops abandon
        an expired job at their next step boundary.  When observed, ``body``
        runs inside a ``span_name`` span parented to the caller's context with
        a fresh profiler installed,
        and ``obs_payload`` carries every span finished here plus the profile
        when one was asked for.  Otherwise ``obs_payload`` is ``None``.
        """
        token = None
        if self.deadline is not None:
            token = CancelToken(deadline=self.deadline)
        with cancel_scope(token):
            if not self.observed:
                return body(), None
            tracer = get_tracer()
            profiler = ReplayProfiler()
            with tracer.capture() as sink:
                with tracer.span(
                    span_name,
                    attrs={"pid": os.getpid(), **attrs},
                    parent=TraceContext.from_wire(self.trace),
                ):
                    with profiler_installed(profiler):
                        result = body()
        return result, {
            "spans": [span.to_dict() for span in sink],
            "profile": profiler.to_wire() if self.profile else None,
        }

    def stitch(self, payloads: Iterable[dict | None]) -> None:
        """Fold workers' ``obs_payload``\\ s into the caller's tracer (and
        any active capture sink) and into the active profiler.  Runs on the
        thread that called :meth:`capture`.
        """
        if not self.observed:
            return
        tracer = get_tracer()
        profiler = active_profiler()
        for payload in payloads:
            if not payload:
                continue
            if payload["spans"]:
                tracer.ingest(payload["spans"])
            if profiler is not None:
                profiler.merge_wire(payload["profile"])
