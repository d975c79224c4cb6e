"""Deterministic fault injection at named sites in the execution stack.

The recovery paths built in this package — deadlines, cancellation,
admission control, typed failures — are only trustworthy if they are
*exercised*, not merely written.  This module lets a test plant faults at
named sites and have production code trip over them deterministically:

* ``slow``  — sleep ``seconds`` before continuing (simulates a stalled
  kernel or a saturated host).
* ``fail``  — raise an exception of the configured ``kind`` (simulates a
  compile failure, an allocation failure, a flaky OS error...).

Sites are plain strings (``"local.replay"``, ``"plan.compile"``...) wired
into production code as ``faults.fire(site)`` calls.  The disabled fast
path is a module-global ``None`` check — one load and one compare — so
leaving the hooks in shipping code is free (the fault-recovery benchmark
enforces < 5% overhead).  Every site runs in this process, so a plan is
process-local state.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable

from ..exceptions import ExecutionError

__all__ = [
    "FaultSpec",
    "InjectedFault",
    "install_faults",
    "clear_faults",
    "installed_faults",
    "fire",
]


class InjectedFault(ExecutionError):
    """The default error raised by a ``fail`` fault.

    Subclasses :class:`ExecutionError` so recovery code treats it like a
    genuine execution failure, while tests can still assert the failure
    they observe is the one they planted.
    """


#: Exception kinds a ``fail`` fault can raise, by name.
_FAIL_KINDS = {
    "injected": InjectedFault,
    "oserror": OSError,
    "memory": MemoryError,
    "compile": None,  # resolved lazily to avoid an import cycle
}


def _resolve_kind(kind: str):
    cls = _FAIL_KINDS.get(kind)
    if cls is None and kind == "compile":
        from ..exceptions import CompilationError

        _FAIL_KINDS["compile"] = CompilationError
        return CompilationError
    if cls is None:
        raise ValueError(
            f"unknown fault kind {kind!r}; expected one of {sorted(_FAIL_KINDS)}"
        )
    return cls


@dataclass(frozen=True)
class FaultSpec:
    """One planted fault.

    ``site``    — the named fire point this spec matches.
    ``action``  — ``"slow"`` | ``"fail"``.
    ``after``   — skip this many matching hits before firing (0 = first hit).
    ``times``   — fire at most this many times (``None`` = unbounded).
    ``seconds`` — sleep duration for ``slow``.
    ``kind``    — exception kind for ``fail`` (see ``_FAIL_KINDS``).
    """

    site: str
    action: str = "fail"
    after: int = 0
    times: int | None = 1
    seconds: float = 0.0
    kind: str = "injected"

    def __post_init__(self) -> None:
        if self.action not in ("slow", "fail"):
            raise ValueError(f"unknown fault action {self.action!r}")
        if self.action == "fail":
            _resolve_kind(self.kind)  # validate eagerly, at install time


class _Plan:
    """The active fault plan plus its hit counters."""

    __slots__ = ("specs", "hits")

    def __init__(self, specs: tuple[FaultSpec, ...]):
        self.specs = specs
        self.hits: dict[int, int] = {}


_PLAN: _Plan | None = None


def install_faults(specs: Iterable[FaultSpec]) -> None:
    """Arm ``specs`` in this process."""
    global _PLAN
    _PLAN = _Plan(tuple(specs))


def clear_faults() -> None:
    """Disarm all faults."""
    global _PLAN
    _PLAN = None


def installed_faults() -> tuple[FaultSpec, ...]:
    return _PLAN.specs if _PLAN is not None else ()


def fire(site: str) -> None:
    """Production-code hook: trip any armed fault matching ``site``.

    The disabled path is the first two lines — a global load and an
    identity check.
    """
    plan = _PLAN
    if plan is None:
        return
    for index, spec in enumerate(plan.specs):
        if spec.site != site:
            continue
        hit = plan.hits.get(index, 0)
        plan.hits[index] = hit + 1
        if hit < spec.after:
            continue
        if spec.times is not None and hit >= spec.after + spec.times:
            continue
        _act(spec)


def _act(spec: FaultSpec) -> None:
    if spec.action == "slow":
        time.sleep(spec.seconds)
        return
    kind = _resolve_kind(spec.kind)
    raise kind(f"injected fault at site {spec.site!r}")
