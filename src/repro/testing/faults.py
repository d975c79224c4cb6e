"""Deterministic fault injection at named sites in the execution stack.

The recovery paths built in this package — retry budgets, circuit
breakers, worker respawn, admission control — are only trustworthy
if they are *exercised*, not merely written.  This module lets a test
plant faults at named sites and have production code trip over them
deterministically:

* ``kill``  — ``os._exit(1)`` the current process (simulates a SIGKILLed
  worker; only meaningful at sites that run inside worker processes).
* ``slow``  — sleep ``seconds`` before continuing (simulates a stalled
  worker or a saturated host).
* ``fail``  — raise an exception of the configured ``kind`` (simulates a
  compile failure, an allocation failure, a flaky OS error...).

Sites are plain strings (``"sharded.worker.replay"``, ``"plan.compile"``...)
wired into production code as ``faults.fire(site)`` calls.  The disabled
fast path is a module-global ``None`` check — one load and one compare — so
leaving the hooks in shipping code is free (the fault-recovery benchmark
enforces < 5% overhead for the armed-but-no-match case too).

Cross-process propagation: shard workers are separate processes,
so ``install_faults`` also mirrors the plan into ``REPRO_FAULTS`` in this
process's environment; workers spawned *after* installation inherit it and
load the plan lazily on their first ``fire``.  Workers already running are
unaffected (tests install faults before building the pool they target).

Respawn-proofing: a per-process hit counter would reset when the executor
respawns a killed worker, making a ``times=1`` kill fire forever.  A spec
with ``scope="global"`` counts hits in the filesystem instead — each
firing claims a sentinel file with ``O_CREAT | O_EXCL``, which is atomic
across processes — so "kill the worker exactly once, then recover" is
expressible.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import dataclass, field
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

_ENV_VAR = "REPRO_FAULTS"


class InjectedFault(ExecutionError):
    """The default error raised by a ``fail`` fault.

    Subclasses :class:`ExecutionError` so recovery code treats it like a
    genuine execution failure, while tests can still assert the failure
    they observe is the one they planted.
    """


#: Exception kinds a ``fail`` fault can raise, by name (names, not classes,
#: so specs survive the JSON trip through the environment).
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
    ``action``  — ``"kill"`` | ``"slow"`` | ``"fail"``.
    ``after``   — skip this many matching hits before firing (0 = first hit).
    ``times``   — fire at most this many times (``None`` = unbounded).
    ``seconds`` — sleep duration for ``slow``.
    ``kind``    — exception kind for ``fail`` (see ``_FAIL_KINDS``).
    ``scope``   — ``"process"`` counts hits per process; ``"global"`` counts
                  across processes via sentinel files, surviving respawns.
    """

    site: str
    action: str = "fail"
    after: int = 0
    times: int | None = 1
    seconds: float = 0.0
    kind: str = "injected"
    scope: str = "process"

    def __post_init__(self) -> None:
        if self.action not in ("kill", "slow", "fail"):
            raise ValueError(f"unknown fault action {self.action!r}")
        if self.scope not in ("process", "global"):
            raise ValueError(f"unknown fault scope {self.scope!r}")
        if self.action == "fail":
            _resolve_kind(self.kind)  # validate eagerly, at install time

    def to_dict(self) -> dict:
        return {
            "site": self.site,
            "action": self.action,
            "after": self.after,
            "times": self.times,
            "seconds": self.seconds,
            "kind": self.kind,
            "scope": self.scope,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultSpec":
        return cls(**data)


class _Plan:
    """The active fault plan plus per-process hit counters."""

    __slots__ = ("specs", "hits", "token", "sentinel_dir")

    def __init__(self, specs: tuple[FaultSpec, ...], token: str, sentinel_dir: str):
        self.specs = specs
        self.hits: dict[int, int] = {}
        # Token + sentinel_dir implement global (cross-process) hit counting.
        self.token = token
        self.sentinel_dir = sentinel_dir


_PLAN: _Plan | None = None
_ENV_LOADED = False


def install_faults(specs: Iterable[FaultSpec], *, token: str | None = None) -> None:
    """Arm ``specs`` in this process and export them to future children."""
    global _PLAN, _ENV_LOADED
    specs = tuple(specs)
    if token is None:
        token = f"{os.getpid()}-{time.monotonic_ns()}"
    sentinel_dir = os.path.join(tempfile.gettempdir(), f"repro-faults-{token}")
    os.makedirs(sentinel_dir, exist_ok=True)
    _PLAN = _Plan(specs, token, sentinel_dir)
    _ENV_LOADED = True  # our own env must not re-load over an explicit install
    os.environ[_ENV_VAR] = json.dumps(
        {"token": token, "specs": [spec.to_dict() for spec in specs]}
    )


def clear_faults() -> None:
    """Disarm all faults and remove the cross-process plan and sentinels."""
    global _PLAN, _ENV_LOADED
    plan, _PLAN = _PLAN, None
    _ENV_LOADED = False
    os.environ.pop(_ENV_VAR, None)
    if plan is not None:
        try:
            for name in os.listdir(plan.sentinel_dir):
                try:
                    os.unlink(os.path.join(plan.sentinel_dir, name))
                except OSError:
                    pass
            os.rmdir(plan.sentinel_dir)
        except OSError:
            pass


def installed_faults() -> tuple[FaultSpec, ...]:
    _maybe_load_env()
    return _PLAN.specs if _PLAN is not None else ()


def _maybe_load_env() -> None:
    """Load a plan exported by a parent process (worker side, lazy)."""
    global _PLAN, _ENV_LOADED
    if _ENV_LOADED:
        return
    _ENV_LOADED = True
    raw = os.environ.get(_ENV_VAR)
    if not raw:
        return
    try:
        data = json.loads(raw)
        specs = tuple(FaultSpec.from_dict(item) for item in data["specs"])
        token = data["token"]
    except (ValueError, KeyError, TypeError):
        return
    sentinel_dir = os.path.join(tempfile.gettempdir(), f"repro-faults-{token}")
    _PLAN = _Plan(specs, token, sentinel_dir)


def _claim_global_hit(plan: _Plan, index: int, hit: int) -> bool | None:
    """Atomically claim cross-process hit number ``hit`` of spec ``index``.

    ``True`` — claimed; ``False`` — already taken by another process;
    ``None`` — the sentinel directory vanished (``clear_faults`` ran in
    another process), meaning the whole plan is disarmed.  The tri-state
    matters: treating "vanished" as "taken" would make an unbounded
    (``times=None``) walk spin forever looking for a free slot.
    """
    path = os.path.join(plan.sentinel_dir, f"{index}-{hit}")
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    except OSError:
        return None
    os.close(fd)
    return True


def fire(site: str) -> None:
    """Production-code hook: trip any armed fault matching ``site``.

    The disabled path is the first two lines — a global load and an
    identity check — plus, in worker processes, one lazy env probe on the
    very first call.
    """
    global _PLAN
    if _PLAN is None and _ENV_LOADED:
        return
    _maybe_load_env()
    plan = _PLAN
    if plan is None:
        return
    for index, spec in enumerate(plan.specs):
        if spec.site != site:
            continue
        if spec.scope == "global":
            # Walk the cross-process hit sequence: claim the next slot.
            hit = 0
            while True:
                if spec.times is not None and hit >= spec.after + spec.times:
                    break
                claimed = _claim_global_hit(plan, index, hit)
                if claimed is None:
                    # clear_faults() ran in another process (workers hold a
                    # stale env-loaded plan after a respawn): disarm here
                    # too instead of firing from beyond the grave.
                    _PLAN = None
                    return
                if claimed:
                    if hit >= spec.after:
                        _act(spec)
                    break
                hit += 1
        else:
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
    if spec.action == "kill":
        # Flush nothing, run no handlers: the closest stand-in for SIGKILL
        # that a process can do to itself.
        os._exit(1)
    kind = _resolve_kind(spec.kind)
    raise kind(f"injected fault at site {spec.site!r}")
