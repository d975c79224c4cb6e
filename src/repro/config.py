"""Global configuration for the ``repro`` programming system.

QCOR exposes a handful of process-wide knobs (default accelerator, number of
shots, ``OMP_NUM_THREADS`` for the Quantum++ backend).  This module provides
the Python equivalents plus the switches that control the reproduction
itself:

``thread_safe``
    When ``True`` (default), the runtime uses the thread-safe code paths the
    paper contributes (locked ``qalloc``, cloneable accelerators, the
    QPUManager).  When ``False``, the legacy, race-prone behaviour of the
    original QCOR/XACC implementation is emulated so that tests and the
    ablation benchmark can demonstrate *why* the contribution is needed.

``execution_mode``
    ``"real"`` runs kernels on the NumPy simulator and measures wall-clock
    time; ``"modeled"`` uses the hand-set cost model plus the
    discrete-event scheduler so the paper's figures can be regenerated
    deterministically on any host.

Configuration is stored in a module-level :class:`Configuration` object.
Reads are lock-free (attribute reads of immutables are atomic in CPython);
writes go through :func:`set_config` which holds a lock, and the
:func:`configure` context manager restores the previous values on exit so
tests can safely tweak configuration.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import threading
from typing import Any, Iterator

from .exceptions import ConfigurationError

__all__ = [
    "Configuration",
    "get_config",
    "set_config",
    "configure",
    "reset_config",
    "default_num_threads",
]

_VALID_EXECUTION_MODES = ("real", "modeled")


def default_num_threads() -> int:
    """Return the default worker count, honouring ``OMP_NUM_THREADS``.

    Mirrors the paper's use of ``OMP_NUM_THREADS`` to size the Quantum++
    OpenMP pool.  Falls back to the host's CPU count.
    """
    env = os.environ.get("OMP_NUM_THREADS")
    if env:
        try:
            value = int(env)
            if value > 0:
                return value
        except ValueError:
            pass
    return os.cpu_count() or 1


@dataclasses.dataclass
class Configuration:
    """Mutable snapshot of process-wide settings."""

    #: Name of the accelerator used when none is requested explicitly.
    default_accelerator: str = "qpp"
    #: Default number of measurement shots for sampling backends.
    shots: int = 1024
    #: Use the thread-safe code paths contributed by the paper.
    thread_safe: bool = True
    #: Require an explicit per-thread ``initialize()`` call (paper Section V-C).
    strict_initialization: bool = False
    #: Number of worker threads available to a single kernel simulation.
    omp_num_threads: int = dataclasses.field(default_factory=default_num_threads)
    #: ``"real"`` or ``"modeled"`` execution (see module docstring).
    execution_mode: str = "real"
    #: Seed for deterministic sampling; ``None`` draws fresh entropy.
    seed: int | None = None
    #: Record (but do not raise on) data races observed by the race detector.
    detect_races: bool = True
    #: Raise :class:`ThreadSafetyViolation` as soon as a race is observed.
    raise_on_race: bool = False

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` for inconsistent settings."""
        if self.shots <= 0:
            raise ConfigurationError(f"shots must be positive, got {self.shots}")
        if self.omp_num_threads <= 0:
            raise ConfigurationError(
                f"omp_num_threads must be positive, got {self.omp_num_threads}"
            )
        if self.execution_mode not in _VALID_EXECUTION_MODES:
            raise ConfigurationError(
                f"execution_mode must be one of {_VALID_EXECUTION_MODES}, "
                f"got {self.execution_mode!r}"
            )
        if self.seed is not None and self.seed < 0:
            raise ConfigurationError(f"seed must be non-negative, got {self.seed}")

    def replace(self, **changes: Any) -> "Configuration":
        """Return a copy with ``changes`` applied and validated."""
        new = dataclasses.replace(self, **changes)
        new.validate()
        return new


_lock = threading.Lock()
_config = Configuration()


def get_config() -> Configuration:
    """Return the current global configuration object."""
    return _config


def set_config(**changes: Any) -> Configuration:
    """Atomically update the global configuration.

    Unknown keys raise :class:`ConfigurationError`.  Returns the new
    configuration snapshot.
    """
    global _config
    valid_fields = {f.name for f in dataclasses.fields(Configuration)}
    unknown = set(changes) - valid_fields
    if unknown:
        raise ConfigurationError(f"unknown configuration keys: {sorted(unknown)}")
    with _lock:
        _config = _config.replace(**changes)
        return _config


def reset_config() -> Configuration:
    """Restore the default configuration (used heavily by the test suite)."""
    global _config
    with _lock:
        _config = Configuration()
        return _config


@contextlib.contextmanager
def configure(**changes: Any) -> Iterator[Configuration]:
    """Context manager that applies ``changes`` and restores prior values.

    Example::

        with configure(shots=64, execution_mode="modeled"):
            run_bell()
    """
    global _config
    valid_fields = {f.name for f in dataclasses.fields(Configuration)}
    unknown = set(changes) - valid_fields
    if unknown:
        raise ConfigurationError(f"unknown configuration keys: {sorted(unknown)}")
    with _lock:
        previous = _config
        _config = _config.replace(**changes)
    try:
        yield _config
    finally:
        with _lock:
            _config = previous
