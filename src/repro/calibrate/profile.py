"""Versioned, host-fingerprinted calibration profiles.

A :class:`CalibrationProfile` is the persisted output of the calibration
harness (:mod:`repro.calibrate.harness`): the measured cost-model constants
for one host, stored as JSON keyed by a *host fingerprint* (cpu count,
amplitude dtype, numpy build).  :meth:`CalibrationProfile.load` rejects
profiles written by an older schema outright; a profile whose fingerprint
does not match the running host loads but must not steer the cost model,
so :func:`load_calibrated_model` warns and falls back to the hand-set
defaults in that case.  The profile only stores constants that were
actually measured — anything it leaves ``None`` keeps its default when
:meth:`SimulationCostModel.from_profile` consumes it.  Keys this build does
not know (such as the lane-pricing fields older builds wrote) are ignored
on load, so older version-1 files still load.
"""

from __future__ import annotations

import calendar
import json
import os
import platform
import time
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from ..exceptions import ExecutionError

__all__ = [
    "PROFILE_VERSION",
    "CalibrationError",
    "CalibrationProfile",
    "default_profile_path",
    "host_fingerprint",
    "load_calibrated_model",
]

#: Schema version written into every profile.  Bump on any field-meaning
#: change; :meth:`CalibrationProfile.load` rejects other versions.
PROFILE_VERSION = 1

#: Environment variable overriding the default profile location.
PROFILE_PATH_ENV = "REPRO_CALIBRATION_PROFILE"


class CalibrationError(ExecutionError):
    """A calibration profile could not be loaded (stale schema, malformed)."""


def host_fingerprint() -> dict:
    """Identity of the measuring host, as far as the constants depend on it.

    The calibrated constants are ratios of numpy kernel throughputs, so the
    fingerprint captures what changes those ratios: the core count, the
    numpy build (kernel implementations), and the machine architecture.
    ``dtype`` is the reference amplitude dtype the kernels were timed at.
    """
    return {
        "cpu_count": os.cpu_count() or 1,
        "dtype": "complex128",
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


def default_profile_path() -> Path:
    """Where profiles live: ``$REPRO_CALIBRATION_PROFILE`` or the user cache."""
    override = os.environ.get(PROFILE_PATH_ENV)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro" / "calibration.json"


@dataclass
class CalibrationProfile:
    """Measured cost-model constants for one host.

    Every constant is optional (``None`` / empty = not measured, keep the
    hand-set default); ``measurements`` holds the raw timings the constants
    were derived from, for inspection and the bench artifact.
    """

    version: int = PROFILE_VERSION
    fingerprint: dict = field(default_factory=host_fingerprint)
    created: str = ""
    #: Wall seconds of one abstract cost-model work unit (one single-qubit
    #: amplitude update) on this host — the bridge from modeled units to
    #: predicted seconds.
    seconds_per_unit: float | None = None
    kernel_cost_factors: dict = field(default_factory=dict)
    plan_step_dispatch_cost: float | None = None
    #: Measured wall seconds per Clifford gate per tableau qubit-row (the
    #: stabilizer lane's O(n) per-gate constant); feeds
    #: :meth:`SimulationCostModel.stabilizer_seconds` predictions.
    seconds_per_clifford_gate: float | None = None
    measurements: dict = field(default_factory=dict)

    def matches_host(self) -> bool:
        """Whether this profile was measured on (a host identical to) this one."""
        return dict(self.fingerprint) == host_fingerprint()

    def age_days(self) -> float | None:
        """Days since this profile was measured (``None`` when undated).

        Pre-TTL profiles (empty ``created``) and unparsable timestamps
        return ``None`` — age-gating skips them rather than guessing.
        """
        if not self.created:
            return None
        try:
            measured = calendar.timegm(
                time.strptime(self.created, "%Y-%m-%dT%H:%M:%SZ")
            )
        except (ValueError, OverflowError):
            return None
        return max(0.0, (time.time() - measured) / 86400.0)

    # -- persistence ---------------------------------------------------------
    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    def save(self, path: str | Path | None = None) -> Path:
        """Write the profile as JSON, creating parent directories."""
        target = Path(path) if path is not None else default_profile_path()
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(self.to_json() + "\n")
        return target

    @classmethod
    def load(cls, path: str | Path | None = None) -> "CalibrationProfile":
        """Load a profile, rejecting stale schema versions and malformed files."""
        source = Path(path) if path is not None else default_profile_path()
        try:
            payload = json.loads(source.read_text())
        except OSError as exc:
            raise CalibrationError(f"cannot read calibration profile {source}: {exc}")
        except json.JSONDecodeError as exc:
            raise CalibrationError(f"malformed calibration profile {source}: {exc}")
        if not isinstance(payload, dict):
            raise CalibrationError(
                f"malformed calibration profile {source}: expected an object"
            )
        version = payload.get("version")
        if version != PROFILE_VERSION:
            raise CalibrationError(
                f"calibration profile {source} has schema version {version!r}; "
                f"this build reads version {PROFILE_VERSION} — re-run "
                "`python -m repro.calibrate`"
            )
        known = {f for f in cls.__dataclass_fields__}
        kwargs = {k: v for k, v in payload.items() if k in known}
        return cls(**kwargs)


def load_calibrated_model(
    path: str | Path | None = None, max_age_days: float = 30.0
):
    """A :class:`~repro.simulator.cost_model.SimulationCostModel` for this host.

    Loads the persisted profile and builds the model from it.  Falls back
    to the hand-set defaults — with a warning naming the reason — when the
    profile is missing, stale, malformed, was measured on a different host
    (fingerprint mismatch), or is older than ``max_age_days`` (hosts drift:
    kernel/numpy upgrades and thermal re-pasting both move the measured
    ratios, so a months-old profile steers worse than the defaults).
    Undated profiles skip the age check.  Never raises: callers on the
    job-serving path must not fail because calibration state is absent.
    """
    from ..simulator.cost_model import SimulationCostModel

    source = Path(path) if path is not None else default_profile_path()
    if not source.exists():
        return SimulationCostModel()
    try:
        profile = CalibrationProfile.load(source)
    except CalibrationError as exc:
        warnings.warn(
            f"ignoring calibration profile: {exc}", RuntimeWarning, stacklevel=2
        )
        return SimulationCostModel()
    if not profile.matches_host():
        warnings.warn(
            f"calibration profile {source} was measured on a different host "
            f"(profile {profile.fingerprint} vs host {host_fingerprint()}); "
            "using default cost-model constants — re-run `python -m repro.calibrate`",
            RuntimeWarning,
            stacklevel=2,
        )
        return SimulationCostModel()
    age = profile.age_days()
    if max_age_days is not None and age is not None and age > max_age_days:
        warnings.warn(
            f"calibration profile {source} is {age:.1f} days old "
            f"(max {max_age_days:g}); using default cost-model constants — "
            "re-run `python -m repro.calibrate`",
            RuntimeWarning,
            stacklevel=2,
        )
        return SimulationCostModel()
    return SimulationCostModel.from_profile(profile)


def utc_timestamp() -> str:
    """ISO-8601 UTC timestamp for :attr:`CalibrationProfile.created`."""
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
