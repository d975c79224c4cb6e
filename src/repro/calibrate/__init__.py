"""Host calibration: measured cost-model constants instead of guesses.

``python -m repro.calibrate`` micro-benchmarks every plan kernel class on
the running host and persists a versioned, host-fingerprinted
:class:`CalibrationProfile`; :func:`load_calibrated_model` turns it back
into a :class:`~repro.simulator.cost_model.SimulationCostModel` (falling
back to the hand-set defaults, with a warning, when the profile is
missing, stale, or from another host).  The model prices kernel classes,
plan-step dispatch and tableau gates; it does not pick replay lanes, which
follow the fixed chunk-threshold rule in
:class:`~repro.exec.backend.LocalBackend`.
"""

from .harness import KERNEL_KINDS, kernel_microbench_circuit, run_calibration
from .profile import (
    PROFILE_VERSION,
    CalibrationError,
    CalibrationProfile,
    default_profile_path,
    host_fingerprint,
    load_calibrated_model,
)

__all__ = [
    "KERNEL_KINDS",
    "PROFILE_VERSION",
    "CalibrationError",
    "CalibrationProfile",
    "default_profile_path",
    "host_fingerprint",
    "kernel_microbench_circuit",
    "load_calibrated_model",
    "run_calibration",
]
