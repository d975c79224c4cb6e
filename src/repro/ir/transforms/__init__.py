"""Circuit transformation passes.

XACC exposes ``IRTransformation`` plugins; this subpackage provides the
Python analogues used by the default compilation pipeline:

* :class:`InverseCancellationPass` — removes adjacent gate/inverse pairs
  (``H H``, ``CX CX``, ``S Sdg`` ...).
* :class:`RotationMergingPass` — merges adjacent rotations about the same
  axis on the same qubit and drops rotations with angle ~ 0 (mod 4 pi).
* :class:`PassManager` — runs an ordered list of passes to a fixed point.
* :func:`classify_clifford` — compile-time circuit-class analysis: lowers
  Clifford circuits (including Clifford-angle rotations) to the stabilizer
  tableau's primitive gate set, or names the first non-Clifford obstruction.
"""

from .pass_base import BasePass, PassManager, default_pass_manager
from .inverse_cancellation import InverseCancellationPass
from .rotation_merging import RotationMergingPass
from .clifford import (
    CliffordClassification,
    classify_clifford,
    clear_clifford_cache,
)

__all__ = [
    "BasePass",
    "PassManager",
    "default_pass_manager",
    "InverseCancellationPass",
    "RotationMergingPass",
    "CliffordClassification",
    "classify_clifford",
    "clear_clifford_cache",
]
