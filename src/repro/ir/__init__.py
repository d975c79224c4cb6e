"""Intermediate representation (IR) for quantum kernels.

This subpackage is the Python analogue of XACC's IR layer: quantum kernels
compile down to a :class:`~repro.ir.composite.CompositeInstruction` (a
circuit) made of :class:`~repro.ir.instruction.Instruction` objects.  The IR
is backend-agnostic; accelerators in :mod:`repro.runtime` consume it.

Public surface:

* :class:`Parameter` / :class:`ParameterExpression` — symbolic kernel
  arguments (used by variational ansatz kernels).
* Gate classes (``H``, ``CX``, ``RY`` ...) and the :data:`GATE_REGISTRY`.
* :class:`CompositeInstruction` (aliased as :class:`Circuit`).
* :class:`CircuitBuilder` — fluent construction API.
* Transformation passes under :mod:`repro.ir.transforms`.
"""

from .parameter import Parameter, ParameterExpression
from .instruction import Instruction
from .gates import (
    GATE_REGISTRY,
    Gate,
    Identity,
    H,
    X,
    Y,
    Z,
    S,
    Sdg,
    T,
    Tdg,
    RX,
    RY,
    RZ,
    U3,
    CX,
    CY,
    CZ,
    CH,
    CRZ,
    CPhase,
    Swap,
    ISwap,
    CCX,
    CSwap,
    PermutationGate,
    UnitaryGate,
    Measure,
    Reset,
    Barrier,
    create_gate,
)
from .composite import CompositeInstruction, Circuit
from .builder import CircuitBuilder
from .serialization import circuit_to_dict, circuit_from_dict, circuit_to_json, circuit_from_json

__all__ = [
    "Parameter",
    "ParameterExpression",
    "Instruction",
    "Gate",
    "GATE_REGISTRY",
    "Identity",
    "H",
    "X",
    "Y",
    "Z",
    "S",
    "Sdg",
    "T",
    "Tdg",
    "RX",
    "RY",
    "RZ",
    "U3",
    "CX",
    "CY",
    "CZ",
    "CH",
    "CRZ",
    "CPhase",
    "Swap",
    "ISwap",
    "CCX",
    "CSwap",
    "PermutationGate",
    "UnitaryGate",
    "Measure",
    "Reset",
    "Barrier",
    "create_gate",
    "CompositeInstruction",
    "Circuit",
    "CircuitBuilder",
    "circuit_to_dict",
    "circuit_from_dict",
    "circuit_to_json",
    "circuit_from_json",
]
