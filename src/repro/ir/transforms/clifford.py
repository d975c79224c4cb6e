"""Compile-time Clifford circuit classification.

The stabilizer backend (:mod:`repro.exec.stabilizer`) can only execute
circuits whose every gate normalises the Pauli group — the Clifford group
generated by {H, S, CX}.  :func:`classify_clifford` walks a circuit once
and either lowers it to the tableau's primitive gate set or names the
first obstruction, so routing layers (cost model, broker admission) can
make the backend choice *before* any state is allocated.

Lowering is table-driven: a parameter-free instruction looks its name up
in a template table (``name -> ((opcode, qubit slot, qubit slot), ...)``)
and appends the template's ops; only instructions with parameters and
unknown names take :func:`_lower_instruction`, which matches rotation
angles and words the obstruction.  Levels, epochs, positions and moment
sort keys are then computed with numpy over whole arrays.

Beyond the literal Clifford mnemonics the walk recognises Clifford-angle
rotations: ``RZ(k·π/2)`` lowers to S/Z powers, ``RX``/``RY`` at the same
angles lower via H/S conjugation, ``CRZ(k·π)`` to an S-power on the
control plus an optional CZ, and ``CPHASE`` at multiples of π to CZ or
the identity.  Angles are matched to within ``ANGLE_TOLERANCE`` — a
rotation that is *numerically* Clifford is routed like one (global phases
are irrelevant to measurement statistics).

The lowered circuit is a compact array *program*, not a list of tuples:
three parallel integer arrays (opcode, first qubit, second qubit — 5 bytes
per op below 65k qubits) sorted into **moments**.  A moment is a run of
same-kind ops on pairwise-disjoint qubits, found by per-qubit frontier
levelling, so the tableau applies it as one vectorised update; a 400-qubit
depth-8 brickwork is 3.7k ops in ~60 moments.  Resets measure, and a
measurement's pivot depends on every generator, so a reset is a barrier
for the levelling: nothing moves across it and consecutive resets keep
their program order.

Verdicts are cached on the circuit's content hash (the same identity the
plan cache and job broker key on), so the broker classifies each distinct
circuit once no matter how many riders share it.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from ..composite import CompositeInstruction
from ..serialization import circuit_content_hash

__all__ = [
    "ANGLE_TOLERANCE",
    "CLIFFORD_GATES",
    "CliffordClassification",
    "TABLEAU_OPS",
    "FIRST_TWO_QUBIT_OP",
    "classify_clifford",
    "clear_clifford_cache",
]

#: Absolute tolerance when matching rotation angles to multiples of π/2.
ANGLE_TOLERANCE = 1e-9

#: Primitive tableau ops a classified circuit lowers to; an op's opcode is
#: its index here.  Single-qubit kinds come first so arity is one compare.
TABLEAU_OPS = ("h", "s", "sdg", "x", "y", "z", "reset", "cx", "cz", "swap")
FIRST_TWO_QUBIT_OP = TABLEAU_OPS.index("cx")
_OPCODE = {name: code for code, name in enumerate(TABLEAU_OPS)}
#: The longest lowering of one instruction (RY: sdg, h, s-power, h, s).
_MAX_LOWERED_OPS = 5

#: Pseudo-opcode of a terminal measurement marker (never reaches a program).
_MEASURE = len(TABLEAU_OPS)

#: A lowering template: ops ``(opcode, a, b)`` over :data:`TABLEAU_OPS` plus
#: :data:`_MEASURE`, where ``a`` / ``b`` index the instruction's qubits
#: (``b`` is ignored below :data:`FIRST_TWO_QUBIT_OP`).
Template = tuple

#: A classified program op as ``(kind, q)`` / ``(kind, a, b)``.
TableauOp = tuple


def _template(*ops: tuple) -> Template:
    return tuple((_OPCODE.get(kind, _MEASURE), a, b) for kind, a, b in ops)


#: The lowering of every parameter-free Clifford mnemonic.
_TEMPLATES: dict[str, Template] = {
    "BARRIER": (),
    "I": (),
    "ID": (),
    "MEASURE": _template(("measure", 0, 0)),
    "RESET": _template(("reset", 0, 0)),
    **{name: _template((name.lower(), 0, 0)) for name in ("H", "X", "Y", "Z", "S", "SDG")},
    "NOT": _template(("x", 0, 0)),
    "CX": _template(("cx", 0, 1)),
    "CNOT": _template(("cx", 0, 1)),
    "CZ": _template(("cz", 0, 1)),
    "SWAP": _template(("swap", 0, 1)),
    # CY(a,b) = (I ⊗ S) · CX · (I ⊗ S†) — conjugate the target.
    "CY": _template(("sdg", 1, 1), ("cx", 0, 1), ("s", 1, 1)),
    # iSWAP = diag phases on the swapped pair: SWAP · S⊗S · CZ.
    "ISWAP": _template(("swap", 0, 1), ("s", 0, 0), ("s", 1, 1), ("cz", 0, 1)),
}
#: The names :attr:`~repro.ir.instruction.Instruction.is_unitary` excludes.
_NON_UNITARY = frozenset({"MEASURE", "RESET", "BARRIER"})
#: Mnemonics that lower the same whatever parameters they carry.
_PARAMETER_BLIND = _NON_UNITARY | {"I", "ID"}
#: Gate mnemonics that are Clifford for every parameterisation (none take
#: parameters); rotations are handled by the angle-matching lowering below.
CLIFFORD_GATES = frozenset(_TEMPLATES) - _NON_UNITARY


def _program_field():
    return field(default_factory=lambda: np.zeros(0, dtype=np.int32), repr=False)


@dataclass(frozen=True, eq=False)
class CliffordClassification:
    """Verdict of one classifier walk.

    The program arrays are only populated when ``is_clifford`` — the
    circuit lowered to the tableau primitive set and sorted into moments,
    ready for :class:`~repro.exec.stabilizer.StabilizerTableau` to replay
    without re-walking the IR.
    """

    is_clifford: bool
    #: Human-readable obstruction when not Clifford ("" otherwise).
    reason: str = ""
    n_qubits: int = 0
    #: Terminal measurement markers in program order (deduplicated).
    measured_qubits: tuple[int, ...] = ()
    has_reset: bool = False
    #: Unitary gate count of the source circuit (for cost estimates).
    n_gates: int = 0
    #: ``circuit.depth()`` of the source circuit (the levelling yields it).
    depth: int = 0
    #: Lowered ops in moment order: index into :data:`TABLEAU_OPS`, first
    #: qubit, second qubit (unused, 0, for single-qubit kinds).
    opcodes: np.ndarray = _program_field()
    first: np.ndarray = _program_field()
    second: np.ndarray = _program_field()
    #: Moment ``i`` is ops ``moment_starts[i]:moment_starts[i + 1]``.
    moment_starts: np.ndarray = _program_field()

    @property
    def n_ops(self) -> int:
        return len(self.opcodes)

    @property
    def ops(self) -> tuple[TableauOp, ...]:
        """The program as ``(kind, q)`` / ``(kind, a, b)`` tuples, built on
        demand.  Moment order: a valid sequential order of the circuit."""
        return tuple(
            (TABLEAU_OPS[code], a) if code < FIRST_TWO_QUBIT_OP else (TABLEAU_OPS[code], a, b)
            for code, a, b in zip(
                self.opcodes.tolist(), self.first.tolist(), self.second.tolist()
            )
        )

    def moments(self) -> Iterator[tuple[int, object, object]]:
        """``(opcode, first qubits, second qubits)`` per moment, in order.

        Qubits come as index arrays, or as plain ints for a moment of one
        op (a chain of dependent gates is all such moments, and an int
        indexes a tableau plane as a view instead of gathering a copy).
        """
        starts = self.moment_starts.tolist()
        codes = self.opcodes[self.moment_starts[:-1]].tolist()
        for code, lo, hi in zip(codes, starts, starts[1:]):
            if hi - lo == 1:
                yield code, int(self.first[lo]), int(self.second[lo])
            else:
                yield code, self.first[lo:hi], self.second[lo:hi]


def _angle_multiple(theta: float, unit: float) -> int | None:
    """``k`` such that ``theta ≈ k·unit`` (``None`` when no integer fits)."""
    k = round(theta / unit)
    if abs(theta - k * unit) <= ANGLE_TOLERANCE:
        return int(k)
    return None


#: ``S^k`` on the instruction's first qubit, indexed by ``k % 4``.
_S_POWERS = ((), _TEMPLATES["S"], _TEMPLATES["Z"], _TEMPLATES["SDG"])


def _lower_instruction(inst) -> tuple[Template | None, str]:
    """Lower one instruction the template table does not: any instruction
    with parameters (the Clifford-angle rotations) or an unknown name.

    Returns ``(template, "")`` on success and ``(None, reason)`` otherwise.
    """
    name = inst.name.upper()
    template = _TEMPLATES.get(name)
    if template is not None and (name in _PARAMETER_BLIND or not inst.is_parameterized):
        return template, ""
    if inst.is_parameterized:
        return None, f"gate {name} has unbound symbolic parameters"
    if name in ("RZ", "RX", "RY"):
        (theta,) = inst.bound_parameters()
        k = _angle_multiple(theta, math.pi / 2.0)
        if k is None:
            return None, f"{name} angle {theta!r} is not a multiple of π/2"
        if name == "RZ":
            return _S_POWERS[k % 4], ""
        if k % 4 == 0:
            return (), ""
        h = _TEMPLATES["H"]
        if name == "RX":
            return h + _S_POWERS[k % 4] + h, ""
        # RY(θ) = S · RX(θ) · S† (circuit order: S† first).
        return _TEMPLATES["SDG"] + h + _S_POWERS[k % 4] + h + _TEMPLATES["S"], ""
    if name == "CRZ":
        (theta,) = inst.bound_parameters()
        k = _angle_multiple(theta, math.pi)
        if k is None:
            return None, f"CRZ angle {theta!r} is not a multiple of π"
        # CRZ(kπ) = P(-kπ/2) on the control · CPHASE(kπ)
        #         = Sdg^k(control) · CZ^(k mod 2).
        return _S_POWERS[-k % 4] + (_TEMPLATES["CZ"] if k % 2 else ()), ""
    if name in ("CPHASE", "CP"):
        (theta,) = inst.bound_parameters()
        k = _angle_multiple(theta, math.pi)
        if k is None:
            return None, f"CPHASE angle {theta!r} is not a multiple of π"
        return (_TEMPLATES["CZ"] if k % 2 else ()), ""
    return None, f"gate {name} is not Clifford"


def _classify(circuit: CompositeInstruction) -> CliffordClassification:
    codes: list[int] = []
    first: list[int] = []
    second: list[int] = []
    #: Per op: ``instruction index * _MAX_LOWERED_OPS + step in its template``.
    slots: list[int] = []
    n_gates = 0
    templates = _TEMPLATES.get
    for index, inst in enumerate(circuit):
        name = inst.name
        template = None if inst.parameters else templates(name)
        if template is None:
            template, reason = _lower_instruction(inst)
            if template is None:
                return CliffordClassification(
                    is_clifford=False, reason=reason, n_qubits=circuit.n_qubits
                )
        n_gates += name not in _NON_UNITARY
        qubits = inst.qubits
        slot = index * _MAX_LOWERED_OPS
        for code, a, b in template:
            codes.append(code)
            first.append(qubits[a])
            second.append(qubits[b])
            slots.append(slot)
            slot += 1
    # Only a circuit that lowered pays for the levelling.
    levels = np.array(circuit.instruction_levels(), dtype=np.int64)
    depth = int(levels.max()) if len(levels) else 0
    program = np.array([codes, first, second, slots], dtype=np.int64)
    is_op = program[0] != _MEASURE
    # From the list, not the array: the verdict then shares the circuit's
    # int objects instead of minting one per measured qubit above 255.
    measured = tuple(dict.fromkeys(first[i] for i in np.flatnonzero(~is_op).tolist()))
    codes_arr, first_arr, second_arr, slots_arr = program[:, is_op]
    second_arr = np.where(codes_arr >= FIRST_TWO_QUBIT_OP, second_arr, 0)
    # A reset is a barrier: ops never move across it, and a run of resets is
    # one moment applied in program order.  Epochs count the switches
    # between reset runs and other ops.
    is_reset = codes_arr == _OPCODE["reset"]
    epochs = np.cumsum(is_reset != np.concatenate(([False], is_reset[:-1])))
    owners, steps = np.divmod(slots_arr, _MAX_LOWERED_OPS)
    positions = levels[owners] * _MAX_LOWERED_OPS + steps
    positions[is_reset] = 0
    #: Moment sort key per op: (epoch, level, position within its source
    #: instruction, opcode) folded into one integer.
    n_levels = depth + 1
    sort_keys = (epochs * n_levels * _MAX_LOWERED_OPS + positions) * len(TABLEAU_OPS) + codes_arr
    # Instructions on one level touch disjoint qubits, so do their ``step``-th
    # lowered ops: each run of equal keys is one moment.  The sort is stable,
    # which keeps a run of resets in program order.
    order = np.argsort(sort_keys, kind="stable")
    sort_keys = sort_keys[order]
    bounds = np.flatnonzero(sort_keys[1:] != sort_keys[:-1]) + 1
    moment_starts = np.concatenate(([0], bounds, [len(order)])) if len(order) else [0]
    # The verdict cache holds hundreds of these: store the narrowest integers.
    widest = max(int(first_arr.max()), int(second_arr.max())) if len(order) else 0
    qubit_type = np.min_scalar_type(widest)
    return CliffordClassification(
        is_clifford=True,
        n_qubits=circuit.n_qubits,
        measured_qubits=measured,
        has_reset=bool(is_reset.any()),
        n_gates=n_gates,
        depth=depth,
        opcodes=codes_arr[order].astype(np.uint8),
        first=first_arr[order].astype(qubit_type),
        second=second_arr[order].astype(qubit_type),
        moment_starts=np.asarray(moment_starts, dtype=np.min_scalar_type(len(order))),
    )


_CACHE_CAPACITY = 512
_cache: OrderedDict[str, CliffordClassification] = OrderedDict()
_cache_lock = threading.Lock()


def classify_clifford(circuit: CompositeInstruction) -> CliffordClassification:
    """Classify (and, when possible, lower) ``circuit``, cached on content.

    Unbound parametric circuits are never Clifford (the binding decides the
    angle) and are classified without touching the cache, so a later bound
    form of the same template gets its own verdict.
    """
    key = circuit_content_hash(circuit)  # its walk answers is_parameterized too
    if circuit.is_parameterized:
        return _classify(circuit)
    with _cache_lock:
        hit = _cache.get(key)
        if hit is not None:
            _cache.move_to_end(key)
            return hit
    verdict = _classify(circuit)
    with _cache_lock:
        _cache[key] = verdict
        while len(_cache) > _CACHE_CAPACITY:
            _cache.popitem(last=False)
    return verdict


def clear_clifford_cache() -> None:
    """Drop all cached verdicts (test isolation hook)."""
    with _cache_lock:
        _cache.clear()
