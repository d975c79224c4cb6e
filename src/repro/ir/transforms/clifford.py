"""Compile-time Clifford circuit classification.

The stabilizer backend (:mod:`repro.exec.stabilizer`) can only execute
circuits whose every gate normalises the Pauli group — the Clifford group
generated by {H, S, CX}.  :func:`classify_clifford` walks a circuit once
and either lowers it to the tableau's primitive gate set or names the
first obstruction, so routing layers (cost model, broker admission) can
make the backend choice *before* any state is allocated.

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

#: Gate mnemonics that are Clifford for every parameterisation (none take
#: parameters); rotations are handled by the angle-matching lowering below.
CLIFFORD_GATES = frozenset(
    {"I", "ID", "H", "X", "NOT", "Y", "Z", "S", "SDG", "CX", "CNOT", "CY", "CZ", "SWAP", "ISWAP"}
)

#: Primitive tableau ops a classified circuit lowers to; an op's opcode is
#: its index here.  Single-qubit kinds come first so arity is one compare.
TABLEAU_OPS = ("h", "s", "sdg", "x", "y", "z", "reset", "cx", "cz", "swap")
FIRST_TWO_QUBIT_OP = TABLEAU_OPS.index("cx")
_OPCODE = {name: code for code, name in enumerate(TABLEAU_OPS)}
#: The longest lowering of one instruction (RY: sdg, h, s-power, h, s).
_MAX_LOWERED_OPS = 5

#: What :func:`_lower_instruction` emits: ``(kind, q)`` / ``(kind, a, b)``
#: over :data:`TABLEAU_OPS`, plus ``("measure", q)`` markers.
TableauOp = tuple


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


def _s_power(k: int, qubit: int) -> list[TableauOp]:
    """Lower ``S^k`` (``k`` mod 4) on ``qubit`` to primitive ops."""
    k %= 4
    if k == 0:
        return []
    if k == 1:
        return [("s", qubit)]
    if k == 2:
        return [("z", qubit)]
    return [("sdg", qubit)]


def _lower_instruction(inst) -> tuple[list[TableauOp] | None, str]:
    """Lower one instruction to tableau ops, or name the obstruction.

    Returns ``(ops, "")`` on success and ``(None, reason)`` otherwise.
    """
    name = inst.name.upper()
    if name in ("BARRIER",):
        return [], ""
    if name in ("I", "ID"):
        return [], ""
    if name == "MEASURE":
        return [("measure", inst.qubits[0])], ""
    if name == "RESET":
        return [("reset", inst.qubits[0])], ""
    if inst.is_parameterized:
        return None, f"gate {name} has unbound symbolic parameters"
    qubits = inst.qubits
    if name in ("H", "X", "NOT", "Y", "Z", "S", "SDG"):
        op = {"NOT": "x"}.get(name, name.lower())
        return [(op, qubits[0])], ""
    if name in ("CX", "CNOT"):
        return [("cx", qubits[0], qubits[1])], ""
    if name == "CZ":
        return [("cz", qubits[0], qubits[1])], ""
    if name == "CY":
        # CY(a,b) = (I ⊗ S) · CX · (I ⊗ S†) — conjugate the target.
        a, b = qubits
        return [("sdg", b), ("cx", a, b), ("s", b)], ""
    if name == "SWAP":
        return [("swap", qubits[0], qubits[1])], ""
    if name == "ISWAP":
        # iSWAP = diag phases on the swapped pair: SWAP · S⊗S · CZ.
        a, b = qubits
        return [("swap", a, b), ("s", a), ("s", b), ("cz", a, b)], ""
    if name == "RZ":
        (theta,) = inst.bound_parameters()
        k = _angle_multiple(theta, math.pi / 2.0)
        if k is None:
            return None, f"RZ angle {theta!r} is not a multiple of π/2"
        return _s_power(k, qubits[0]), ""
    if name == "RX":
        (theta,) = inst.bound_parameters()
        k = _angle_multiple(theta, math.pi / 2.0)
        if k is None:
            return None, f"RX angle {theta!r} is not a multiple of π/2"
        if k % 4 == 0:
            return [], ""
        q = qubits[0]
        return [("h", q), *_s_power(k, q), ("h", q)], ""
    if name == "RY":
        (theta,) = inst.bound_parameters()
        k = _angle_multiple(theta, math.pi / 2.0)
        if k is None:
            return None, f"RY angle {theta!r} is not a multiple of π/2"
        if k % 4 == 0:
            return [], ""
        q = qubits[0]
        # RY(θ) = S · RX(θ) · S† (circuit order: S† first).
        return [("sdg", q), ("h", q), *_s_power(k, q), ("h", q), ("s", q)], ""
    if name == "CRZ":
        (theta,) = inst.bound_parameters()
        k = _angle_multiple(theta, math.pi)
        if k is None:
            return None, f"CRZ angle {theta!r} is not a multiple of π"
        # CRZ(kπ) = P(-kπ/2) on the control · CPHASE(kπ)
        #         = Sdg^k(control) · CZ^(k mod 2).
        a, b = qubits
        ops = _s_power(-k, a)
        if k % 2:
            ops.append(("cz", a, b))
        return ops, ""
    if name in ("CPHASE", "CP"):
        (theta,) = inst.bound_parameters()
        k = _angle_multiple(theta, math.pi)
        if k is None:
            return None, f"CPHASE angle {theta!r} is not a multiple of π"
        if k % 2 == 0:
            return [], ""
        return [("cz", qubits[0], qubits[1])], ""
    return None, f"gate {name} is not Clifford"


def _classify(circuit: CompositeInstruction) -> CliffordClassification:
    lowerings: list[list[TableauOp]] = []
    for inst in circuit:
        lowered, reason = _lower_instruction(inst)
        if lowered is None:
            return CliffordClassification(
                is_clifford=False, reason=reason, n_qubits=circuit.n_qubits
            )
        lowerings.append(lowered)
    # Only a circuit that lowered pays for the levelling.
    instruction_levels = circuit.instruction_levels()
    n_levels = max(instruction_levels, default=0) + 1
    codes: list[int] = []
    first: list[int] = []
    second: list[int] = []
    #: Moment sort key per op: (epoch, level, position within its source
    #: instruction, opcode) folded into one integer.
    keys: list[int] = []
    measured: list[int] = []
    seen_measured: set[int] = set()
    epoch = 0
    in_resets = False
    for lowered, level in zip(lowerings, instruction_levels):
        for step, op in enumerate(lowered):
            kind = op[0]
            if kind == "measure":
                if op[1] not in seen_measured:
                    seen_measured.add(op[1])
                    measured.append(op[1])
                continue
            is_reset = kind == "reset"
            if is_reset != in_resets:
                # A reset is a barrier: ops never move across it, and a run
                # of resets is one moment applied in program order.
                epoch += 1
                in_resets = is_reset
            code = _OPCODE[kind]
            codes.append(code)
            first.append(op[1])
            second.append(op[2] if code >= FIRST_TWO_QUBIT_OP else 0)
            position = 0 if is_reset else level * _MAX_LOWERED_OPS + step
            keys.append((epoch * n_levels * _MAX_LOWERED_OPS + position) * len(TABLEAU_OPS) + code)
    # Instructions on one level touch disjoint qubits, so do their ``step``-th
    # lowered ops: each run of equal keys is one moment.  The sort is stable,
    # which keeps a run of resets in program order.
    sort_keys = np.array(keys, dtype=np.int64)
    order = np.argsort(sort_keys, kind="stable")
    sort_keys = sort_keys[order]
    bounds = np.flatnonzero(sort_keys[1:] != sort_keys[:-1]) + 1
    moment_starts = np.concatenate(([0], bounds, [len(order)])) if len(order) else [0]
    # The verdict cache holds hundreds of these: store the narrowest integers.
    qubit_type = np.min_scalar_type(max(first + second, default=0))
    return CliffordClassification(
        is_clifford=True,
        n_qubits=circuit.n_qubits,
        measured_qubits=tuple(measured),
        has_reset=epoch > 0,
        n_gates=sum(inst.is_unitary for inst in circuit),
        depth=n_levels - 1,
        opcodes=np.array(codes, dtype=np.uint8)[order],
        first=np.array(first, dtype=qubit_type)[order],
        second=np.array(second, dtype=qubit_type)[order],
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
    if circuit.is_parameterized:
        return _classify(circuit)
    key = circuit_content_hash(circuit)
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
