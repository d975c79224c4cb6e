"""Composite instructions (circuits).

A :class:`CompositeInstruction` is the XACC-style container for an ordered
list of instructions.  It tracks the number of qubits, exposes convenience
queries (depth, gate counts, free parameters), supports parameter binding,
inversion, concatenation and remapping onto other qubit indices, and renders
to XASM text.  ``Circuit`` is an alias provided for readability.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

import numpy as np

from ..exceptions import IRError, InvalidGateError, ParameterBindingError
from .instruction import Instruction
from .parameter import Parameter

__all__ = ["CompositeInstruction", "Circuit"]

_T = TypeVar("_T")


class CompositeInstruction(Instruction):
    """An ordered collection of instructions over ``n_qubits`` qubits.

    **Instructions are immutable once added.**  :meth:`add` is the only
    mutation path and it only appends; nothing assigns an instruction's
    ``qubits`` or ``parameters`` after construction (``with_qubits`` /
    ``with_parameters`` / ``bind`` return new instructions).  Every value
    derived from the instruction list is therefore valid for as long as the
    instruction count is unchanged, and that is the one invalidation rule of
    :meth:`memoised`: the content hash
    (:func:`~repro.ir.serialization.circuit_content_hash`, which the job
    keys, the Clifford classifier and the plan cache all share),
    :attr:`is_parameterized` and the executors' JSON payload are computed
    once per circuit *object* and dropped by the next :meth:`add`.  The
    key's one walk answers :attr:`is_parameterized` as well, and the memo
    keeps only the digest and that bool, never the walk's lists: a caller
    that keeps a keyed circuit keeps a few hundred bytes more.
    ``copy``, ``bind``, ``inverse``, ``remapped`` and
    ``without_measurements`` build new objects and start without a memo; a
    pickled circuit carries its (still valid) memo with it.  Code that
    mutates an instruction in place after adding it must not rely on any of
    these.

    The instructions themselves carry ``__slots__`` (no instance dict), and
    every one-qubit instruction on a low qubit index shares one ``(q,)``
    tuple, so a circuit that callers keep is mostly its list.  A composite
    keeps its ``__dict__``: it holds the memo.
    """

    is_composite = True
    num_qubits = 0
    num_parameters = 0

    def __init__(
        self,
        name: str = "circuit",
        n_qubits: int | None = None,
        instructions: Iterable[Instruction] = (),
    ):
        self._instructions: list[Instruction] = []
        self._n_qubits = int(n_qubits) if n_qubits is not None else 0
        self._explicit_width = n_qubits is not None
        # Instruction.__init__ validates qubits/params; composites have none.
        super().__init__(name, (), ())
        self.name = str(name)
        for inst in instructions:
            self.add(inst)

    # -- validation overrides -------------------------------------------------
    def _validate(self) -> None:  # composites carry no qubits/parameters
        return None

    # -- container protocol ---------------------------------------------------
    def add(self, instruction: Instruction) -> "CompositeInstruction":
        """Append an instruction (or inline another composite)."""
        if not isinstance(instruction, Instruction):
            raise IRError(f"expected an Instruction, got {type(instruction).__name__}")
        if instruction.is_composite:
            for inner in instruction:  # type: ignore[attr-defined]
                self.add(inner)
            return self
        max_qubit = max(instruction.qubits, default=-1)
        if self._explicit_width and max_qubit >= self._n_qubits:
            raise InvalidGateError(
                f"instruction {instruction.name} touches qubit {max_qubit} but the "
                f"circuit only has {self._n_qubits} qubit(s)"
            )
        self._n_qubits = max(self._n_qubits, max_qubit + 1)
        self._instructions.append(instruction)
        return self

    def extend(self, instructions: Iterable[Instruction]) -> "CompositeInstruction":
        for inst in instructions:
            self.add(inst)
        return self

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self._instructions)

    def __len__(self) -> int:
        return len(self._instructions)

    def memoised(self, slot: str, compute: Callable[[], _T]) -> _T:
        """``compute()``, kept on the circuit until the next :meth:`add`.

        For values that depend on the instruction list alone: assigning
        ``name`` drops nothing.  Threads racing on a cold slot each compute
        the same value; the stores are idempotent.
        """
        count = len(self._instructions)
        memo = self.__dict__.get("_memo")
        if memo is None or memo[0] != count:
            memo = self.__dict__["_memo"] = (count, {})
        values = memo[1]
        if slot not in values:
            values[slot] = compute()
        return values[slot]

    def __getitem__(self, index):
        return self._instructions[index]

    @property
    def instructions(self) -> tuple[Instruction, ...]:
        return tuple(self._instructions)

    # -- introspection ---------------------------------------------------------
    @property
    def n_qubits(self) -> int:
        return self._n_qubits

    @property
    def n_instructions(self) -> int:
        return len(self._instructions)

    @property
    def n_gates(self) -> int:
        """Number of unitary gate instructions (excludes measure/reset/barrier)."""
        return sum(1 for inst in self._instructions if inst.is_unitary)

    @property
    def n_measurements(self) -> int:
        return sum(1 for inst in self._instructions if inst.is_measurement)

    @property
    def is_parameterized(self) -> bool:
        # The content key's walk memoises this too (repro.ir.serialization).
        return self.memoised(
            "is_parameterized",
            lambda: any(inst.is_parameterized for inst in self._instructions if inst.parameters),
        )

    @property
    def free_parameters(self) -> frozenset[Parameter]:
        free: set[Parameter] = set()
        for inst in self._instructions:
            free.update(inst.free_parameters)
        return frozenset(free)

    def gate_counts(self) -> Counter:
        """Histogram of instruction names, e.g. ``{"H": 1, "CX": 1, "MEASURE": 2}``."""
        return Counter(inst.name for inst in self._instructions)

    def instruction_levels(self) -> list[int]:
        """Time step of every instruction: one step per instruction per qubit.

        Instructions that share a level act on disjoint qubits.  A qubit-less
        ``BARRIER`` aligns every qubit seen so far on the deepest one and
        takes no step of its own.
        """
        # The frontier is a list over the register: an untouched qubit reads
        # 0 and a touched one >= 1, so "the qubits seen so far" are its
        # nonzero entries.
        frontier = [0] * self._n_qubits
        levels: list[int] = []
        append = levels.append
        for inst in self._instructions:
            qubits = inst.qubits
            if len(qubits) == 1:
                q = qubits[0]
                level = frontier[q] = frontier[q] + 1
            elif qubits:
                level = max([frontier[q] for q in qubits]) + 1
                for q in qubits:
                    frontier[q] = level
            else:
                level = max(frontier, default=0) + (inst.name != "BARRIER")
                frontier = [level if seen else 0 for seen in frontier]
            append(level)
        return levels

    def depth(self) -> int:
        """Circuit depth counting each instruction as one time step per qubit."""
        return max(self.instruction_levels(), default=0)

    def qubits_used(self) -> frozenset[int]:
        used: set[int] = set()
        for inst in self._instructions:
            used.update(inst.qubits)
        return frozenset(used)

    # -- rewriting -------------------------------------------------------------
    def bind(self, values: Mapping[str, float] | Sequence[float]) -> "CompositeInstruction":
        """Bind symbolic parameters.

        ``values`` may be a mapping from parameter name to float, or a
        sequence of floats that is matched against the circuit's free
        parameters sorted by name (the convention used by
        :class:`~repro.core.objective.ObjectiveFunction`).
        """
        if not isinstance(values, Mapping):
            names = sorted(p.name for p in self.free_parameters)
            values_seq = list(values)
            if len(values_seq) != len(names):
                raise ParameterBindingError(
                    f"expected {len(names)} parameter value(s) for {names}, "
                    f"got {len(values_seq)}"
                )
            values = dict(zip(names, (float(v) for v in values_seq)))
        bound = CompositeInstruction(self.name, self._n_qubits)
        for inst in self._instructions:
            bound.add(inst.bind(values) if inst.is_parameterized else inst.copy())
        return bound

    # Keep the Instruction API name available for composites too.
    bind_parameters = bind

    def inverse(self) -> "CompositeInstruction":
        """Return the adjoint circuit (reversed order, each gate inverted)."""
        inv = CompositeInstruction(f"{self.name}_dg", self._n_qubits)
        for inst in reversed(self._instructions):
            inv.add(inst.inverse())
        return inv

    def remapped(self, mapping: Mapping[int, int]) -> "CompositeInstruction":
        """Return a copy with qubit indices translated through ``mapping``."""
        remapped = CompositeInstruction(self.name)
        for inst in self._instructions:
            try:
                new_qubits = [mapping[q] for q in inst.qubits]
            except KeyError as exc:
                raise IRError(f"qubit {exc.args[0]} missing from remapping") from exc
            remapped.add(inst.with_qubits(new_qubits))
        return remapped

    def copy(self) -> "CompositeInstruction":
        clone = CompositeInstruction(self.name, self._n_qubits if self._explicit_width else None)
        clone._n_qubits = self._n_qubits
        for inst in self._instructions:
            clone._instructions.append(inst.copy())
        return clone

    def concatenated(self, other: "CompositeInstruction") -> "CompositeInstruction":
        """Return a new circuit running ``self`` then ``other``."""
        result = self.copy()
        result.name = f"{self.name}+{other.name}"
        for inst in other:
            result.add(inst.copy())
        return result

    def __add__(self, other: "CompositeInstruction") -> "CompositeInstruction":
        if not isinstance(other, CompositeInstruction):
            return NotImplemented
        return self.concatenated(other)

    def without_measurements(self) -> "CompositeInstruction":
        """Return a copy with all MEASURE instructions removed."""
        stripped = CompositeInstruction(self.name, self._n_qubits)
        for inst in self._instructions:
            if not inst.is_measurement:
                stripped.add(inst.copy())
        return stripped

    def measured_qubits(self) -> tuple[int, ...]:
        """Qubits that are explicitly measured, in program order (deduplicated)."""
        seen: list[int] = []
        for inst in self._instructions:
            if inst.is_measurement and inst.qubits[0] not in seen:
                seen.append(inst.qubits[0])
        return tuple(seen)

    # -- dense form (for tests / small circuits) --------------------------------
    def to_unitary(self) -> np.ndarray:
        """Return the full 2^n x 2^n unitary of the (measurement-free) circuit.

        Intended for verification on small circuits; raises for circuits that
        contain measurements or more than 12 qubits.
        """
        if self.n_measurements:
            raise IRError("cannot build the unitary of a circuit containing measurements")
        if self._n_qubits > 12:
            raise IRError("to_unitary() is limited to 12 qubits")
        from ..simulator.unitary import circuit_unitary  # local import, avoids a cycle

        return circuit_unitary(self)

    # -- text ---------------------------------------------------------------------
    def to_xasm(self) -> str:
        """Render the circuit as an XASM-like kernel body."""
        lines = [f"// kernel {self.name} ({self._n_qubits} qubits)"]
        lines.extend(inst.to_xasm() for inst in self._instructions)
        return "\n".join(lines)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CompositeInstruction):
            return NotImplemented
        return (
            self._n_qubits == other._n_qubits
            and len(self._instructions) == len(other._instructions)
            and all(a == b for a, b in zip(self._instructions, other._instructions))
        )

    def __hash__(self) -> int:
        return hash((self._n_qubits, len(self._instructions)))

    def __repr__(self) -> str:
        return (
            f"CompositeInstruction(name={self.name!r}, n_qubits={self._n_qubits}, "
            f"n_instructions={len(self._instructions)})"
        )


#: Readable alias used throughout the code base.
Circuit = CompositeInstruction
