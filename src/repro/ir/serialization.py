"""JSON (de)serialization of circuits, and the circuit content key.

Circuits are converted to plain dictionaries so they can be persisted,
shipped to the simulated remote accelerator, or compared in tests.  Symbolic
parameters are stored as ``{"parameter": name, "scale": s, "offset": o}``;
matrix-defined gates store their matrices as nested ``[real, imag]`` pairs.

The content key (:func:`circuit_content_hash`) is SHA-256 of the canonical
JSON text of that dictionary: ``json.dumps(circuit_to_dict(c),
sort_keys=True, separators=(",", ":"), default=repr)``, name popped.  The
key does not build the dictionary.  One walk over the instructions emits
the same text byte for byte (a cached ``{"name":…,"parameters":[`` prefix
per gate name, parameters through ``float.__repr__`` as ``json`` spells
them, then ``],"qubits":[…],"type":"gate"}``; matrix gates alone go through
:func:`instruction_to_dict`), and the same walk answers
``is_parameterized``.  Every key ever computed is therefore unchanged.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

import numpy as np

from ..exceptions import IRError
from .composite import CompositeInstruction
from .gates import GATE_REGISTRY, PermutationGate, UnitaryGate, create_gate
from .instruction import Instruction
from .parameter import Parameter, ParameterExpression

__all__ = [
    "circuit_to_dict",
    "circuit_from_dict",
    "circuit_to_json",
    "circuit_from_json",
    "circuit_content_hash",
    "canonical_json",
    "instruction_to_dict",
    "instruction_from_dict",
]


def _param_to_obj(param: Any) -> Any:
    if isinstance(param, (int, float)):
        return float(param)
    if isinstance(param, Parameter):
        return {"parameter": param.name, "scale": 1.0, "offset": 0.0}
    if isinstance(param, ParameterExpression):
        return {"parameter": param.parameter.name, "scale": param.scale, "offset": param.offset}
    raise IRError(f"cannot serialize parameter of type {type(param).__name__}")


def _param_from_obj(obj: Any) -> Any:
    if isinstance(obj, (int, float)):
        return float(obj)
    if isinstance(obj, dict) and "parameter" in obj:
        expr = ParameterExpression(
            Parameter(obj["parameter"]), obj.get("scale", 1.0), obj.get("offset", 0.0)
        )
        if expr.scale == 1.0 and expr.offset == 0.0:
            return expr.parameter
        return expr
    raise IRError(f"cannot deserialize parameter object {obj!r}")


def instruction_to_dict(instruction: Instruction) -> dict:
    """Convert one instruction to a JSON-safe dictionary."""
    data: dict[str, Any] = {
        "name": instruction.name,
        "qubits": list(instruction.qubits),
        "parameters": [_param_to_obj(p) for p in instruction.parameters],
    }
    if isinstance(instruction, PermutationGate):
        data["type"] = "permutation"
        data["permutation"] = list(instruction.permutation)
    elif isinstance(instruction, UnitaryGate):
        data["type"] = "unitary"
        matrix = instruction.matrix()
        data["matrix"] = [[[float(v.real), float(v.imag)] for v in row] for row in matrix]
    else:
        data["type"] = "gate"
    return data


def instruction_from_dict(data: dict) -> Instruction:
    """Rebuild an instruction from :func:`instruction_to_dict` output."""
    kind = data.get("type", "gate")
    qubits = [int(q) for q in data["qubits"]]
    if kind == "permutation":
        return PermutationGate(data["permutation"], qubits, name=data.get("name", "PERM"))
    if kind == "unitary":
        matrix = np.array(
            [[complex(re, im) for re, im in row] for row in data["matrix"]], dtype=complex
        )
        return UnitaryGate(matrix, qubits, name=data.get("name", "UNITARY"))
    name = data["name"]
    if name.upper() not in GATE_REGISTRY:
        raise IRError(f"unknown gate name {name!r} in serialized circuit")
    parameters = [_param_from_obj(p) for p in data.get("parameters", [])]
    return create_gate(name, qubits, parameters)


def circuit_to_dict(circuit: CompositeInstruction) -> dict:
    """Convert a circuit to a JSON-safe dictionary."""
    return {
        "name": circuit.name,
        "n_qubits": circuit.n_qubits,
        "instructions": [instruction_to_dict(inst) for inst in circuit],
    }


def circuit_from_dict(data: dict) -> CompositeInstruction:
    """Rebuild a circuit from :func:`circuit_to_dict` output."""
    circuit = CompositeInstruction(data.get("name", "circuit"), data.get("n_qubits"))
    for inst in data.get("instructions", []):
        circuit.add(instruction_from_dict(inst))
    return circuit


def circuit_to_json(circuit: CompositeInstruction, **json_kwargs: Any) -> str:
    """Serialize a circuit to a JSON string."""
    return json.dumps(circuit_to_dict(circuit), **json_kwargs)


def circuit_from_json(text: str) -> CompositeInstruction:
    """Deserialize a circuit from a JSON string."""
    return circuit_from_dict(json.loads(text))


def circuit_content_hash(circuit: CompositeInstruction, include_name: bool = False) -> str:
    """SHA-256 over the circuit's canonical JSON form.

    By default the circuit *name* is excluded: ``bell`` and ``bell_copy``
    containing identical instructions are the same work.  This is the one
    canonical content identity shared by the job broker's result cache
    (:mod:`repro.service.keys`), the Clifford classifier's verdict cache and
    the simulator's execution-plan cache (:mod:`repro.simulator.plan_cache`),
    so the default digest is computed once per circuit object (see
    :class:`~repro.ir.composite.CompositeInstruction` for the invalidation
    rule).  ``include_name=True`` is never memoised: the name is assignable.
    """
    if include_name:
        return _content_hash(circuit, True)
    return circuit.memoised("content_hash", lambda: _content_hash(circuit, False))


def _content_hash(circuit: CompositeInstruction, include_name: bool) -> str:
    text, parameterized = _canonical_text(circuit, include_name)
    if not include_name:
        # The walk has answered ``is_parameterized`` too; keep the bool.
        circuit.memoised("is_parameterized", lambda: parameterized)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def canonical_json(obj: Any) -> str:
    """Serialize ``obj`` deterministically (sorted keys, no whitespace): the
    text every content key in this runtime hashes."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=repr)


_NON_FINITE = {float("inf"): "Infinity", float("-inf"): "-Infinity"}


def _float_text(value: float) -> str:
    """``json.dumps(value)`` for a float: its repr, or json's non-finite names."""
    if value != value:
        return "NaN"
    return _NON_FINITE.get(value) or float.__repr__(value)


def _prefix(name: str) -> str:
    return f'{{"name":{canonical_json(name)},"parameters":['


#: Every registry mnemonic's ``{"name":…,"parameters":[`` prefix.
_PREFIXES = {name: _prefix(name) for name in GATE_REGISTRY}
_SUFFIX = '],"type":"gate"}'


def _canonical_text(circuit: CompositeInstruction, include_name: bool) -> tuple[str, bool]:
    """The canonical JSON text of ``circuit`` and its ``is_parameterized``.

    Equal to ``json.dumps`` of :func:`circuit_to_dict` (name popped unless
    ``include_name``) with sorted keys and compact separators.  A gate's
    keys sort as ``name``, ``parameters``, ``qubits``, ``type``; the
    circuit's as ``instructions``, ``n_qubits``, ``name``.
    """
    parts: list[str] = []
    append = parts.append
    prefixes = _PREFIXES.get
    parameterized = False
    for inst in circuit:
        if isinstance(inst, UnitaryGate):
            append(canonical_json(instruction_to_dict(inst)))
            parameterized = parameterized or inst.is_parameterized
            continue
        params_text = ""
        if inst.parameters:
            texts = []
            for param in inst.parameters:
                if isinstance(param, (int, float)):
                    texts.append(_float_text(float(param)))
                else:  # a symbol (anything else raises IRError)
                    texts.append(canonical_json(_param_to_obj(param)))
                    parameterized = True
            params_text = ",".join(texts)
        qubits = inst.qubits
        qubits_text = str(qubits[0]) if len(qubits) == 1 else ",".join(map(str, qubits))
        name = inst.name
        append(
            f'{prefixes(name) or _prefix(name)}{params_text}],"qubits":[{qubits_text}{_SUFFIX}'
        )
    width = canonical_json(circuit.n_qubits)
    tail = f',"name":{canonical_json(circuit.name)}}}' if include_name else "}"
    text = f'{{"instructions":[{",".join(parts)}],"n_qubits":{width}{tail}'
    return text, parameterized
