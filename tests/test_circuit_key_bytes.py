"""The circuit key is the same bytes however it is built, and the IR stays small.

``circuit_content_hash`` is SHA-256 of the canonical JSON text
``json.dumps(circuit_to_dict(c), sort_keys=True, separators=(",", ":"),
default=repr)`` (name popped unless ``include_name``).  The key walk emits
that text directly; every test here holds it to the ``json.dumps`` oracle
byte for byte.  The digests marked *recorded* were taken from the tree that
still built the key through ``circuit_to_dict`` and classified through one
``_lower_instruction`` call per instruction, so a moved key, a moved
``is_parameterized`` or a moved classification array (values or dtype)
fails them.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir import serialization
from repro.ir.builder import CircuitBuilder
from repro.ir.composite import CompositeInstruction
from repro.ir.gates import (
    GATE_REGISTRY,
    Barrier,
    CX,
    H,
    Measure,
    PermutationGate,
    UnitaryGate,
    create_gate,
)
from repro.ir.parameter import Parameter, ParameterExpression
from repro.ir.serialization import circuit_content_hash, circuit_to_dict
from repro.ir.transforms.clifford import classify_clifford, clear_clifford_cache
from repro.service import job_key

#: sha256 over every generated circuit's key (both modes) and
#: ``is_parameterized``; recorded before the key walk.
RECORDED_KEYS = "7b8566e3bedbfff808b334c823f05da96019cc50e6b0766ad8beec4aa77b5d10"
#: sha256 over every generated circuit's classification (fields, array
#: values and dtypes); recorded before the table-driven classifier.
RECORDED_CLASSIFICATION = "0b1f38a956e02bc370287afef2b68491129dd03ccd529dd5345053df8c8ac4f6"


def oracle_text(circuit: CompositeInstruction, include_name: bool = False) -> str:
    payload = circuit_to_dict(circuit)
    if not include_name:
        payload.pop("name")
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), default=repr)


def assert_same_bytes(circuit: CompositeInstruction) -> None:
    for include_name in (False, True):
        text = serialization._canonical_text(circuit, include_name)[0]
        assert text == oracle_text(circuit, include_name)
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert circuit_content_hash(circuit, include_name=include_name) == digest


# -- a fixed generated set ------------------------------------------------------

_ONE_QUBIT = ("H", "X", "NOT", "Y", "Z", "S", "SDG", "I", "ID", "RESET", "MEASURE", "MZ")
_TWO_QUBIT = ("CX", "CNOT", "CZ", "SWAP", "CY", "ISWAP")
_ROTATIONS = (("RZ", 0.5), ("RX", 0.5), ("RY", 0.5), ("CRZ", 1.0), ("CPHASE", 1.0), ("CP", 1.0))
_OBSTRUCTIONS = ("T", "TDG", "CH", "CCX", "CSWAP", "U3")


def _angle(rng, unit: float) -> float:
    k = int(rng.integers(-5, 6))
    return k * unit * math.pi + float(rng.choice([0.0, 1e-12, -1e-12]))


def generated_circuits() -> list[CompositeInstruction]:
    """Clifford, Clifford-angle, reset, barrier and obstructed circuits."""
    rng = np.random.default_rng(4301)
    circuits = []
    for index in range(72):
        width = int(rng.integers(100, 260)) if index % 12 == 0 else int(rng.integers(1, 20))
        circuit = CompositeInstruction(f"gen{index}", width if index % 2 else None)
        obstructed = index % 6 == 5
        for _ in range(int(rng.integers(0, 12 * max(width, 3)))):
            roll = rng.random()
            qubits = [int(q) for q in rng.permutation(width)[: min(width, 3)]]
            if roll < 0.45 or width < 2:
                name = str(rng.choice(_ONE_QUBIT))
                circuit.add(create_gate(name, qubits[:1]))
            elif roll < 0.75:
                circuit.add(create_gate(str(rng.choice(_TWO_QUBIT)), qubits[:2]))
            elif roll < 0.9:
                name, unit = _ROTATIONS[int(rng.integers(len(_ROTATIONS)))]
                arity = 2 if name.startswith("C") else 1
                circuit.add(create_gate(name, qubits[:arity], [_angle(rng, unit)]))
            elif roll < 0.95:
                span = sorted(qubits[: int(rng.integers(0, len(qubits) + 1))])
                circuit.add(Barrier(span))
            elif obstructed and roll < 0.97:
                name = str(rng.choice(_OBSTRUCTIONS))
                arity = {"CH": 2, "CCX": 3, "CSWAP": 3}.get(name, 1)
                if arity <= width:
                    params = [0.1, 0.2, 0.3] if name == "U3" else []
                    circuit.add(create_gate(name, qubits[:arity], params))
            elif obstructed:
                kind = str(rng.choice(["RZ", "RY", "CPHASE"]))
                arity = 2 if kind == "CPHASE" else 1
                angle = Parameter("theta") if roll < 0.985 else 0.3
                circuit.add(create_gate(kind, qubits[:arity], [angle]))
        circuits.append(circuit)
    return circuits


def keys_digest(circuits) -> str:
    digest = hashlib.sha256()
    for circuit in circuits:
        digest.update(circuit_content_hash(circuit).encode())
        digest.update(circuit_content_hash(circuit, include_name=True).encode())
        digest.update(b"P" if circuit.is_parameterized else b"C")
    return digest.hexdigest()


def classification_digest(circuits) -> str:
    digest = hashlib.sha256()
    clear_clifford_cache()
    for circuit in circuits:
        verdict = classify_clifford(circuit)
        fields = (verdict.is_clifford, verdict.reason, verdict.n_qubits, verdict.measured_qubits,
                  verdict.has_reset, verdict.n_gates, verdict.depth)
        digest.update(repr(fields).encode())
        for array in (verdict.opcodes, verdict.first, verdict.second, verdict.moment_starts):
            digest.update(array.dtype.str.encode())
            digest.update(np.ascontiguousarray(array).tobytes())
    clear_clifford_cache()
    return digest.hexdigest()


def test_generated_set_covers_every_verdict_kind():
    circuits = generated_circuits()
    clear_clifford_cache()
    verdicts = [classify_clifford(c) for c in circuits]
    reasons = {" ".join(v.reason.split(" ")[:2]) for v in verdicts if v.reason}
    assert sum(v.is_clifford for v in verdicts) >= 50
    assert any(v.has_reset for v in verdicts)
    assert {"gate CCX", "gate RZ", "RZ angle", "CPHASE angle"} <= reasons
    assert any(c.is_parameterized for c in circuits)
    clear_clifford_cache()


def test_keys_of_the_generated_set_are_the_recorded_ones():
    assert keys_digest(generated_circuits()) == RECORDED_KEYS


def test_the_generated_set_keys_as_json_does():
    for circuit in generated_circuits()[::5]:
        assert_same_bytes(circuit)


def test_classifications_of_the_generated_set_are_the_recorded_ones():
    assert classification_digest(generated_circuits()) == RECORDED_CLASSIFICATION


# -- byte identity, case by case ---------------------------------------------------


def _registry_instance(name: str):
    cls = GATE_REGISTRY[name]
    arity = cls.num_qubits or 2
    params = [0.25 * (k + 1) for k in range(cls.num_parameters)]
    return create_gate(name, list(range(arity)), params)


@pytest.mark.parametrize("name", sorted(GATE_REGISTRY))
def test_every_registry_gate_keys_as_json_does(name):
    circuit = CompositeInstruction("one")
    circuit.add(_registry_instance(name))
    assert_same_bytes(circuit)


PARAMETERS = {
    "negative_zero": -0.0,
    "tiny": 1e-300,
    "huge": 1e300,
    "nan": float("nan"),
    "inf": float("inf"),
    "-inf": float("-inf"),
    "float64": np.float64(0.1) * 3,
    "int": 3,
    "bool": True,
    "parameter": Parameter("theta"),
    "expression": 2.5 * Parameter("phi") - 0.125,
    "negated": -Parameter("psi"),
    "unicode": Parameter("θ_é"),
    "quote": Parameter('a"b\\c'),
}


@pytest.mark.parametrize("label", sorted(PARAMETERS))
def test_parameters_key_as_json_does(label):
    value = PARAMETERS[label]
    circuit = CompositeInstruction("angles", 3)
    circuit.add(create_gate("RZ", [0], [value]))
    circuit.add(create_gate("U3", [1], [value, 0.5, value]))
    circuit.add(create_gate("CPHASE", [2, 0], [value]))
    assert_same_bytes(circuit)
    assert circuit.is_parameterized == isinstance(value, (Parameter, ParameterExpression))


def test_an_unserialisable_parameter_raises_as_before():
    circuit = CompositeInstruction("bad")
    circuit.add(create_gate("RZ", [0], [np.int64(1)]))
    with pytest.raises(serialization.IRError):
        circuit_to_dict(circuit)
    with pytest.raises(serialization.IRError):
        circuit_content_hash(circuit)


def test_matrix_gates_barriers_and_widths_key_as_json_does():
    circuit = CompositeInstruction("shor-ish")
    circuit.add(H([0]))
    circuit.add(PermutationGate([1, 2, 3, 0], [0, 1]))
    circuit.add(UnitaryGate(np.array([[0, 1j], [1j, 0]]), [2], name="my_iX"))
    circuit.add(Barrier([]))
    circuit.add(Barrier(list(range(3))))
    circuit.add(Measure([2]))
    assert_same_bytes(circuit)
    for width in (None, 3, 700):
        wide = CompositeInstruction("w", width)
        wide.add(Barrier([]))
        if width is not None:
            wide.add(Barrier(list(range(width))))
            wide.add(CX([width - 1, 0]))
        assert_same_bytes(wide)
    assert_same_bytes(CompositeInstruction("empty"))
    assert_same_bytes(CompositeInstruction("empty", 5))


def test_a_renamed_circuit_keys_its_new_name():
    circuit = CircuitBuilder(2, name="bell").h(0).cx(0, 1).build()
    circuit.name = 'quoted "name" ✓'
    assert_same_bytes(circuit)


names = st.sampled_from(sorted(n for n in GATE_REGISTRY if GATE_REGISTRY[n].num_qubits in (1, 2)))
angles = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-10, 10),
    st.sampled_from(["a", "b"]).map(Parameter),
)


steps = st.tuples(names, st.integers(0, 5), st.integers(1, 5), st.lists(angles, min_size=3, max_size=3))


@settings(max_examples=150, deadline=None)
@given(st.lists(steps, max_size=20), st.booleans())
def test_random_circuits_key_as_json_does(program, explicit_width):
    circuit = CompositeInstruction("random", 6 if explicit_width else None)
    for name, qubit, step, params in program:
        cls = GATE_REGISTRY[name]
        qubits = [qubit, (qubit + step) % 6][: cls.num_qubits]
        circuit.add(create_gate(name, qubits, params[: cls.num_parameters]))
    assert_same_bytes(circuit)


# -- work bound ----------------------------------------------------------------------


def test_the_key_of_a_plain_gate_circuit_builds_no_instruction_dict(monkeypatch):
    """The parent called ``instruction_to_dict`` once per instruction."""
    circuit = CircuitBuilder(5, name="plain").h(0).cx(0, 1).rz(2, 0.5).ry(3, Parameter("t"))
    circuit = circuit.barrier().measure_all().build()
    expected = hashlib.sha256(oracle_text(circuit).encode()).hexdigest()

    def forbidden(_instruction):
        raise AssertionError("instruction_to_dict on the key path")

    monkeypatch.setattr(serialization, "instruction_to_dict", forbidden)
    assert circuit_content_hash(circuit) == expected
    assert job_key(circuit, "qpp")
    assert circuit.is_parameterized


# -- memory ------------------------------------------------------------------------


def ghz(width: int) -> CompositeInstruction:
    builder = CircuitBuilder(width, name="ghz").h(0)
    for qubit in range(width - 1):
        builder.cx(qubit, qubit + 1)
    return builder.measure_all().build()


def traced_bytes(build):
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = build()
        gc.collect()
        return kept, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_a_ghz_circuit_is_small_and_keying_it_keeps_almost_nothing():
    """225-q GHZ: ~77 KB before the IR had slots and shared one-qubit tuples."""
    job_key(ghz(8), "qpp"), classify_clifford(ghz(8))  # warm every lazy table
    circuit, size = traced_bytes(lambda: ghz(225))
    assert len(circuit) == 450
    assert size <= 60 * 1024

    def key_and_classify():
        job_key(circuit, "qpp")
        assert classify_clifford(circuit).is_clifford
        clear_clifford_cache()  # the verdict lives in the cache, not on the circuit

    _, retained = traced_bytes(key_and_classify)
    assert retained <= 1024


def test_instructions_have_no_instance_dict_and_copies_keep_every_slot():
    gates = [create_gate(name, list(range(GATE_REGISTRY[name].num_qubits or 2)),
                         [0.5] * GATE_REGISTRY[name].num_parameters) for name in GATE_REGISTRY]
    gates += [PermutationGate([1, 0], [3]), UnitaryGate(np.eye(2), [4], name="eye")]
    for gate in gates:
        assert not hasattr(gate, "__dict__"), type(gate).__name__
        clone = gate.copy()
        assert type(clone) is type(gate) and clone == gate
        for slot in ("name", "qubits", "parameters", "_matrix", "permutation"):
            assert getattr(clone, slot, None) is getattr(gate, slot, None)
    assert H([3]).qubits is Measure([3]).qubits
    assert CompositeInstruction("c").__dict__ is not None
