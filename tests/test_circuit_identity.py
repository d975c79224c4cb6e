"""Circuit identity is computed once per object and is never stale.

``circuit_content_hash`` and ``is_parameterized`` are memoised on the
circuit under one rule (``CompositeInstruction``: ``add`` is the only
mutation and it only appends).  The oracle everywhere below is a *fresh*
object rebuilt through ``circuit_from_json(circuit_to_json(c))``, which has
no memo: whatever a memoised call answers, the fresh object must answer too.
"""

from __future__ import annotations

import copy
import pickle
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.race_detector import get_race_detector
from repro.ir.composite import CompositeInstruction
from repro.ir.gates import create_gate
from repro.ir.parameter import Parameter
from repro.ir.serialization import circuit_content_hash, circuit_from_json, circuit_to_json
from repro.service import QuantumJobService, binding_key, job_key, sweep_key

WIDTH = 4


def fresh(circuit: CompositeInstruction) -> CompositeInstruction:
    return circuit_from_json(circuit_to_json(circuit))


def assert_identity_is_fresh(circuit: CompositeInstruction) -> None:
    oracle = fresh(circuit)
    assert "_memo" not in oracle.__dict__
    assert circuit_content_hash(circuit) == circuit_content_hash(oracle)
    assert circuit.is_parameterized == oracle.is_parameterized


qubits = st.integers(0, WIDTH - 1)
angles = st.one_of(
    st.floats(-6.0, 6.0, allow_nan=False),
    st.sampled_from(["a", "b"]).map(Parameter),
)
gates = st.one_of(
    st.builds(lambda q: create_gate("H", [q]), qubits),
    st.builds(lambda q, theta: create_gate("RY", [q], [theta]), qubits, angles),
    st.builds(lambda q, step: create_gate("CX", [q, (q + step) % WIDTH]), qubits, st.integers(1, 3)),
    st.builds(lambda q: create_gate("MEASURE", [q]), qubits),
)
steps = st.one_of(
    st.tuples(st.just("add"), gates),
    st.tuples(st.just("extend"), st.lists(gates, max_size=4)),
    st.tuples(st.just("hash"), st.none()),
    st.tuples(st.just("is_parameterized"), st.none()),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(steps, max_size=12), st.booleans())
def test_memoised_answers_equal_a_fresh_objects_under_any_interleaving(program, explicit_width):
    circuit = CompositeInstruction("subject", WIDTH if explicit_width else None)
    for step, argument in program:
        if step == "add":
            circuit.add(argument)
        elif step == "extend":
            circuit.extend(argument)
        elif step == "hash":
            assert circuit_content_hash(circuit) == circuit_content_hash(fresh(circuit))
        else:
            assert circuit.is_parameterized == fresh(circuit).is_parameterized
    assert_identity_is_fresh(circuit)
    assert_identity_is_fresh(circuit)  # and again, from the memo


def template() -> CompositeInstruction:
    circuit = CompositeInstruction("template")
    for qubit in range(WIDTH):
        circuit.add(create_gate("RY", [qubit], [Parameter(f"t{qubit}")]))
    for qubit in range(WIDTH - 1):
        circuit.add(create_gate("CX", [qubit, qubit + 1]))
    assert circuit_content_hash(circuit) and circuit.is_parameterized  # warms the memo
    return circuit


DERIVATIONS = {
    "copy": lambda c: c.copy(),
    "bind": lambda c: c.bind([0.1, 0.2, 0.3, 0.4]),
    "inverse": lambda c: c.bind([0.1, 0.2, 0.3, 0.4]).inverse(),
    "remapped": lambda c: c.remapped({0: 3, 1: 2, 2: 1, 3: 0}),
    "without_measurements": lambda c: c.add(create_gate("MEASURE", [0])).without_measurements(),
    "concatenated": lambda c: c + c,
    "pickle": lambda c: pickle.loads(pickle.dumps(c)),
    "deepcopy": lambda c: copy.deepcopy(c),
}


@pytest.mark.parametrize("name", DERIVATIONS)
def test_derived_circuits_never_answer_from_a_stale_memo(name):
    source = template()
    derived = DERIVATIONS[name](source)
    assert derived is not source
    assert_identity_is_fresh(derived)
    assert_identity_is_fresh(source)
    # Growing the derived object drops whatever memo it started with ...
    derived.add(create_gate("H", [0]))
    assert_identity_is_fresh(derived)
    # ... and never reaches back into the object it came from.
    assert_identity_is_fresh(source)


def test_new_objects_start_without_a_memo_and_a_pickle_keeps_its_own():
    source = template()
    for name in ("copy", "bind", "inverse", "remapped", "without_measurements"):
        assert "_memo" not in DERIVATIONS[name](template()).__dict__, name
    carried = pickle.loads(pickle.dumps(source)).__dict__["_memo"]
    assert carried == source.__dict__["_memo"]


def test_include_name_is_neither_served_from_nor_written_to_the_memo():
    circuit = template()
    anonymous = circuit_content_hash(circuit)
    named = circuit_content_hash(circuit, include_name=True)
    assert named != anonymous
    assert named == circuit_content_hash(fresh(circuit), include_name=True)
    circuit.name = "renamed"
    assert circuit_content_hash(circuit, include_name=True) != named
    assert circuit_content_hash(circuit) == anonymous

    cold = fresh(circuit)
    circuit_content_hash(cold, include_name=True)
    assert "_memo" not in cold.__dict__


def test_four_threads_hashing_one_circuit_all_get_the_fresh_digest():
    expected = circuit_content_hash(template())
    for _ in range(20):
        circuit = fresh(template())
        barrier = threading.Barrier(4)
        answers: list[tuple[str, bool]] = []

        def hash_it():
            barrier.wait(timeout=10)
            answers.append((circuit_content_hash(circuit), circuit.is_parameterized))

        threads = [threading.Thread(target=hash_it) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert answers == [(expected, True)] * 4
        assert circuit_content_hash(circuit) == expected
    assert get_race_detector().race_count() == 0


def recorded_keys() -> dict[str, str]:
    circuit = template()
    options = {"precision": "single", "threads": 3, "method": "auto"}
    bindings = [[0.1, 0.2, 0.3, 0.4], {"t3": 4.0, "t0": 1.0, "t1": 2.0, "t2": 3.0}]
    return {
        "content": circuit_content_hash(circuit),
        "job": job_key(circuit, "QPP", options),
        "job_plain": job_key(circuit, "qpp"),
        "sweep": sweep_key(circuit, "qpp", options, bindings),
        "binding_list": binding_key(circuit, "qpp", options, bindings[0]),
        "binding_map": binding_key(circuit, "qpp", options, bindings[1]),
    }


RECORDED_KEYS = {
    "content": "8bedc19efd299c5bf129be5959d2a22291eab5503925214c4f18b306bbb00079",
    "job": "9b162b542104c3491f3f442c7b1613510a7f907098cf3597a43768abeb79fd3a",
    "job_plain": "9d7ff44cb6ae82f0f495825fa70179e9bc2b09b041096eb999d38219f1283f24",
    "sweep": "ba6966927d1fbf8c5cbb3350b60f06a04558a81af90003073e9d94a6501517f1",
    "binding_list": "e19082020f3730b41d724755cf72eeafa39d130821ef6bdd6de84bc0eb4c18c4",
    "binding_map": "c9a470da06b6b05989539521be3eb94a5a716b3980a173abd30b56a917a909b0",
}


def test_keys_are_byte_identical_to_the_ones_recorded_at_164e1b8():
    assert recorded_keys() == RECORDED_KEYS


OPTION_SETS = (
    {},
    {"threads": 2},
    {"method": "statevector"},
    {"method": "auto"},
    {"method": "stabilizer"},
)


@pytest.mark.parametrize("options", OPTION_SETS, ids=lambda o: str(o) or "plain")
def test_service_keys_are_the_public_keys(options):
    ghz = CompositeInstruction("ghz")
    ghz.add(create_gate("H", [0]))
    for qubit in range(WIDTH - 1):
        ghz.add(create_gate("CX", [qubit, qubit + 1]))
    for qubit in range(WIDTH):
        ghz.add(create_gate("MEASURE", [qubit]))
    with QuantumJobService(workers=1, backend_options=options, name="identity") as service:
        for _ in range(2):  # a miss, then a hit
            result = service.submit(ghz, shots=64).result(timeout=30)
            assert result.key == job_key(fresh(ghz), "qpp", options)

        if options.get("method") == "stabilizer":
            return  # the sweep's bindings below are not Clifford
        sweep = template()
        for qubit in range(WIDTH):
            sweep.add(create_gate("MEASURE", [qubit]))
        bindings = [[0.1, 0.2, 0.3, 0.4], {"t0": 1.0, "t1": 2.0, "t2": 3.0, "t3": 4.0}]
        handle = service.submit_sweep(sweep, bindings, shots=64)
        rows = handle.result(timeout=30)
        assert handle.sweep_key == sweep_key(fresh(sweep), "qpp", options, bindings)
        for row, binding in zip(rows, bindings):
            assert row.key == binding_key(fresh(sweep), "qpp", options, binding)
            assert handle.binding_keys[row.index] == row.key
