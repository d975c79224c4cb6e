"""Fixed-seed tableau histograms pinned bit for bit, key order included.

The digests below were recorded from the byte-per-bit tableau this repo
shipped before the packed rewrite (``StabilizerBackend.execute`` at commit
e515b78).  The packed tableau keeps the same affine forms (they are
canonical, so terminal sampling's one GF(2) elimination yields the forms
measuring qubit after qubit did), the same single ``rng.integers`` draw and
the same lexicographic key order, so every digest must hold unchanged: a
different affine form, a different random-bit numbering or a different dict
order each moves the sha256.
"""

import hashlib

import numpy as np
import pytest

from repro.exec.stabilizer import StabilizerBackend
from repro.ir.builder import CircuitBuilder
from repro.ir.transforms import clifford
from repro.ir.transforms.clifford import classify_clifford

SHOTS = 1024
WIDTHS = (5, 50, 200, 400)
SEEDS = (0, 1234)


def ghz_chain_circuit(rng, n_qubits: int):
    """GHZ grown along a random qubit order (the benchmark's ``ghz`` family)."""
    order = [int(q) for q in rng.permutation(n_qubits)]
    builder = CircuitBuilder(n_qubits, name="ghz_chain")
    builder.h(order[0])
    for control, target in zip(order[:-1], order[1:]):
        builder.cx(control, target)
    return builder.measure_all().build()


def brickwork_circuit(rng, n_qubits: int, depth: int = 8, measure=None):
    """Random H/S/CX/CZ brickwork (the benchmark's ``brickwork`` family)."""
    builder = CircuitBuilder(n_qubits, name="brickwork")
    for layer in range(depth):
        for qubit, gate in enumerate(rng.integers(3, size=n_qubits)):
            if gate == 0:
                builder.h(qubit)
            elif gate == 1:
                builder.s(qubit)
        pairs = range(layer % 2, n_qubits - 1, 2)
        for qubit, gate in zip(pairs, rng.integers(2, size=len(pairs))):
            if gate:
                builder.cx(qubit, qubit + 1)
            else:
                builder.cz(qubit, qubit + 1)
    if measure is None:
        return builder.measure_all().build()
    for qubit in measure:
        builder.measure(qubit)
    return builder.build()


def partial_measurement_circuit():
    return brickwork_circuit(np.random.default_rng(31), 24, 6, measure=(19, 2, 7, 11, 3))


def mid_circuit_reset_circuit():
    rng = np.random.default_rng(32)
    n = 16
    builder = CircuitBuilder(n, name="resets")
    for layer in range(6):
        for qubit in range(n):
            builder.h(qubit) if rng.random() < 0.5 else builder.s(qubit)
        for qubit in range(layer % 2, n - 1, 2):
            builder.cx(qubit, qubit + 1)
        for qubit in rng.choice(n, size=3, replace=False):
            builder.reset(int(qubit))
    return builder.measure_all().build()


def every_lowered_op_circuit():
    """One of everything the classifier lowers, rotations at Clifford angles."""
    half = np.pi / 2
    builder = CircuitBuilder(6, name="every_op")
    for qubit in range(6):
        builder.h(qubit)
    builder.s(0).sdg(1).x(2).y(3).z(4).i(5)
    builder.cx(0, 1).cz(1, 2).cy(2, 3).swap(3, 4).iswap(4, 5)
    builder.rz(0, half).rz(1, 2 * half).rz(2, 3 * half).rz(3, 4 * half)
    builder.rx(0, half).rx(1, 2 * half).rx(2, -half)
    builder.ry(3, half).ry(4, 2 * half).ry(5, 3 * half)
    builder.crz(0, 1, np.pi).crz(1, 2, 2 * np.pi).crz(2, 3, -np.pi)
    builder.cphase(3, 4, np.pi).cphase(4, 5, 2 * np.pi)
    builder.reset(5).h(5).cx(5, 0)
    for qubit in range(6):
        builder.h(qubit) if qubit % 2 else builder.s(qubit)
    return builder.measure_all().build()


def workload_circuits():
    """``(label, circuit)`` over both benchmark families at every pinned width."""
    for width in WIDTHS:
        yield f"ghz{width}", ghz_chain_circuit(np.random.default_rng(width), width)
        yield f"brick{width}", brickwork_circuit(np.random.default_rng(1000 + width), width)


CIRCUITS = dict(workload_circuits())
CIRCUITS["partial"] = partial_measurement_circuit()
CIRCUITS["resets"] = mid_circuit_reset_circuit()
CIRCUITS["every_op"] = every_lowered_op_circuit()


def histogram_digest(counts: dict) -> str:
    """sha256 over the *ordered* ``(key, count)`` items."""
    digest = hashlib.sha256()
    for key, count in counts.items():
        digest.update(f"{key}:{count};".encode())
    return digest.hexdigest()


#: ``(circuit label, seed) -> digest`` recorded at the parent commit.
RECORDED = {
    ("ghz5", 0): "dd72ca7648d1b596a66a7c3226c69a5f9e766cf71202dcad6986c05f85693a65",
    ("ghz5", 1234): "ef9039a92c4a19357ddde85455bcd0de43efedd1c2c7a75faa24f5162ebf43c1",
    ("brick5", 0): "3cedc0c04808784e8996c83a8ca9a2b74e64d19090a3189b7030b4bbee790cfb",
    ("brick5", 1234): "65993c187585b9a9af3f7862254b4b8876f07dd7d01d39e0b0f6f8c6b0d398ec",
    ("ghz50", 0): "7293600b258c8d786ded7aaf5a1e80017883c7062dfcff2afc33bc93e3f88f20",
    ("ghz50", 1234): "3b2d7f1e2afd3f70e753ff45586849ab4dd8dd58cf0e73437943d0d2c505540e",
    ("brick50", 0): "8ed2f124d6774c6848d274aa9b9d3ac7efbc456697a29fb315df927aa32591c8",
    ("brick50", 1234): "699e5344678d64e60b96eff9f3d28ae9cb1b5665eeebbe02dfcc580aa7bfe98d",
    ("ghz200", 0): "3ad927f82feace25849b26eb9a9a1d0a0eba01b5911e8bf00a7d654fbc17f1ff",
    ("ghz200", 1234): "54548e77a501e57d7daf59bf9d7b51aeb19bd704f4fcb765ef963a4980b510f1",
    ("brick200", 0): "16dac07460bc8ae3fe2c1d494e4beb1ffb6b4d8c231f26c01e31e9002ea15591",
    ("brick200", 1234): "67bec8fddd39ab9af0aa725972a10ac5c9768182eb62391b9a73e9bb97f12276",
    ("ghz400", 0): "a8364d867ba8f18f644994b8d50ce45c4f06db177f7adc469c92f2c176aae58a",
    ("ghz400", 1234): "1c655ed9ec37e97dd7766f5a5931c57f751dd5917fa90273fac9cc91b7e03de2",
    ("brick400", 0): "0e3afaf6c1b033282d20e6f39e71ad1043d0e767249db200e82c1a98a190bf9a",
    ("brick400", 1234): "835ea71dccf60cb6bb2570ab24a5c22d8fab849b4f0037bde78f60c21ff672a0",
    ("partial", 0): "5bc274a0c5ebcf220f252981eb9b014025b013f4cd9fa76d5dd8c26718232402",
    ("partial", 1234): "1a7308412fcc893a720914fb1b65fcc2f1b2d471aca1e2b8af3efd3d273b25d3",
    ("resets", 0): "c68ac342bdcfa3059f16ce2f8299cd20536e260bcf63adda8bcd9c50f7653cc9",
    ("resets", 1234): "31657d104c59045e8fd894367692a1c8460c25261491e37eecb712e9d915e695",
    ("every_op", 0): "24018edf9057f1794d39d3e3360cc2a1af7e0f6592f095aded91d9d268b72e6b",
    ("every_op", 1234): "3097e90a4bb94b9cae4e0db59ceea4c99e13e8cc02c7d93ba16da999e4d93803",
}


@pytest.mark.parametrize("label, seed", sorted(RECORDED))
def test_fixed_seed_histogram_is_bit_identical_to_the_recorded_one(label, seed):
    result = StabilizerBackend().execute(CIRCUITS[label], SHOTS, seed=seed)
    assert sum(result.counts.values()) == SHOTS
    assert histogram_digest(result.counts) == RECORDED[label, seed]


@pytest.mark.parametrize("label", ["brick50", "resets", "every_op"])
def test_table_popcount_gives_the_same_histograms(label, monkeypatch):
    """numpy < 2.0 has no ``bitwise_count``; the byte-table fallback must."""
    from repro.exec import stabilizer

    monkeypatch.setattr(stabilizer, "_popcount", stabilizer._popcount_bytes)
    result = StabilizerBackend().execute(CIRCUITS[label], SHOTS, seed=0)
    assert histogram_digest(result.counts) == RECORDED[label, 0]


def test_every_pinned_case_is_recorded():
    assert set(RECORDED) == {(label, seed) for label in CIRCUITS for seed in SEEDS}


@pytest.mark.parametrize("label", sorted(CIRCUITS))
def test_recorded_depth_is_the_circuit_depth(label):
    """``execute`` reports the depth the classifier's levelling recorded, not
    a fresh walk of the circuit: the two must be the same number."""
    circuit = CIRCUITS[label]
    assert classify_clifford(circuit).depth == circuit.depth()
    assert StabilizerBackend().execute(circuit, 16, seed=0).depth == circuit.depth()


def test_every_op_circuit_covers_the_lowered_set():
    circuit = every_lowered_op_circuit()
    kinds = {op[0] for op in classify_clifford(circuit).ops}
    assert kinds == set(clifford.TABLEAU_OPS)
    # The moment sort key reserves this many positions per instruction.
    longest = max(len(clifford._lower_instruction(inst)[0]) for inst in circuit)
    assert longest == clifford._MAX_LOWERED_OPS
