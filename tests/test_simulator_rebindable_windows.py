"""Rebindable windows: a bound parametric plan is the bound circuit's plan.

The contracts under test:

* **Bound == concrete, bitwise.**  Symbolic gates join the window pass and
  diagonal batching like concrete ones, and ``bind`` rebuilds each payload
  with the builders ``compile_plan`` uses, so wherever the IR passes leave
  a symbolic circuit and its binding the same gate sequence, the bound plan
  has the concrete plan's steps and replays its amplitudes bit for bit
  (within 1e-12 of them otherwise).  Single-precision payloads stay
  ``complex64`` across binds.
* **Lanes are bitwise across rebinds**, and a rebind never writes into the
  arrays the template (and other threads' clones) share.
* **A bind that fails leaves no half-bound plan.**
* **``fusion_max_qubits`` keys on its meaning**: 1, 2 and 3 are one plan.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ExecutionError
from repro.ir import gates as G
from repro.ir.builder import CircuitBuilder
from repro.ir.composite import CompositeInstruction
from repro.ir.parameter import Parameter
from repro.ir.transforms import default_pass_manager
from repro.simulator.execution_plan import (
    DEFAULT_FUSION_MAX_QUBITS,
    PlanStep,
    compile_parametric_plan,
    compile_plan,
)
from repro.simulator.parallel_engine import ParallelSimulationEngine
from repro.simulator.plan_cache import PlanCache


def parametric_ansatz(n_qubits: int, layers: int, closing_layer: bool):
    """The e2e ``vqe_sweep`` shapes: symbolic RY layers between CX ladders."""
    builder = CircuitBuilder(n_qubits, name="ansatz")
    index = 0
    for layer in range(layers + (1 if closing_layer else 0)):
        for qubit in range(n_qubits):
            builder.ry(qubit, Parameter(f"t{index:03d}"))
            index += 1
        if layer < layers:
            for qubit in range(n_qubits - 1):
                builder.cx(qubit, qubit + 1)
    return builder.build()


def payloads(plan):
    """Every step's kernel, targets and payload, for exact comparison."""
    out = []
    for step in plan.steps:
        payload = [getattr(step, slot, None) for slot in ("m00", "m01", "m10", "m11")]
        payload.append(getattr(step, "diag", None))
        for slot in ("matrix", "diag_nd"):
            value = getattr(step, slot, None)
            payload.append(None if value is None else (value.dtype, value.tobytes()))
        out.append((step.kernel, step.targets, getattr(step, "block", None), payload))
    return out


def same_sequence(circuit, values) -> bool:
    """Whether the IR passes leave ``circuit`` and its binding to ``values``
    the same gate sequence (names, qubits and, once bound, angles)."""
    symbolic = list(default_pass_manager().run(circuit))
    concrete = list(default_pass_manager().run(circuit.bind(values)))
    return [(i.name, i.qubits) for i in symbolic] == [
        (i.name, i.qubits) for i in concrete
    ] and all(
        a.bound_parameters(values) == b.bound_parameters()
        for a, b in zip(symbolic, concrete)
    )


@pytest.mark.parametrize("precision", ["double", "single"])
@pytest.mark.parametrize("shape", [(12, 2, False), (10, 1, True)])
def test_e2e_ansatz_bound_plan_is_the_concrete_plan(shape, precision):
    n, layers, closing = shape
    circuit = parametric_ansatz(n, layers, closing)
    parametric = compile_parametric_plan(circuit, n, precision=precision)
    names = parametric.parameter_names
    # The symbolic RYs join the windows: no rebindable single steps.
    assert set(parametric.kernel_counts()) == {"block"}
    rng = np.random.default_rng(n)
    for _ in range(3):
        values = dict(zip(names, rng.uniform(-np.pi, np.pi, len(names))))
        bound = parametric.bind(values)
        concrete = compile_plan(circuit.bind(values), n, precision=precision)
        assert payloads(bound) == payloads(concrete)
        if precision == "single":
            assert {s.matrix.dtype for s in bound.steps} == {np.dtype(np.complex64)}
        state = bound.execute(bound.new_state())
        assert np.array_equal(state, concrete.execute(concrete.new_state()))


_ROTATIONS = ("RX", "RY", "RZ", "U3")


@st.composite
def symbolic_circuits(draw):
    """2-7 qubits of RX/RY/RZ/U3/CPHASE/CRZ with symbolic or fixed angles,
    between CX/CZ gates; a few angles are shared or scaled."""
    n = draw(st.integers(2, 7))
    pool = [Parameter(f"p{i}") for i in range(draw(st.integers(1, 6)))]
    angle = st.one_of(
        st.sampled_from(pool),
        st.builds(lambda p, s: s * p + 0.25, st.sampled_from(pool), st.sampled_from([2.0, -1.0])),
        st.floats(-3.0, 3.0),
    )
    circuit = CompositeInstruction("symbolic", n)
    for _ in range(draw(st.integers(1, 30))):
        kind = draw(st.sampled_from(_ROTATIONS + ("CPHASE", "CRZ", "CX", "CZ")))
        a, b = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        if kind in _ROTATIONS:
            count = 3 if kind == "U3" else 1
            circuit.add(getattr(G, kind)([a], [draw(angle) for _ in range(count)]))
        elif kind in ("CPHASE", "CRZ"):
            gate = G.CPhase if kind == "CPHASE" else G.CRZ
            circuit.add(gate([a, b], [draw(angle)]))
        else:
            circuit.add((G.CX if kind == "CX" else G.CZ)([a, b]))
    if not circuit.is_parameterized:
        circuit.add(G.RY([0], [pool[0]]))
    return circuit


@settings(max_examples=80, deadline=None)
@given(symbolic_circuits(), st.integers(0, 2**31), st.sampled_from(["double", "single"]))
def test_bound_plan_replays_the_concrete_plan_bitwise(circuit, seed, precision):
    n = circuit.n_qubits
    parametric = compile_parametric_plan(circuit, n, precision=precision)
    names = parametric.parameter_names
    rng = np.random.default_rng(seed)
    for _ in range(2):
        values = dict(zip(names, rng.uniform(-np.pi, np.pi, len(names))))
        bound = parametric.bind(values)
        concrete = compile_plan(circuit.bind(values), n, precision=precision)
        state = bound.execute(bound.new_state())
        expected = concrete.execute(concrete.new_state())
        if same_sequence(circuit, values):
            assert payloads(bound) == payloads(concrete)
            assert np.array_equal(state, expected)
        else:
            bound_tolerance = 1e-12 if precision == "double" else 1e-4
            assert np.abs(state - expected).max() <= bound_tolerance
        for step in bound.steps:
            for slot in ("matrix", "diag_nd"):
                value = getattr(step, slot, None)
                if value is not None:
                    assert value.dtype == bound.dtype


def template_arrays(parametric):
    """(slot, bytes) of every ndarray the template's steps hold, plus the
    objects themselves — a rebind may neither replace nor write them."""
    out = []
    for step in parametric.template_steps:
        for slot in PlanStep.__slots__:
            value = getattr(step, slot, None)
            if isinstance(value, np.ndarray):
                out.append((slot, id(value), value.tobytes()))
    return out


def test_successive_bindings_are_bitwise_on_every_lane():
    circuit = parametric_ansatz(8, 2, True)
    circuit.add(G.CPhase([0, 7], [Parameter("t000")]))
    circuit.add(G.RZ([3], [Parameter("t001")]))
    parametric = compile_parametric_plan(circuit, 8, chunk_threshold=2)
    names = parametric.parameter_names
    before = template_arrays(parametric)
    rng = np.random.default_rng(7)
    with ParallelSimulationEngine(num_threads=2) as engine:
        for _ in range(2):
            values = dict(zip(names, rng.uniform(-np.pi, np.pi, len(names))))
            plan = parametric.bind(values)
            serial = plan.execute(plan.new_state())
            threaded = parametric.bind(values).execute(plan.new_state(), pool=engine)
            assert np.array_equal(serial, threaded)
            concrete = compile_plan(circuit.bind(values), 8)
            assert np.array_equal(serial, concrete.execute(concrete.new_state()))
    assert template_arrays(parametric) == before


def test_a_failed_bind_leaves_no_half_bound_plan(monkeypatch):
    a, b = Parameter("a"), Parameter("b")
    builder = CircuitBuilder(6)
    builder.ry(0, a).ry(5, b).cx(0, 1)
    circuit = builder.build()
    parametric = compile_parametric_plan(circuit, 6)
    plan = parametric.bind({"a": 0.3, "b": 0.7})
    expected = plan.execute(plan.new_state())

    # A mapping missing a name is refused before any step is touched: the
    # thread's plan still runs the binding it had.
    with pytest.raises(ExecutionError, match="missing"):
        parametric.bind({"a": 1.9})
    assert plan.bound_params == {"a": 0.3, "b": 0.7}
    assert np.array_equal(plan.execute(plan.new_state()), expected)

    # A rebind that raises part-way leaves the plan unbound: it does not
    # execute the mixed binding.
    calls = []
    rebind = PlanStep.rebind

    def failing(step, values, n_qubits, dtype):
        calls.append(step)
        if len(calls) == 2:
            raise RuntimeError("rebind failed")
        rebind(step, values, n_qubits, dtype)

    monkeypatch.setattr(PlanStep, "rebind", failing)
    with pytest.raises(RuntimeError):
        parametric.bind({"a": 1.9, "b": -0.4})
    assert len(plan._parametric_steps) == 2
    assert plan.bound_params is None
    with pytest.raises(ExecutionError, match="unbound"):
        plan.execute(plan.new_state())
    monkeypatch.undo()
    plan = parametric.bind({"a": 0.3, "b": 0.7})
    assert np.array_equal(plan.execute(plan.new_state()), expected)


def test_fusion_max_qubits_keys_on_its_meaning():
    circuit = CircuitBuilder(5).ry(0, 0.3).cx(0, 1).ry(1, 0.2).build()
    cache = PlanCache()
    plan, hit = cache.lookup_or_compile(circuit, fusion_max_qubits=1)
    assert not hit
    windowed = compile_plan(circuit, fusion_max_qubits=DEFAULT_FUSION_MAX_QUBITS)
    assert plan.fused_gates == windowed.fused_gates > 0
    for value in (2, 3):
        again, hit = cache.lookup_or_compile(circuit, fusion_max_qubits=value)
        assert hit and again is plan
    plain, hit = cache.lookup_or_compile(circuit, fusion_max_qubits=0)
    assert not hit and plain.fused_gates == 0
    assert len(cache) == 2
    with pytest.raises(ExecutionError):
        compile_plan(circuit, fusion_max_qubits=4)


def test_a_bind_rebuilds_only_the_steps_whose_parameters_moved(monkeypatch):
    circuit = parametric_ansatz(10, 1, True)
    circuit.add(G.RZ([4], [Parameter("t019")]))
    parametric = compile_parametric_plan(circuit, 10)
    names = parametric.parameter_names
    rebuilt = []
    rebind = PlanStep.rebind

    def counting(step, values, n_qubits, dtype):
        rebuilt.append(step)
        rebind(step, values, n_qubits, dtype)

    monkeypatch.setattr(PlanStep, "rebind", counting)
    theta = dict(zip(names, np.random.default_rng(3).uniform(-np.pi, np.pi, len(names))))
    theta["t005"] = 0.0
    shifted = [
        {**theta, "t000": theta["t000"] + np.pi / 2},
        {**theta, "t000": theta["t000"] - np.pi / 2},
        {**theta, "t019": theta["t019"] + np.pi / 2},
        {**theta, "t005": -0.0},  # a different sign is a different matrix
        dict(theta),
        dict(theta),
    ]
    plan = parametric.bind(theta)
    assert len(rebuilt) == len(plan._parametric_steps)
    counts = []
    for values in shifted:
        rebuilt.clear()
        plan = parametric.bind(values)
        counts.append(len(rebuilt))
        concrete = compile_plan(circuit.bind(values), 10)
        assert payloads(plan) == payloads(concrete)
        assert np.array_equal(
            plan.execute(plan.new_state()), concrete.execute(concrete.new_state())
        )
    # t019 sits in two windows: its RY's, and the middle one, which the
    # trailing RZ on qubit 4 joins, as does t005's RY.  An unchanged
    # binding rebuilds nothing.
    assert counts == [1, 1, 3, 2, 1, 0]


def test_threads_binding_one_plan_each_replay_their_own_binding():
    """Each thread rebinds its own clone of the rebindable steps; the
    clones share the template's arrays, so a rebind that wrote into one
    would leak across threads."""
    import threading

    circuit = parametric_ansatz(8, 2, True)
    circuit.add(G.CPhase([0, 7], [Parameter("t003")]))
    parametric = compile_parametric_plan(circuit, 8)
    names = parametric.parameter_names
    barrier = threading.Barrier(4)
    failures = []

    def worker(seed):
        rng = np.random.default_rng(seed)
        bindings = [dict(zip(names, rng.uniform(-np.pi, np.pi, len(names)))) for _ in range(30)]
        concrete = [compile_plan(circuit.bind(values), 8) for values in bindings]
        expected = [plan.execute(plan.new_state()) for plan in concrete]
        barrier.wait()
        for values, want in zip(bindings, expected):
            plan = parametric.bind(values)
            if not np.array_equal(plan.execute(plan.new_state()), want):
                failures.append(seed)

    threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    assert failures == []
