"""Gradients through the broker: the adjoint method and its fallback.

``QuantumJobService.gradient`` takes the adjoint method
(:meth:`repro.exec.backend.LocalBackend.gradient`: one bind + replay, one
``H|psi>``, one backward pass) whenever π/2 parameter-shift would be exact
and the in-process dense backend is at hand, and the ``2·P``-binding
expectation sweep otherwise.  The contracts under test:

* **Differential** — on seeded random parametric circuits the adjoint
  gradient equals the parameter-shift sweep to 1e-12.
* **Fallback** — every case outside the adjoint method's reach returns
  exactly what the sweep returns (or raises what it raises).
* **Work bound** — an adjoint gradient binds and replays the plan once,
  not ``2·P`` times.
* **Decision record** — the ``gradient`` span names the method and why.
"""

from __future__ import annotations

import math
from itertools import count

import numpy as np
import pytest

from repro.exceptions import ExecutionError
from repro.exec.backend import LocalBackend
from repro.ir.builder import CircuitBuilder
from repro.ir.parameter import Parameter
from repro.obs.trace import enable_tracing
from repro.operators import X, Y, Z
from repro.simulator.execution_plan import ExecutionPlan, ParametricExecutionPlan
from repro.service import QuantumJobService

_ONE_QUBIT = ("h", "s", "t", "sdg", "x", "y")
_TWO_QUBIT = ("cx", "cz", "swap", "cy", "ch", "iswap")


def random_parametric_circuit(rng, n_qubits: int, n_gates: int):
    """RX/RY/RZ on fresh parameters mixed with fixed gates of one, two and
    three qubits (in both qubit orders), fixed-angle rotations, barriers and
    terminal measurements.  Parameter names are shuffled against gate order,
    so a mix-up of the sorted-name convention shows."""
    builder = CircuitBuilder(n_qubits, name=f"adjoint_{n_qubits}q")
    names = iter(f"p{i:03d}" for i in rng.permutation(n_gates))
    fresh = count()
    for index in range(n_gates):
        kind = 0 if index == 0 else int(rng.integers(6))
        qubits = [int(q) for q in rng.permutation(n_qubits)]
        angle = float(rng.uniform(-np.pi, np.pi))
        if kind <= 1:
            rotation = str(rng.choice(["rx", "ry", "rz"]))
            getattr(builder, rotation)(qubits[0], Parameter(next(names)))
            next(fresh)
        elif kind == 2:
            getattr(builder, str(rng.choice(_ONE_QUBIT)))(qubits[0])
        elif kind == 3:
            getattr(builder, str(rng.choice(_TWO_QUBIT)))(qubits[0], qubits[1])
        elif kind == 4:
            choice = int(rng.integers(3))
            if choice == 0:
                builder.rz(qubits[0], angle).u3(qubits[1], angle, -angle, 0.5)
            elif choice == 1:
                builder.crz(qubits[0], qubits[1], angle).cphase(qubits[1], qubits[0], angle)
            elif n_qubits >= 3:
                builder.ccx(*qubits[:3]).cswap(*qubits[:3])
        else:
            builder.barrier()
    return builder.measure_all().build(), next(fresh)


def random_observable(rng, n_qubits: int):
    """A constant plus X, Y, Z, YY and mixed terms with real weights."""
    observable = float(rng.uniform(-1, 1)) * X(int(rng.integers(n_qubits)))
    observable = observable + float(rng.uniform(-1, 1))
    for _ in range(6):
        a, b = (int(q) for q in rng.choice(n_qubits, 2, replace=False))
        weight = float(rng.uniform(-1, 1))
        term = rng.integers(4)
        if term == 0:
            observable = observable + weight * Y(a) * Y(b)
        elif term == 1:
            observable = observable + weight * Y(a)
        elif term == 2:
            observable = observable + weight * Z(a) * Z(b)
        else:
            observable = observable + weight * X(a) * Z(b)
    return observable


def parameter_shift(service, circuit, observable, theta, shift=math.pi / 2):
    """The parameter-shift sweep ``[θ+s·e_i, θ−s·e_i]`` through ``service.expectations``."""
    bindings = []
    for i in range(len(theta)):
        for sign in (1.0, -1.0):
            shifted = np.array(theta, dtype=float)
            shifted[i] += sign * shift
            bindings.append([float(v) for v in shifted])
    energies = service.expectations(circuit, observable, bindings)
    return 0.5 * (np.array(energies[0::2]) - np.array(energies[1::2]))


def gradient_spans(tracer):
    return [s.attributes for s in tracer.spans() if s.name == "gradient"]


def ansatz(n_qubits: int = 10):
    """The e2e ``vqe_sweep`` gradient circuit's shape: RY layer, CX chain,
    closing RY layer (2·n parameters)."""
    builder = CircuitBuilder(n_qubits, name=f"grad_ansatz_{n_qubits}q")
    for layer in range(2):
        for qubit in range(n_qubits):
            builder.ry(qubit, Parameter(f"t{layer * n_qubits + qubit:03d}"))
        if layer == 0:
            for qubit in range(n_qubits - 1):
                builder.cx(qubit, qubit + 1)
    return builder.measure_all().build(), 2 * n_qubits


class TestDifferential:
    @pytest.mark.parametrize("seed", range(12))
    def test_adjoint_matches_parameter_shift(self, seed):
        rng = np.random.default_rng(1000 + seed)
        n_qubits = 3 + seed % 6
        circuit, n_params = random_parametric_circuit(rng, n_qubits, 6 + 3 * n_qubits)
        observable = random_observable(rng, n_qubits)
        theta = rng.uniform(-np.pi, np.pi, n_params)
        tracer = enable_tracing()
        with QuantumJobService(workers=1, name="grad-diff") as service:
            adjoint = service.gradient(circuit, observable, theta)
            reference = parameter_shift(service, circuit, observable, theta)
        assert [s["method"] for s in gradient_spans(tracer)] == ["adjoint"]
        assert adjoint.shape == (n_params,)
        assert np.max(np.abs(adjoint - reference)) <= 1e-12

    def test_chunked_lane_forward_pass_agrees(self):
        """The forward replay on the engine's threads (threshold 2) gives
        the same gradient as the serial one."""
        rng = np.random.default_rng(77)
        circuit, n_params = random_parametric_circuit(rng, 6, 30)
        observable = random_observable(rng, 6)
        theta = rng.uniform(-np.pi, np.pi, n_params)
        with QuantumJobService(workers=1, name="grad-serial") as service:
            serial = service.gradient(circuit, observable, theta)
        with QuantumJobService(
            workers=1, name="grad-chunked", backend_options={"chunk-threshold": 2}
        ) as service:
            chunked = service.gradient(circuit, observable, theta)
            reference = parameter_shift(service, circuit, observable, theta)
        assert np.array_equal(serial, chunked)
        assert np.max(np.abs(chunked - reference)) <= 1e-12

    def test_explicit_default_shift_is_adjoint(self):
        circuit, n_params = ansatz(4)
        tracer = enable_tracing()
        with QuantumJobService(workers=1, name="grad-shift") as service:
            service.gradient(circuit, Z(0), np.full(n_params, 0.2), shift=math.pi / 2)
        assert [s["method"] for s in gradient_spans(tracer)] == ["adjoint"]

    def test_backend_refuses_what_the_broker_routes_away(self):
        builder = CircuitBuilder(2, name="repeated")
        theta = Parameter("t")
        circuit = builder.ry(0, theta).cx(0, 1).ry(1, theta).build()
        backend = LocalBackend()
        try:
            with pytest.raises(ExecutionError, match="repeated parameter"):
                backend.gradient(circuit, Z(0), [0.3])
        finally:
            backend.close()


def _repeated():
    t = Parameter("t0")
    builder = CircuitBuilder(3, name="repeated").ry(0, t).cx(0, 1).rx(2, t)
    return builder.ry(1, Parameter("t1")).build()


def _expression():
    t = Parameter("t0")
    return CircuitBuilder(3, name="expr").ry(0, 2 * t).cx(0, 1).ry(2, Parameter("t1")).build()


def _crz():
    builder = CircuitBuilder(3, name="crz").h(0).ry(1, Parameter("t0"))
    return builder.crz(0, 2, Parameter("t1")).build()


def _plain():
    return ansatz(3)[0]


#: (case id, circuit factory, service kwargs, gradient kwargs, reason).
_FALLBACKS = [
    ("non-default-shift", _plain, {}, {"shift": 0.3}, "non-default shift"),
    ("repeated-parameter", _repeated, {}, {}, "repeated parameter"),
    ("expression", _expression, {}, {}, "parameter expression"),
    ("crz", _crz, {}, {}, "parameter in CRZ"),
    (
        "precision-single",
        _plain,
        {"backend_options": {"precision": "single"}},
        {},
        "precision single",
    ),
]


class TestFallback:
    @pytest.mark.parametrize(
        "factory, service_kwargs, gradient_kwargs, reason",
        [case[1:] for case in _FALLBACKS],
        ids=[case[0] for case in _FALLBACKS],
    )
    def test_fallback_returns_exactly_the_sweep(
        self, factory, service_kwargs, gradient_kwargs, reason
    ):
        circuit = factory()
        n_params = len(circuit.free_parameters)
        theta = np.random.default_rng(5).uniform(-np.pi, np.pi, n_params)
        observable = 0.5 * Z(0) * Z(1) - 0.8 * X(2) + 0.3 * Y(0) * Y(2) + 0.1
        tracer = enable_tracing()
        with QuantumJobService(workers=1, name="grad-fallback", **service_kwargs) as service:
            gradient = service.gradient(circuit, observable, theta, **gradient_kwargs)
            expected = parameter_shift(
                service, circuit, observable, theta, gradient_kwargs.get("shift", math.pi / 2)
            )
        assert np.array_equal(gradient, expected)
        assert gradient_spans(tracer) == [
            {"parameters": n_params, "method": "parameter-shift", "reason": reason}
        ]

    def test_reset_circuit_raises_what_the_sweep_raises(self):
        circuit = (
            CircuitBuilder(2, name="reset").ry(0, Parameter("t")).reset(0).cx(0, 1).build()
        )
        tracer = enable_tracing()
        with QuantumJobService(workers=1, name="grad-reset") as service:
            with pytest.raises(ExecutionError) as sweep_error:
                parameter_shift(service, circuit, Z(1), [0.4])
            with pytest.raises(ExecutionError) as gradient_error:
                service.gradient(circuit, Z(1), [0.4])
        assert str(gradient_error.value) == str(sweep_error.value)
        assert "mid-circuit resets" in str(gradient_error.value)
        assert gradient_spans(tracer)[-1]["reason"] == "reset"

    def test_density_backend_raises_what_the_sweep_raises(self):
        circuit = _plain()
        theta = [0.1] * len(circuit.free_parameters)
        tracer = enable_tracing()
        with QuantumJobService(backend="noisy-qpp", workers=1, name="grad-noisy") as service:
            with pytest.raises(ExecutionError) as sweep_error:
                parameter_shift(service, circuit, Z(0), theta)
            with pytest.raises(ExecutionError) as gradient_error:
                service.gradient(circuit, Z(0), theta)
        assert str(gradient_error.value) == str(sweep_error.value)
        assert gradient_spans(tracer)[-1]["method"] == "parameter-shift"
        assert gradient_spans(tracer)[-1]["reason"] == "no local dense backend"


class TestWorkBound:
    def test_adjoint_gradient_binds_and_replays_the_plan_once(self, monkeypatch):
        """The e2e gradient circuit's shape (10 q, 20 RY): one bind and one
        replay, where the 2·P sweep did 40 of each."""
        calls = {"bind": 0, "execute": 0}

        def counted(name, original):
            def wrapper(self, *args, **kwargs):
                calls[name] += 1
                return original(self, *args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            ParametricExecutionPlan, "bind", counted("bind", ParametricExecutionPlan.bind)
        )
        monkeypatch.setattr(
            ExecutionPlan, "execute", counted("execute", ExecutionPlan.execute)
        )
        circuit, n_params = ansatz(10)
        observable = -0.7 * X(0) - Z(0) * Z(1) - 0.7 * X(9)
        with QuantumJobService(workers=1, name="grad-work") as service:
            gradient = service.gradient(circuit, observable, np.full(n_params, 0.25))
        assert gradient.shape == (n_params,)
        assert calls == {"bind": 1, "execute": 1}


class TestDecisionRecord:
    def test_span_names_the_method_and_the_reason(self):
        circuit, n_params = ansatz(4)
        theta = np.full(n_params, 0.3)
        tracer = enable_tracing()
        with QuantumJobService(workers=1, name="grad-record") as service:
            service.gradient(circuit, Z(0), theta)
            service.gradient(circuit, Z(0), theta, shift=0.25)
        adjoint, fallback = gradient_spans(tracer)
        assert (adjoint["method"], adjoint["reason"]) == (
            "adjoint",
            "one bare Pauli rotation per parameter",
        )
        assert (fallback["method"], fallback["reason"]) == (
            "parameter-shift",
            "non-default shift",
        )
