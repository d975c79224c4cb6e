"""Objective functions for variational workloads (``createObjectiveFunction``).

Mirrors the QCOR helper used in Listing 3 of the paper: an
:class:`ObjectiveFunction` binds an ansatz kernel, a Hamiltonian and a qubit
register; calling it with a parameter vector estimates the energy, and it
can also provide gradients using one of several strategies:

* ``"central"`` / ``"forward"`` — finite differences with a configurable
  step (the paper's Listing 3 uses central differences with step 1e-3),
* ``"parameter-shift"`` — the exact parameter-shift rule (valid for ansatz
  circuits whose parameters enter through Pauli rotations, which covers the
  deuteron ansatz and QAOA).

Evaluations are thread-safe: each call executes on the calling thread's QPU
instance, so multiple optimizers (or multiple asynchronous evaluations of
the same objective) can run concurrently — the VQE scenario discussed in the
paper's Section VII.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Mapping, Sequence

import numpy as np

from ..config import get_config
from ..exceptions import ConfigurationError, OptimizationError
from ..ir.composite import CompositeInstruction
from ..operators.pauli import PauliOperator, PauliTerm
from ..runtime.qreg import qreg
from .api import observe_expectation

__all__ = ["ObjectiveFunction", "createObjectiveFunction", "create_objective_function"]

_GRADIENT_STRATEGIES = ("central", "forward", "parameter-shift")


class ObjectiveFunction:
    """Callable ``f(parameters) -> energy`` with optional gradients."""

    def __init__(
        self,
        ansatz: CompositeInstruction | Callable[..., CompositeInstruction],
        observable: PauliOperator | PauliTerm,
        register: qreg | int,
        n_parameters: int,
        options: Mapping[str, object] | None = None,
    ):
        if isinstance(observable, PauliTerm):
            observable = PauliOperator([observable])
        self.observable = observable
        self.n_parameters = int(n_parameters)
        if self.n_parameters < 0:
            raise ConfigurationError("n_parameters must be non-negative")
        options = dict(options or {})
        self.gradient_strategy = str(options.pop("gradient-strategy", "central"))
        if self.gradient_strategy not in _GRADIENT_STRATEGIES:
            raise ConfigurationError(
                f"gradient-strategy must be one of {_GRADIENT_STRATEGIES}, "
                f"got {self.gradient_strategy!r}"
            )
        self.step = float(options.pop("step", 1e-3))
        if self.step <= 0:
            raise ConfigurationError(f"step must be positive, got {self.step}")
        self.shots = options.pop("shots", None)
        #: ``exact=True`` evaluates expectations from the state vector
        #: (noise-free); sampling mode uses the thread's QPU.
        self.exact = bool(options.pop("exact", True))
        #: Optional :class:`~repro.service.broker.QuantumJobService`: when
        #: set (and the ansatz is a symbolic parametric circuit),
        #: parameter-shift gradients ship as ONE ``2·P``-binding expectation
        #: sweep through the service — compile-once, fanned across its
        #: execution lanes — instead of ``2·P`` serial evaluations here.
        self.service = options.pop("service", None)
        self.options = options

        self._ansatz_callable: Callable[..., CompositeInstruction] | None
        self._ansatz_circuit: CompositeInstruction | None
        if isinstance(ansatz, CompositeInstruction):
            self._ansatz_circuit = ansatz
            self._ansatz_callable = None
        elif callable(ansatz):
            self._ansatz_callable = ansatz
            self._ansatz_circuit = None
        else:
            raise ConfigurationError(
                "ansatz must be a CompositeInstruction or a kernel callable"
            )

        self.register_size = register.size() if isinstance(register, qreg) else int(register)
        if self.register_size < 1:
            raise ConfigurationError("register must hold at least 1 qubit")

        self._evaluations = 0
        self._lock = threading.Lock()

    # -- bookkeeping ------------------------------------------------------------------
    @property
    def evaluation_count(self) -> int:
        """Number of energy evaluations performed so far (thread-safe)."""
        with self._lock:
            return self._evaluations

    def _record_evaluation(self) -> None:
        with self._lock:
            self._evaluations += 1

    # -- circuit construction ------------------------------------------------------------
    def ansatz_circuit(self, parameters: Sequence[float]) -> CompositeInstruction:
        """Concrete ansatz circuit for the given parameter values."""
        parameters = list(float(p) for p in parameters)
        if len(parameters) != self.n_parameters:
            raise OptimizationError(
                f"expected {self.n_parameters} parameter(s), got {len(parameters)}"
            )
        if self._ansatz_callable is not None:
            circuit = self._ansatz_callable(self.register_size, *parameters)
            if not isinstance(circuit, CompositeInstruction):
                # Support @qpu kernels: use their tracing API.
                as_circuit = getattr(self._ansatz_callable, "as_circuit", None)
                if as_circuit is None:
                    raise OptimizationError(
                        "ansatz callable must return a CompositeInstruction or be a @qpu kernel"
                    )
                circuit = as_circuit(self.register_size, *parameters)
            return circuit
        circuit = self._ansatz_circuit
        assert circuit is not None
        if circuit.is_parameterized:
            return circuit.bind(parameters)
        return circuit

    # -- evaluation ------------------------------------------------------------------------
    def __call__(self, parameters: Sequence[float]) -> float:
        """Estimate the energy at ``parameters``."""
        symbolic = self._ansatz_circuit is not None and self._ansatz_circuit.is_parameterized
        if symbolic:
            # Pass the *symbolic* ansatz down with its values: the exact
            # path then reuses one cached parametric execution plan across
            # every optimiser iteration instead of re-binding and
            # re-dispatching the whole circuit per evaluation.
            values = [float(p) for p in parameters]
            if len(values) != self.n_parameters:
                raise OptimizationError(
                    f"expected {self.n_parameters} parameter(s), got {len(values)}"
                )
            circuit, values_arg = self._ansatz_circuit, values
        else:
            circuit, values_arg = self.ansatz_circuit(parameters), None
        self._record_evaluation()
        return observe_expectation(
            circuit,
            self.observable,
            register_size=self.register_size,
            shots=self.shots if self.shots is not None else get_config().shots,
            parameters=values_arg,
            exact=self.exact,
        )

    def gradient(self, parameters: Sequence[float]) -> np.ndarray:
        """Gradient of the energy at ``parameters`` using the configured strategy."""
        parameters = np.asarray(list(parameters), dtype=float)
        if parameters.size != self.n_parameters:
            raise OptimizationError(
                f"expected {self.n_parameters} parameter(s), got {parameters.size}"
            )
        if self.gradient_strategy == "parameter-shift":
            if (
                self.service is not None
                and self.exact
                and self._ansatz_circuit is not None
                and self._ansatz_circuit.is_parameterized
            ):
                # Through the service: an adjoint pass where it is exact,
                # else one 2·P-binding expectation sweep.  Counted as the
                # 2·P evaluations the rule stands for either way.
                with self._lock:
                    self._evaluations += 2 * parameters.size
                return self.service.gradient(
                    self._ansatz_circuit, self.observable, parameters
                )
            shift = math.pi / 2
            grad = np.zeros_like(parameters)
            for i in range(parameters.size):
                plus = parameters.copy()
                minus = parameters.copy()
                plus[i] += shift
                minus[i] -= shift
                grad[i] = 0.5 * (self(plus) - self(minus))
            return grad
        if self.gradient_strategy == "forward":
            base = self(parameters)
            grad = np.zeros_like(parameters)
            for i in range(parameters.size):
                plus = parameters.copy()
                plus[i] += self.step
                grad[i] = (self(plus) - base) / self.step
            return grad
        # central differences (default)
        grad = np.zeros_like(parameters)
        for i in range(parameters.size):
            plus = parameters.copy()
            minus = parameters.copy()
            plus[i] += self.step
            minus[i] -= self.step
            grad[i] = (self(plus) - self(minus)) / (2.0 * self.step)
        return grad


def createObjectiveFunction(  # noqa: N802 - mirrors the QCOR API name
    ansatz: CompositeInstruction | Callable[..., CompositeInstruction],
    observable: PauliOperator | PauliTerm,
    register: qreg | int,
    n_parameters: int,
    options: Mapping[str, object] | None = None,
) -> ObjectiveFunction:
    """QCOR-style factory for :class:`ObjectiveFunction` (see Listing 3)."""
    return ObjectiveFunction(ansatz, observable, register, n_parameters, options)


#: PEP8-friendly alias.
create_objective_function = createObjectiveFunction
