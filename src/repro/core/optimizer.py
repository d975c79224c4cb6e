"""Classical optimizers (``createOptimizer``).

QCOR delegates to nlopt; we provide the same factory surface backed by
scipy (L-BFGS-B, Nelder-Mead, COBYLA) plus a self-contained SPSA
implementation (useful when objective evaluations are sampled and noisy).
``createOptimizer("nlopt", {"nlopt-optimizer": "l-bfgs"})`` therefore works
exactly as in Listing 3 of the paper, just without nlopt installed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from ..exceptions import OptimizationError

__all__ = [
    "OptimizerResult",
    "Optimizer",
    "ScipyOptimizer",
    "SPSAOptimizer",
    "createOptimizer",
    "create_optimizer",
]


@dataclass
class OptimizerResult:
    """Outcome of an optimisation run."""

    optimal_value: float
    optimal_parameters: np.ndarray
    iterations: int
    function_evaluations: int
    converged: bool
    history: list[float] = field(default_factory=list)

    def __iter__(self):
        """Support QCOR-style ``opt_val, opt_params = opt.optimize(obj)`` unpacking."""
        yield self.optimal_value
        yield self.optimal_parameters


class Optimizer:
    """Abstract optimizer interface."""

    def __init__(self, options: Mapping[str, object] | None = None):
        self.options = dict(options or {})
        self.max_iterations = int(self.options.get("maxiter", self.options.get("max-iterations", 200)))
        self.tolerance = float(self.options.get("tolerance", self.options.get("ftol", 1e-8)))

    def optimize(
        self,
        objective: Callable[[Sequence[float]], float],
        initial_parameters: Sequence[float] | None = None,
        n_parameters: int | None = None,
    ) -> OptimizerResult:
        """Minimise ``objective``; returns an :class:`OptimizerResult`.

        ``initial_parameters`` defaults to zeros of length ``n_parameters``
        (or the objective's ``n_parameters`` attribute when present).
        """
        raise NotImplementedError

    def _resolve_initial(
        self,
        objective: Callable,
        initial_parameters: Sequence[float] | None,
        n_parameters: int | None,
    ) -> np.ndarray:
        if initial_parameters is not None:
            return np.asarray(list(initial_parameters), dtype=float)
        if n_parameters is None:
            n_parameters = getattr(objective, "n_parameters", None)
        if n_parameters is None:
            raise OptimizationError(
                "cannot infer the parameter count; pass initial_parameters or n_parameters"
            )
        return np.zeros(int(n_parameters), dtype=float)


class ScipyOptimizer(Optimizer):
    """Optimizers backed by :func:`scipy.optimize.minimize`."""

    #: Map of QCOR/nlopt-style names to scipy method names and whether the
    #: scipy method consumes gradients.
    _METHODS = {
        "l-bfgs": ("L-BFGS-B", True),
        "l-bfgs-b": ("L-BFGS-B", True),
        "lbfgs": ("L-BFGS-B", True),
        "nelder-mead": ("Nelder-Mead", False),
        "cobyla": ("COBYLA", False),
        "bfgs": ("BFGS", True),
        "powell": ("Powell", False),
    }

    def __init__(self, method: str = "nelder-mead", options: Mapping[str, object] | None = None):
        super().__init__(options)
        key = method.lower()
        if key not in self._METHODS:
            raise OptimizationError(
                f"unknown optimizer {method!r}; known: {sorted(self._METHODS)}"
            )
        self.method, self._uses_gradient = self._METHODS[key]

    def optimize(
        self,
        objective: Callable[[Sequence[float]], float],
        initial_parameters: Sequence[float] | None = None,
        n_parameters: int | None = None,
    ) -> OptimizerResult:
        x0 = self._resolve_initial(objective, initial_parameters, n_parameters)
        history: list[float] = []

        def wrapped(x: np.ndarray) -> float:
            value = float(objective(x))
            history.append(value)
            return value

        jac = None
        if self._uses_gradient and hasattr(objective, "gradient"):
            jac = lambda x: np.asarray(objective.gradient(x), dtype=float)  # noqa: E731

        # Imported here: scipy.optimize costs ~40 MB of RSS, and most
        # processes that import the package never run a scipy method.
        from scipy import optimize as scipy_optimize

        result = scipy_optimize.minimize(
            wrapped,
            x0,
            method=self.method,
            jac=jac,
            tol=self.tolerance,
            options={"maxiter": self.max_iterations},
        )
        return OptimizerResult(
            optimal_value=float(result.fun),
            optimal_parameters=np.atleast_1d(np.asarray(result.x, dtype=float)),
            iterations=int(getattr(result, "nit", 0) or 0),
            function_evaluations=int(getattr(result, "nfev", len(history)) or len(history)),
            converged=bool(result.success),
            history=history,
        )


class SPSAOptimizer(Optimizer):
    """Simultaneous Perturbation Stochastic Approximation.

    Robust to sampling noise in the objective, which makes it the natural
    choice when the objective runs with a finite shot count rather than the
    exact state-vector expectation.
    """

    def __init__(self, options: Mapping[str, object] | None = None):
        super().__init__(options)
        self.a = float(self.options.get("a", 0.2))
        self.c = float(self.options.get("c", 0.1))
        self.alpha = float(self.options.get("alpha", 0.602))
        self.gamma = float(self.options.get("gamma", 0.101))
        self.seed = self.options.get("seed")

    def optimize(
        self,
        objective: Callable[[Sequence[float]], float],
        initial_parameters: Sequence[float] | None = None,
        n_parameters: int | None = None,
    ) -> OptimizerResult:
        x = self._resolve_initial(objective, initial_parameters, n_parameters)
        rng = np.random.default_rng(self.seed)
        history: list[float] = []
        evaluations = 0
        best_value = float("inf")
        best_x = x.copy()
        for k in range(self.max_iterations):
            ak = self.a / (k + 1) ** self.alpha
            ck = self.c / (k + 1) ** self.gamma
            delta = rng.choice([-1.0, 1.0], size=x.size)
            plus = float(objective(x + ck * delta))
            minus = float(objective(x - ck * delta))
            evaluations += 2
            gradient_estimate = (plus - minus) / (2.0 * ck) * delta
            x = x - ak * gradient_estimate
            value = min(plus, minus)
            history.append(value)
            if value < best_value:
                best_value = value
                best_x = x.copy()
        final_value = float(objective(best_x))
        evaluations += 1
        if final_value < best_value:
            best_value = final_value
        return OptimizerResult(
            optimal_value=best_value,
            optimal_parameters=np.atleast_1d(best_x),
            iterations=self.max_iterations,
            function_evaluations=evaluations,
            converged=True,
            history=history,
        )


def createOptimizer(  # noqa: N802 - mirrors the QCOR API name
    name: str = "nlopt", options: Mapping[str, object] | None = None
) -> Optimizer:
    """QCOR-style optimizer factory.

    ``name`` selects the family (``"nlopt"`` and ``"scipy"`` both map to the
    scipy-backed optimizers; ``"spsa"`` selects SPSA); the concrete method is
    taken from ``options["nlopt-optimizer"]`` / ``options["method"]``
    (default: Nelder-Mead, matching QCOR's default of COBYLA-like
    derivative-free behaviour closely enough for the paper's workloads).
    """
    options = dict(options or {})
    family = name.lower()
    if family == "spsa":
        return SPSAOptimizer(options)
    if family in ("nlopt", "scipy", ""):
        method = str(options.get("nlopt-optimizer", options.get("method", "nelder-mead")))
        return ScipyOptimizer(method, options)
    raise OptimizationError(f"unknown optimizer family {name!r}")


#: PEP8-friendly alias.
create_optimizer = createOptimizer
