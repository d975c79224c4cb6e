"""Kernel languages and the single-source ``@qpu`` DSL.

QCOR kernels are written in quantum DSLs (XACC's XASM or OpenQASM) embedded
in C++.  The Python reproduction supports two front ends that both lower to
the same IR:

* :func:`compile_xasm` — an XASM-subset compiler covering the constructs the
  paper's listings use (gate calls on ``q[i]``, C-style ``for`` loops over
  ``q.size()``, classical parameters).
* :func:`qpu` — a decorator turning a plain Python function into a quantum
  kernel: calling the kernel traces its gate calls into a circuit and
  executes it on the calling thread's QPU, mirroring the ``__qpu__``
  single-source model.
"""

from .lexer import Token, tokenize
from .parser import compile_xasm
from .kernel import qpu, QuantumKernel
from . import dsl

__all__ = [
    "Token",
    "tokenize",
    "compile_xasm",
    "qpu",
    "QuantumKernel",
    "dsl",
]
