"""Benchmark harness reproducing the paper's evaluation (Figures 3-5).

* :mod:`~repro.benchmark.workloads` — the evaluated kernels packaged as
  :class:`~repro.core.executor.KernelTask` lists (two Bell kernels with 1024
  shots, two Shor kernels with 10 shots, ...).
* :mod:`~repro.benchmark.harness` — runs a workload under the *one-by-one*
  and *parallel* variants in either execution mode (``modeled`` uses the
  hand-set cost model + discrete-event scheduler; ``real`` uses wall-clock
  execution on the host).
* :mod:`~repro.benchmark.figures` — regenerates each figure's series,
  printing paper-reported vs measured numbers side by side.
* ``python -m repro.benchmark fig3|fig4|fig5|all`` — command-line entry
  point.
"""

from .workloads import (
    bell_workload,
    shor_workload,
    figure3_workload,
    figure4_workload,
    figure5_workload,
)
from .harness import BenchmarkHarness, VariantResult
from .figures import (
    FigureSeries,
    figure3,
    figure4,
    figure5,
    PAPER_FIGURE3,
    PAPER_FIGURE4,
    PAPER_FIGURE5_ONE_BY_ONE,
    PAPER_FIGURE5_PARALLEL,
)
from .reporting import format_figure, format_table

__all__ = [
    "bell_workload",
    "shor_workload",
    "figure3_workload",
    "figure4_workload",
    "figure5_workload",
    "BenchmarkHarness",
    "VariantResult",
    "FigureSeries",
    "figure3",
    "figure4",
    "figure5",
    "PAPER_FIGURE3",
    "PAPER_FIGURE4",
    "PAPER_FIGURE5_ONE_BY_ONE",
    "PAPER_FIGURE5_PARALLEL",
    "format_figure",
    "format_table",
]
