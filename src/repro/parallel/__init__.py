"""Classical parallelism substrate.

The paper evaluates on a 12-core / 24-hardware-thread AMD Ryzen 9 3900X with
the OpenMP-parallel Quantum++ backend.  This subpackage models that side of
the system:

* :class:`MachineTopology` — physical cores, SMT width and the throughput a
  given number of active software threads can extract from the machine.
* :mod:`~repro.parallel.contention` — the parallel-efficiency / SMT /
  cache-contention model tuned to reproduce the paper's figures.
* :class:`TaskScheduler` — a processor-sharing discrete-event simulator used
  by the ``modeled`` execution mode; it is what reproduces the paper's key
  observation that two kernels run *in parallel* with N/2 threads each beat
  the same kernels run one-by-one with N threads.
* :mod:`~repro.parallel.thread_tools` — thin ``std::thread`` /
  ``std::async`` analogues used by examples and the ``real`` execution mode.
"""

from .affinity import MachineTopology, PAPER_MACHINE, detect_host_topology
from .contention import ContentionModel, parallel_efficiency
from .scheduler import SimTask, TaskScheduler, WorkPhase, ScheduleResult
from .thread_tools import std_thread, std_async, join_all

__all__ = [
    "MachineTopology",
    "PAPER_MACHINE",
    "detect_host_topology",
    "ContentionModel",
    "parallel_efficiency",
    "SimTask",
    "WorkPhase",
    "TaskScheduler",
    "ScheduleResult",
    "std_thread",
    "std_async",
    "join_all",
]
