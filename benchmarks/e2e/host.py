"""Host stamp and end-of-run hygiene, shared by the timed and the traced run."""

from __future__ import annotations

import glob
import multiprocessing
import os
import platform
import threading
from pathlib import Path


def last_level_cache_bytes() -> int:
    """Size of the largest cache the first CPU reports (0 when unknown)."""
    best = 0
    for path in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*/size"):
        text = Path(path).read_text().strip()
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1], 1)
        best = max(best, int(text.rstrip("KMG")) * scale)
    return best


def host_stamp() -> dict:
    import numpy

    from repro import get_config

    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    nproc = os.cpu_count() or 1
    load = os.getloadavg()[0]
    return {
        "nproc": nproc,
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "omp_num_threads": get_config().omp_num_threads,
        "last_level_cache_bytes": last_level_cache_bytes(),
        "loadavg_before": load,
        "noisy_host": load > nproc / 2,
    }


def stop_child_processes() -> None:
    """Stop every process this one started and wait until each has ended.

    Pools are closed by whoever opened them; what is still alive here is
    left over from an error path, so it is terminated.  The shared-memory
    lanes also make ``multiprocessing`` start its resource tracker, which
    otherwise ends only *after* this process has — it would outlive the
    benchmark by a moment.  It has no public stop, hence ``_stop``.
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(10)
        if child.is_alive():
            child.kill()
            child.join()
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()  # closes its pipe, then waits for it


def live_children() -> int:
    """Processes whose parent is this one, as the kernel lists them."""
    me, count = str(os.getpid()), 0
    for path in glob.glob("/proc/[0-9]*/stat"):
        try:
            # "pid (comm) state ppid ..."; comm may hold spaces and brackets.
            fields = Path(path).read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # ended while we looked
        count += fields[1] == me
    return count


def hygiene(threads_after_setup: int | None = None) -> dict:
    """What the run left behind; every count must be zero.

    Called once everything the run opened is closed.  The resource tracker
    is stopped first (nothing after this point needs it), so a child still
    listed afterwards is one nobody waited for.  ``threads_after_setup`` is
    the thread count once the workload was set up; after ``close()`` there
    must be no more than that.  (Not back to one: the program's
    ``qcor_async`` pool has no public shutdown.)
    """
    orphans = len(multiprocessing.active_children())
    stop_child_processes()
    left = {
        "leaked_shm_segments": len(glob.glob(f"/dev/shm/repro-shm-{os.getpid()}-*")),
        "orphan_processes": orphans + live_children(),
    }
    if threads_after_setup is not None:
        left["threads_over_baseline"] = max(0, threading.active_count() - threads_after_setup)
    return left
