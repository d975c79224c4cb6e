"""Simulated remote (cloud-queued) backend (``"remote-qpp"``).

The paper motivates ``std::async`` with scenarios where the QPU side is a
cloud service or a long-running compilation job.  We do not have a cloud
QPU, so this backend emulates one: jobs are serialized (the circuit goes
through the JSON round trip, as it would over the wire), placed on a FIFO
queue served by a single worker thread, and subject to a configurable
synthetic latency.  The substitution preserves the behaviour that matters
for the programming model — kernel launches return after a delay and
overlap with classical work — while staying fully local and deterministic.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Mapping

from ..exceptions import AcceleratorError, ExecutionError
from ..ir.composite import CompositeInstruction
from ..ir.serialization import circuit_from_json, circuit_to_json
from .accelerator import Accelerator, Cloneable
from .buffer import AcceleratorBuffer
from .qpp_accelerator import QppAccelerator

__all__ = ["RemoteAccelerator", "RemoteJob"]


@dataclass
class RemoteJob:
    """Handle for a queued remote execution."""

    job_id: int
    buffer: AcceleratorBuffer
    _done: threading.Event = field(default_factory=threading.Event)
    _error: BaseException | None = None

    def done(self) -> bool:
        return self._done.is_set()

    def result(self, timeout: float | None = None) -> AcceleratorBuffer:
        """Block until the job finishes and return the filled buffer."""
        if not self._done.wait(timeout):
            raise ExecutionError(f"remote job {self.job_id} did not finish in time")
        if self._error is not None:
            raise ExecutionError(f"remote job {self.job_id} failed: {self._error}") from self._error
        return self.buffer


class RemoteAccelerator(Accelerator, Cloneable):
    """FIFO-queued backend with synthetic submission latency."""

    backend_name = "remote-qpp"

    def __init__(self, options: Mapping[str, object] | None = None):
        super().__init__(options)
        self.latency_seconds = float(self.options.get("latency-seconds", 0.01) or 0.0)
        self._local = QppAccelerator(dict(self.options))
        self._queue: "queue.Queue[tuple[RemoteJob, str, int] | None]" = queue.Queue()
        self._job_counter = 0
        self._counter_lock = threading.Lock()
        self._worker = threading.Thread(target=self._serve, daemon=True)
        self._worker.start()

    def clone(self) -> "RemoteAccelerator":
        return RemoteAccelerator(dict(self.options))

    def update_configuration(self, options: Mapping[str, object]) -> None:
        # The local backend runs the jobs, so it must see option changes too.
        super().update_configuration(options)
        self._local.update_configuration(options)

    @property
    def is_remote(self) -> bool:
        return True

    # -- job queue -----------------------------------------------------------------
    def _serve(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            job, payload, shots = item
            try:
                if self.latency_seconds:
                    time.sleep(self.latency_seconds)
                circuit = circuit_from_json(payload)
                self._local.execute(job.buffer, circuit, shots=shots)
            except BaseException as exc:  # propagate through the job handle
                job._error = exc
            finally:
                job._done.set()
                self._queue.task_done()

    def submit(
        self,
        buffer: AcceleratorBuffer,
        circuit: CompositeInstruction,
        shots: int | None = None,
    ) -> RemoteJob:
        """Queue a circuit for execution; returns immediately with a job handle."""
        self._check_size(buffer, circuit)
        if circuit.is_parameterized:
            raise AcceleratorError(f"circuit {circuit.name!r} has unbound parameters")
        shots = self._resolve_shots(shots)
        with self._counter_lock:
            self._job_counter += 1
            job = RemoteJob(self._job_counter, buffer)
        payload = circuit_to_json(circuit)
        self._queue.put((job, payload, shots))
        return job

    def execute(
        self,
        buffer: AcceleratorBuffer,
        circuit: CompositeInstruction,
        shots: int | None = None,
    ) -> AcceleratorBuffer:
        """Synchronous execution: submit and wait."""
        job = self.submit(buffer, circuit, shots=shots)
        return job.result(timeout=60.0)

    def shutdown(self) -> None:
        """Stop the worker thread (used by tests; idempotent)."""
        self._queue.put(None)
        self._worker.join(timeout=5.0)
