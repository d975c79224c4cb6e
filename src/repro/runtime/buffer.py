"""AcceleratorBuffer: the measurement-result container.

Mirrors XACC's ``AcceleratorBuffer`` (Listing 2 of the paper): it records the
register name, size, a free-form information dictionary and the measurement
histogram, and can render itself as the JSON-ish text the paper shows.
"""

from __future__ import annotations

import json
import threading
from typing import Iterable, Mapping

from ..exceptions import ExecutionError

__all__ = ["AcceleratorBuffer"]

#: Monotonically increasing counter used to generate unique buffer names.
_name_counter = 0
_name_lock = threading.Lock()


def _generate_name() -> str:
    """Generate a unique buffer name like ``qrg_000017``.

    The original QCOR generates random suffixes (``qrg_bmQBh``); a counter
    keeps names unique *and* deterministic, which the test suite relies on.
    """
    global _name_counter
    with _name_lock:
        _name_counter += 1
        return f"qrg_{_name_counter:06d}"


class AcceleratorBuffer:
    """Holds the results of executing quantum kernels on a register."""

    def __init__(self, size: int, name: str | None = None):
        if size < 1:
            raise ExecutionError(f"buffer size must be at least 1, got {size}")
        self.name = name or _generate_name()
        self.size = int(size)
        #: Free-form metadata recorded by backends (e.g. expectation values).
        self.information: dict[str, object] = {}
        self._measurements: dict[str, int] = {}
        self._lock = threading.Lock()

    # -- measurements -----------------------------------------------------------
    def add_measurement(self, bitstring: str, count: int = 1) -> None:
        """Accumulate ``count`` observations of ``bitstring``."""
        self._validate_bitstring(bitstring)
        if count < 0:
            raise ExecutionError(f"count must be non-negative, got {count}")
        with self._lock:
            self._measurements[bitstring] = self._measurements.get(bitstring, 0) + int(count)

    def add_counts(self, counts: Mapping[str, int]) -> None:
        """Accumulate a whole histogram (``add_measurement`` per item, in bulk).

        The keys are validated together and the counts merged under one
        lock acquisition — a backend result carries hundreds of keys, and
        per key a validation generator plus a lock round trip was ~12 % of a
        small job's accelerator time.  Nothing is merged unless every key
        and count is valid.
        """
        if "" in counts or "".join(counts).strip("01"):
            for bitstring in counts:  # name the offending key
                self._validate_bitstring(bitstring)
        negative = next((c for c in counts.values() if c < 0), None)
        if negative is not None:
            raise ExecutionError(f"count must be non-negative, got {negative}")
        with self._lock:
            measurements = self._measurements
            for bitstring, count in counts.items():
                measurements[bitstring] = measurements.get(bitstring, 0) + int(count)

    def set_measurements(self, counts: Mapping[str, int]) -> None:
        """Replace the histogram wholesale (used by backends after execution)."""
        for bitstring in counts:
            self._validate_bitstring(bitstring)
        with self._lock:
            self._measurements = {k: int(v) for k, v in counts.items() if int(v) > 0}

    def get_measurement_counts(self) -> dict[str, int]:
        """Return a copy of the measurement histogram."""
        with self._lock:
            return dict(self._measurements)

    #: QCOR-style alias.
    counts = get_measurement_counts

    def total_shots(self) -> int:
        with self._lock:
            return sum(self._measurements.values())

    def probability(self, bitstring: str) -> float:
        """Empirical probability of ``bitstring``."""
        with self._lock:
            total = sum(self._measurements.values())
            if total == 0:
                raise ExecutionError("buffer holds no measurements")
            return self._measurements.get(bitstring, 0) / total

    def expectation_value_z(self, qubits: Iterable[int] | None = None) -> float:
        """Average parity ``<Z...Z>`` over the measured bitstrings.

        ``qubits`` indexes *positions within the measured bitstrings*; by
        default all positions contribute.
        """
        counts = self.get_measurement_counts()
        total = sum(counts.values())
        if total == 0:
            raise ExecutionError("buffer holds no measurements")
        accumulator = 0.0
        for bitstring, count in counts.items():
            positions = range(len(bitstring)) if qubits is None else qubits
            parity = 0
            for position in positions:
                if position >= len(bitstring):
                    raise ExecutionError(
                        f"position {position} out of range for bitstring {bitstring!r}"
                    )
                parity ^= bitstring[position] == "1"
            accumulator += (1.0 - 2.0 * parity) * count
        return accumulator / total

    def reset(self) -> None:
        """Clear measurements and information (reusing the register)."""
        with self._lock:
            self._measurements = {}
            self.information = {}

    # -- rendering ---------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "AcceleratorBuffer": {
                "name": self.name,
                "size": self.size,
                "Information": dict(self.information),
                "Measurements": self.get_measurement_counts(),
            }
        }

    def to_json(self, indent: int = 4) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def print(self) -> None:
        """Print the buffer in the paper's Listing 2 style."""
        print(self.to_json())

    def __repr__(self) -> str:
        return (
            f"AcceleratorBuffer(name={self.name!r}, size={self.size}, "
            f"shots={self.total_shots()})"
        )

    # -- internal -------------------------------------------------------------------
    def _validate_bitstring(self, bitstring: str) -> None:
        if not bitstring or any(c not in "01" for c in bitstring):
            raise ExecutionError(f"invalid measurement bitstring {bitstring!r}")
