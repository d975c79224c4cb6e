"""Tests for AcceleratorBuffer and the qreg handle."""

import json
import threading

import pytest

from repro.exceptions import AllocationError, ExecutionError
from repro.runtime.allocation import (
    allocated_buffer_count,
    clear_allocated_buffers,
    get_allocated_buffer,
    qalloc,
)
from repro.runtime.buffer import AcceleratorBuffer
from repro.runtime.qreg import QubitRef, qreg


class TestAcceleratorBuffer:
    def test_unique_names_generated(self):
        a, b = AcceleratorBuffer(2), AcceleratorBuffer(2)
        assert a.name != b.name
        assert a.name.startswith("qrg_")

    def test_explicit_name(self):
        assert AcceleratorBuffer(2, name="mybuf").name == "mybuf"

    def test_size_validation(self):
        with pytest.raises(ExecutionError):
            AcceleratorBuffer(0)

    def test_add_and_get_measurements(self):
        buffer = AcceleratorBuffer(2)
        buffer.add_measurement("00", 5)
        buffer.add_measurement("11", 3)
        buffer.add_measurement("00", 2)
        assert buffer.get_measurement_counts() == {"00": 7, "11": 3}
        assert buffer.total_shots() == 10

    def test_counts_alias(self):
        buffer = AcceleratorBuffer(1)
        buffer.add_measurement("0")
        assert buffer.counts() == {"0": 1}

    def test_set_measurements_replaces(self):
        buffer = AcceleratorBuffer(2)
        buffer.add_measurement("00", 5)
        buffer.set_measurements({"11": 2})
        assert buffer.get_measurement_counts() == {"11": 2}

    def test_invalid_bitstring_rejected(self):
        buffer = AcceleratorBuffer(2)
        with pytest.raises(ExecutionError):
            buffer.add_measurement("0x")
        with pytest.raises(ExecutionError):
            buffer.add_measurement("")

    def test_add_counts_accumulates_like_add_measurement_per_item(self):
        counts = {"00": 5, "11": 3, "01": 0}
        bulk, looped = AcceleratorBuffer(2), AcceleratorBuffer(2)
        for buffer in (bulk, looped):
            buffer.add_measurement("00", 2)
        bulk.add_counts(counts)
        for bitstring, count in counts.items():
            looped.add_measurement(bitstring, count)
        assert bulk.get_measurement_counts() == looped.get_measurement_counts()
        assert bulk.get_measurement_counts() == {"00": 7, "11": 3, "01": 0}
        bulk.add_counts({})
        assert bulk.total_shots() == 10

    @pytest.mark.parametrize(
        "bad, message",
        [
            ({"00": 1, "0x": 2}, "invalid measurement bitstring '0x'"),
            ({"00": 1, "": 2}, "invalid measurement bitstring ''"),
            ({"0a1": 1}, "invalid measurement bitstring '0a1'"),
            ({"00": 1, "11": -2}, "count must be non-negative, got -2"),
        ],
    )
    def test_add_counts_rejects_what_add_measurement_rejects(self, bad, message):
        buffer = AcceleratorBuffer(2)
        buffer.add_measurement("00", 4)
        with pytest.raises(ExecutionError, match=message):
            buffer.add_counts(bad)
        # Validated in bulk before anything is merged.
        assert buffer.get_measurement_counts() == {"00": 4}

    def test_add_counts_takes_the_lock_once(self):
        buffer = AcceleratorBuffer(3)
        acquisitions = []

        class CountingLock:
            def __enter__(self):
                acquisitions.append(1)

            def __exit__(self, *exc):
                return False

        buffer._lock = CountingLock()
        buffer.add_counts({format(i, "03b"): i for i in range(8)})
        assert len(acquisitions) == 1

    def test_probability(self):
        buffer = AcceleratorBuffer(2)
        buffer.set_measurements({"00": 75, "11": 25})
        assert buffer.probability("00") == pytest.approx(0.75)
        assert buffer.probability("01") == pytest.approx(0.0)

    def test_probability_requires_measurements(self):
        with pytest.raises(ExecutionError):
            AcceleratorBuffer(1).probability("0")

    def test_expectation_value_z(self):
        buffer = AcceleratorBuffer(2)
        buffer.set_measurements({"00": 50, "11": 50})
        assert buffer.expectation_value_z() == pytest.approx(1.0)
        assert buffer.expectation_value_z([0]) == pytest.approx(0.0)

    def test_to_dict_matches_listing2_structure(self):
        buffer = AcceleratorBuffer(2, name="qrg_test")
        buffer.set_measurements({"00": 513, "11": 511})
        payload = buffer.to_dict()["AcceleratorBuffer"]
        assert payload["name"] == "qrg_test"
        assert payload["size"] == 2
        assert payload["Measurements"] == {"00": 513, "11": 511}
        # JSON form must be parseable.
        assert json.loads(buffer.to_json())

    def test_print_outputs_json(self, capsys):
        buffer = AcceleratorBuffer(1)
        buffer.add_measurement("0", 3)
        buffer.print()
        assert '"Measurements"' in capsys.readouterr().out

    def test_reset_clears_everything(self):
        buffer = AcceleratorBuffer(1)
        buffer.add_measurement("0")
        buffer.information["backend"] = "qpp"
        buffer.reset()
        assert buffer.get_measurement_counts() == {}
        assert buffer.information == {}

    def test_concurrent_accumulation_is_consistent(self):
        buffer = AcceleratorBuffer(1)

        def add():
            for _ in range(1000):
                buffer.add_measurement("1")

        threads = [threading.Thread(target=add) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert buffer.get_measurement_counts()["1"] == 8000


class TestQreg:
    def test_qalloc_returns_qreg_and_tracks_buffer(self):
        clear_allocated_buffers()
        q = qalloc(3)
        assert isinstance(q, qreg)
        assert q.size() == 3
        assert len(q) == 3
        assert allocated_buffer_count() == 1
        assert get_allocated_buffer(q.name()) is q.buffer

    def test_qalloc_validates_size(self):
        with pytest.raises(AllocationError):
            qalloc(0)

    def test_indexing_returns_qubit_refs(self):
        q = qalloc(2)
        ref = q[1]
        assert isinstance(ref, QubitRef)
        assert int(ref) == 1
        assert ref.__index__() == 1

    def test_out_of_range_index_rejected(self):
        q = qalloc(2)
        with pytest.raises(AllocationError):
            q[2]

    def test_iteration(self):
        q = qalloc(3)
        assert [int(ref) for ref in q] == [0, 1, 2]

    def test_counts_and_print_reflect_buffer(self, capsys):
        q = qalloc(2)
        q.buffer.add_measurement("00", 4)
        assert q.counts() == {"00": 4}
        q.print()
        assert "00" in capsys.readouterr().out

    def test_exp_val_z(self):
        q = qalloc(1)
        q.buffer.set_measurements({"1": 10})
        assert q.exp_val_z() == pytest.approx(-1.0)

    def test_reset(self):
        q = qalloc(1)
        q.buffer.add_measurement("1")
        q.reset()
        assert q.counts() == {}

    def test_unknown_buffer_lookup_raises(self):
        with pytest.raises(AllocationError):
            get_allocated_buffer("does-not-exist")
