"""The complex64 precision tier.

Two invariants anchor this file:

* **Lane choice never changes results.**  At complex128 every lane —
  serial, thread-chunked, shared-memory processes, shot-sharded — produces
  bit-identical fixed-seed histograms.
* **The single-precision tier is fidelity-bounded.**  Evolving the paper's
  algorithm suite in complex64 deviates from the complex128 amplitudes by
  at most 1e-4 (max absolute amplitude difference) — the documented bound
  — while occupying half the amplitude bytes end to end (states, shm
  segments, admission accounting).
"""

import os

import numpy as np
import pytest

from repro.algorithms.bell import bell_circuit
from repro.algorithms.ghz import ghz_circuit
from repro.algorithms.qft import qft_circuit
from repro.algorithms.shor import period_finding_circuit
from repro.algorithms.vqe import deuteron_ansatz_circuit
from repro.config import configure
from repro.exceptions import ExecutionError
from repro.exec.backend import DensityBackend, LocalBackend
from repro.runtime.buffer import AcceleratorBuffer
from repro.runtime.qpp_accelerator import QppAccelerator
from repro.service.admission import estimate_job_bytes
from repro.service.keys import job_key
from repro.simulator.execution_plan import (
    DEFAULT_PRECISION,
    compile_plan,
    precision_dtype,
    resolve_precision,
)
from repro.simulator.statevector import StateVector

#: The paper's algorithm suite, as (name, circuit factory) pairs.
ALGORITHMS = [
    ("bell", lambda: bell_circuit()),
    ("ghz", lambda: ghz_circuit(5)),
    ("qft", lambda: qft_circuit(6)),
    ("shor", lambda: period_finding_circuit(15, 2)),
    ("vqe", lambda: deuteron_ansatz_circuit(0.59)),
]

#: Documented fidelity bound: max |amp64 - amp128| over the suite.
AMPLITUDE_BOUND = 1e-4


def final_state(circuit, precision, pool=None):
    plan = compile_plan(
        circuit, circuit.n_qubits, precision=precision, chunk_threshold=1
    )
    return plan.execute(plan.new_state(), pool=pool)


class TestPrecisionResolution:
    @pytest.mark.parametrize(
        "alias, canonical",
        [
            ("double", "double"),
            ("complex128", "double"),
            ("fp64", "double"),
            ("single", "single"),
            ("complex64", "single"),
            ("fp32", "single"),
        ],
    )
    def test_aliases(self, alias, canonical):
        assert resolve_precision(alias) == canonical

    def test_unknown_precision_rejected(self):
        with pytest.raises(ExecutionError):
            resolve_precision("half")

    def test_dtypes(self):
        assert precision_dtype("double") == np.dtype(np.complex128)
        assert precision_dtype("single") == np.dtype(np.complex64)
        assert DEFAULT_PRECISION == "double"


class TestStateVectorDtype:
    def test_default_is_complex128(self):
        assert StateVector(3).dtype == np.dtype(np.complex128)

    def test_single_precision_state(self):
        state = StateVector(3, dtype=np.complex64)
        assert state.dtype == np.dtype(np.complex64)
        state.run(bell_circuit(3))
        assert state.dtype == np.dtype(np.complex64)

    def test_non_complex_dtype_rejected(self):
        with pytest.raises(ExecutionError):
            StateVector(2, dtype=np.float64)


class TestFidelityBound:
    @pytest.mark.parametrize("name, factory", ALGORITHMS, ids=[a[0] for a in ALGORITHMS])
    def test_serial_amplitude_deviation_bounded(self, name, factory):
        circuit = factory()
        ref = final_state(circuit, "double")
        single = final_state(circuit, "single")
        assert single.dtype == np.dtype(np.complex64)
        deviation = np.max(np.abs(single.astype(np.complex128) - ref))
        assert deviation <= AMPLITUDE_BOUND, f"{name}: {deviation}"

    @pytest.mark.skipif(
        not os.path.isdir("/dev/shm"), reason="POSIX shared memory required"
    )
    @pytest.mark.parametrize("name, factory", ALGORITHMS, ids=[a[0] for a in ALGORITHMS])
    def test_shm_lane_matches_serial_in_both_tiers(self, name, factory):
        from repro.exec.shm import SharedStatePool

        circuit = factory()
        pool = SharedStatePool(2, name=f"prec-{name}")
        try:
            for precision in ("double", "single"):
                serial = final_state(circuit, precision)
                shared = final_state(circuit, precision, pool=pool)
                # The shm lane replays the identical chunk decomposition, so
                # it is bitwise identical to serial *within* each tier.
                assert shared.dtype == serial.dtype
                assert np.array_equal(shared, serial), f"{name}/{precision}"
        finally:
            pool.close()

    @pytest.mark.parametrize("name, factory", ALGORITHMS, ids=[a[0] for a in ALGORITHMS])
    def test_thread_lane_matches_serial_in_both_tiers(self, name, factory):
        from repro.simulator.parallel_engine import ParallelSimulationEngine

        circuit = factory()
        with ParallelSimulationEngine(num_threads=2) as engine:
            for precision in ("double", "single"):
                serial = final_state(circuit, precision)
                threaded = final_state(circuit, precision, pool=engine)
                assert threaded.dtype == serial.dtype
                assert np.array_equal(threaded, serial), f"{name}/{precision}"

    @pytest.mark.parametrize("name, factory", ALGORITHMS, ids=[a[0] for a in ALGORITHMS])
    def test_sharded_lane_counts_agree_across_tiers(self, name, factory):
        from repro.exec.sharded import ShardedExecutor

        from repro.simulator.parallel_engine import ParallelSimulationEngine

        circuit = factory()
        # Shard seeds derive per worker, so the in-process reference must
        # split shots the same way: threads == shards.
        engine = ParallelSimulationEngine(num_threads=2)
        local = LocalBackend(engine=engine)
        executor = ShardedExecutor(2, name=f"prec-shard-{name}")
        try:
            for precision in ("double", "single"):
                expected = local.execute(
                    circuit, 128, n_qubits=circuit.n_qubits, seed=13,
                    precision=precision,
                ).counts
                sharded = executor.execute(
                    circuit, 128, n_qubits=circuit.n_qubits, seed=13,
                    precision=precision,
                ).counts
                assert sharded == expected, f"{name}/{precision}"
        finally:
            executor.close()
            engine.close()

    def test_half_resident_bytes_in_admission_accounting(self):
        for n in (4, 10, 20):
            double = estimate_job_bytes(n, 0)
            single = estimate_job_bytes(n, 0, precision="single")
            assert single * 2 == double
        # Shot-histogram bytes are precision-independent.
        assert estimate_job_bytes(4, 100, precision="single") == (
            estimate_job_bytes(4, 0, precision="single") + 800
        )


def accelerator_counts(circuit, **options):
    """Fixed-seed counts of one ``QppAccelerator`` job with ``options``."""
    buffer = AcceleratorBuffer(circuit.n_qubits)
    with configure(seed=99):
        QppAccelerator({"threads": 2, **options}).execute(buffer, circuit, shots=256)
    return buffer.get_measurement_counts()


class TestAdaptiveLaneSelection:
    """``adaptive-lane`` is no longer read: a job that still sets it replays
    on the one fixed-rule lane, so its fixed-seed histogram is the unflagged
    job's, below and above a forced chunk threshold."""

    def test_adaptive_backend_is_bit_identical_at_complex128(self):
        for name, factory in ALGORITHMS:
            circuit = factory()
            for threshold in (None, 2):
                expected = accelerator_counts(circuit, **{"chunk-threshold": threshold})
                got = accelerator_counts(
                    circuit, **{"chunk-threshold": threshold, "adaptive-lane": True}
                )
                assert got == expected, (name, threshold)

    def test_adaptive_backend_fidelity_bounded_at_complex64(self):
        for name, factory in ALGORITHMS:
            circuit = factory()
            for threshold in (None, 2):
                options = {"chunk-threshold": threshold, "precision": "single"}
                expected = accelerator_counts(circuit, **options)
                got = accelerator_counts(circuit, **options, **{"adaptive-lane": True})
                # Within one tier every lane is bit-identical, so the
                # fixed-seed histograms agree exactly.
                assert got == expected, (name, threshold)


class TestPrecisionIsSemantic:
    def test_precision_changes_the_job_key(self):
        circuit = bell_circuit()
        double = job_key(circuit, "qpp", {"precision": "double"})
        single = job_key(circuit, "qpp", {"precision": "single"})
        assert double != single

    def test_plan_cache_keeps_tiers_apart(self):
        from repro.simulator.plan_cache import get_plan_cache

        circuit = ghz_circuit(4)
        cache = get_plan_cache()
        double = cache.get_or_compile(circuit, 4)
        single = cache.get_or_compile(circuit, 4, precision="single")
        assert double.dtype == np.dtype(np.complex128)
        assert single.dtype == np.dtype(np.complex64)
        assert double is not single

    def test_density_backend_accepts_single_precision(self):
        # PR-8 follow-up: the density lane now has a complex64 tier instead
        # of rejecting non-double precision outright.
        result = DensityBackend().execute(
            bell_circuit(), 32, n_qubits=2, precision="single"
        )
        assert result.extra["precision"] == "single"
        assert sum(result.counts.values()) == 32
        assert set(result.counts) <= {"00", "11"}

    def test_density_single_tier_matches_double_within_bound(self):
        from repro.simulator.density import DensityMatrix

        circuit = ghz_circuit(5)
        double = DensityMatrix(5).apply_circuit(circuit)
        single = DensityMatrix(5, dtype=np.complex64).apply_circuit(circuit)
        assert single.data.dtype == np.dtype(np.complex64)
        error = np.max(np.abs(single.probabilities() - double.probabilities()))
        assert error <= 1e-4
