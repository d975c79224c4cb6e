"""Parameter-sweep jobs through the broker (`repro.service.sweep`).

The contracts under test:

* **Bit-identity** — every binding of a sweep produces, at a fixed seed,
  exactly the histogram an equivalent independent submission of the
  pre-bound circuit would (compile-once fan-out amortises cost, never
  changes results).
* **Streaming & lifecycle** — results land per binding (``as_completed``),
  single bindings cancel without touching the rest, and per-binding
  deadlines triage at dequeue.
* **Cache reuse** — bindings cache under member keys, so repeated sweeps
  (and differently-shaped sweeps over the same angles) serve from cache.
* **Gradients** — ``service.gradient`` implements the parameter-shift rule
  as one ``2·P``-binding expectation sweep, agreeing with central finite
  differences to 1e-6 and with the serial ObjectiveFunction path exactly.
* **Tenancy** — per-tenant deadline/retry defaults apply to submissions
  (and every binding of a sweep) that do not carry their own.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.config import get_config, set_config
from repro.exceptions import DeadlineExceeded, ExecutionError, JobCancelled
from repro.exec.retry import RetryPolicy
from repro.ir.builder import CircuitBuilder
from repro.ir.parameter import Parameter
from repro.operators import X, Z
from repro.runtime.service_registry import reset_registry
from repro.service import QuantumJobService, binding_key, sweep_key
from repro.core.objective import createObjectiveFunction


@pytest.fixture(autouse=True)
def sweep_runtime_state():
    """Fixed seed and thread count, plus a clean accelerator registry.

    Bit-identity only exists at a fixed seed, and the sampled histogram
    additionally depends on the shot-chunking width (one RNG stream per
    thread), so the thread count is pinned too — both the config field and
    the ``OMP_NUM_THREADS`` env var that freshly-spawned shard workers
    derive their own default from.
    """
    previous_env = os.environ.get("OMP_NUM_THREADS")
    previous_threads = get_config().omp_num_threads
    os.environ["OMP_NUM_THREADS"] = "2"
    set_config(seed=20260808, omp_num_threads=2)
    reset_registry()
    yield
    if previous_env is None:
        os.environ.pop("OMP_NUM_THREADS", None)
    else:
        os.environ["OMP_NUM_THREADS"] = previous_env
    set_config(seed=None, omp_num_threads=previous_threads)
    reset_registry()


def layered_ansatz(n_qubits: int = 4, layers: int = 2, measured: bool = True):
    """Hardware-efficient RY/CX ansatz with zero-padded parameter names
    (name order == gate order, so positional bindings are unambiguous)."""
    builder = CircuitBuilder(n_qubits, name=f"sweep_ansatz_{n_qubits}q")
    index = 0
    for _ in range(layers):
        for qubit in range(n_qubits):
            builder.ry(qubit, Parameter(f"t{index:03d}"))
            index += 1
        for qubit in range(n_qubits - 1):
            builder.cx(qubit, qubit + 1)
    if measured:
        for qubit in range(n_qubits):
            builder.measure(qubit)
    return builder.build(), index


def random_bindings(n_bindings: int, n_params: int, seed: int = 11):
    rng = np.random.default_rng(seed)
    return [list(rng.uniform(-np.pi, np.pi, n_params)) for _ in range(n_bindings)]


class TestSweepCountsIdentity:
    def test_bindings_bit_identical_to_independent_submits(self):
        circuit, n_params = layered_ansatz()
        bindings = random_bindings(6, n_params)
        with QuantumJobService(workers=2, name="sweep-id") as service:
            table = service.submit_sweep(circuit, bindings, shots=512).result(timeout=60)
        assert [row.index for row in table] == list(range(6))
        with QuantumJobService(
            workers=2, enable_cache=False, name="independent"
        ) as independent:
            for row in table:
                expected = independent.submit(
                    circuit.bind(row.values), shots=512
                ).result(timeout=60)
                assert dict(row.counts) == dict(expected.counts)
                assert sum(row.counts.values()) == 512

    def test_sharded_sweep_matches_independent_sharded_submits(self):
        """Same contract on the process-sharded lane: the comparison runs
        through the same service shape (shard workers size their sampling
        pools from the host topology, so *cross*-lane histograms are not
        the guarantee — sweep-vs-independent within a lane is)."""
        circuit, n_params = layered_ansatz()
        bindings = random_bindings(4, n_params)
        with QuantumJobService(
            workers=2, processes=2, enable_cache=False, name="sweep-sharded"
        ) as service:
            table = service.submit_sweep(circuit, bindings, shots=256).result(
                timeout=120
            )
            for row in table:
                expected = service.submit(
                    circuit.bind(row.values), shots=256
                ).result(timeout=120)
                assert dict(row.counts) == dict(expected.counts)
            metrics = service.metrics()
        assert metrics.sharded_executions >= 1

    def test_unparameterized_circuit_is_rejected(self):
        circuit, _ = layered_ansatz()
        bound = circuit.bind([0.1] * 8)
        with QuantumJobService(workers=1, name="sweep-reject") as service:
            with pytest.raises(ExecutionError, match="use submit"):
                service.submit_sweep(bound, [[0.1] * 8])
            with pytest.raises(ExecutionError, match="at least one binding"):
                service.submit_sweep(circuit, [])

    def test_plain_submit_of_parametric_circuit_points_at_sweeps(self):
        circuit, _ = layered_ansatz()
        with QuantumJobService(workers=1, name="sweep-hint") as service:
            with pytest.raises(ExecutionError, match="submit_sweep"):
                service.submit(circuit, shots=64)


class TestSweepStreamingAndCache:
    def test_as_completed_streams_every_binding(self):
        circuit, n_params = layered_ansatz()
        bindings = random_bindings(5, n_params)
        with QuantumJobService(workers=2, name="sweep-stream") as service:
            handle = service.submit_sweep(circuit, bindings, shots=128)
            seen = sorted(row.index for row in handle.as_completed(timeout=60))
        assert seen == list(range(5))

    def test_repeat_sweep_serves_from_binding_cache(self):
        circuit, n_params = layered_ansatz()
        bindings = random_bindings(4, n_params)
        with QuantumJobService(workers=2, name="sweep-cache") as service:
            first = service.submit_sweep(circuit, bindings, shots=256).result(timeout=60)
            again = service.submit_sweep(circuit, bindings, shots=256).result(timeout=60)
            metrics = service.metrics()
        assert not any(row.from_cache for row in first)
        assert all(row.from_cache for row in again)
        for a, b in zip(first, again):
            assert dict(a.counts) == dict(b.counts)
        # The second sweep fanned out nothing and executed nothing new.
        assert metrics.executed_shots == 4 * 256
        assert metrics.cache_hits == 4

    def test_subset_sweep_reuses_member_results(self):
        """Per-binding member keys make results reusable across
        differently-shaped sweeps of the same ansatz."""
        circuit, n_params = layered_ansatz()
        bindings = random_bindings(4, n_params)
        with QuantumJobService(workers=2, name="sweep-subset") as service:
            service.submit_sweep(circuit, bindings, shots=256).result(timeout=60)
            subset = service.submit_sweep(
                circuit, [bindings[2], bindings[0]], shots=256
            ).result(timeout=60)
        assert all(row.from_cache for row in subset)

    def test_smaller_shot_request_subsamples_cached_binding(self):
        circuit, n_params = layered_ansatz()
        bindings = random_bindings(2, n_params)
        with QuantumJobService(workers=2, name="sweep-subsample") as service:
            service.submit_sweep(circuit, bindings, shots=1024).result(timeout=60)
            small = service.submit_sweep(circuit, bindings, shots=100).result(timeout=60)
        assert all(row.from_cache for row in small)
        assert all(sum(row.counts.values()) == 100 for row in small)

    def test_metrics_count_bindings_and_fanout(self):
        circuit, n_params = layered_ansatz()
        bindings = random_bindings(3, n_params)
        with QuantumJobService(workers=2, name="sweep-metrics") as service:
            service.submit_sweep(circuit, bindings, shots=64).result(timeout=60)
            metrics = service.metrics()
        assert metrics.sweep_bindings == 3
        assert 1 <= metrics.sweep_fanout <= 3
        assert metrics.submitted == 3
        assert metrics.completed == 3


class TestSweepLifecycle:
    def test_cancel_one_binding_leaves_the_rest(self):
        circuit, n_params = layered_ansatz()
        bindings = random_bindings(4, n_params)
        # Deferred start (``with`` would call start()) so the cancel lands
        # while every binding is still queued.
        service = QuantumJobService(workers=1, auto_start=False, name="sweep-cancel")
        try:
            handle = service.submit_sweep(circuit, bindings, shots=128)
            assert handle.cancel_binding(2)
            service.start()
            for index in (0, 1, 3):
                row = handle.binding_result(index, timeout=60)
                assert sum(row.counts.values()) == 128
            with pytest.raises(JobCancelled):
                handle.binding_result(2, timeout=60)
        finally:
            service.shutdown()

    def test_cancel_whole_sweep(self):
        circuit, n_params = layered_ansatz()
        bindings = random_bindings(3, n_params)
        service = QuantumJobService(
            workers=1, auto_start=False, name="sweep-cancel-all"
        )
        try:
            handle = service.submit_sweep(circuit, bindings, shots=128)
            handle.cancel()
            service.start()
            for index in range(3):
                with pytest.raises(JobCancelled):
                    handle.binding_result(index, timeout=30)
            assert handle.done()
        finally:
            service.shutdown()

    def test_expired_deadline_triages_at_dequeue(self):
        circuit, n_params = layered_ansatz()
        bindings = random_bindings(2, n_params)
        service = QuantumJobService(
            workers=1, auto_start=False, name="sweep-deadline"
        )
        try:
            handle = service.submit_sweep(
                circuit, bindings, shots=128, deadline=0.05
            )
            time.sleep(0.15)
            service.start()
            for index in range(2):
                with pytest.raises(DeadlineExceeded):
                    handle.binding_result(index, timeout=30)
        finally:
            service.shutdown()

    def test_invalid_deadline_rejected(self):
        circuit, n_params = layered_ansatz()
        with QuantumJobService(workers=1, name="sweep-bad-deadline") as service:
            with pytest.raises(ExecutionError, match="deadline"):
                service.submit_sweep(
                    circuit, random_bindings(1, n_params), deadline=-1.0
                )


class TestGradients:
    def observable(self):
        return 1.5 * Z(0) + 0.7 * Z(1) * Z(2) + 0.4 * X(0) * X(1)

    def test_parameter_shift_matches_central_differences(self):
        circuit, n_params = layered_ansatz(n_qubits=3, measured=False)
        theta = np.asarray(random_bindings(1, n_params, seed=5)[0])
        observable = self.observable()
        with QuantumJobService(workers=2, name="grad-fd") as service:
            grad = service.gradient(circuit, observable, theta)
            step = 1e-4
            fd = np.zeros(n_params)
            for i in range(n_params):
                plus, minus = theta.copy(), theta.copy()
                plus[i] += step
                minus[i] -= step
                e_plus, e_minus = service.expectations(
                    circuit, observable, [list(plus), list(minus)]
                )
                fd[i] = (e_plus - e_minus) / (2 * step)
        assert np.max(np.abs(grad - fd)) < 1e-6

    def test_objective_function_routes_through_the_service(self):
        circuit, n_params = layered_ansatz(n_qubits=3, measured=False)
        theta = random_bindings(1, n_params, seed=9)[0]
        observable = self.observable()
        serial = createObjectiveFunction(
            circuit, observable, 3, n_params, {"gradient-strategy": "parameter-shift"}
        )
        expected = serial.gradient(theta)
        with QuantumJobService(workers=2, name="grad-obj") as service:
            routed = createObjectiveFunction(
                circuit,
                observable,
                3,
                n_params,
                {"gradient-strategy": "parameter-shift", "service": service},
            )
            grad = routed.gradient(theta)
            assert routed.evaluation_count == 2 * n_params
        assert np.allclose(grad, expected, atol=1e-9)

    def test_expectation_sweep_matches_serial_objective(self):
        circuit, n_params = layered_ansatz(n_qubits=3, measured=False)
        bindings = random_bindings(3, n_params, seed=4)
        observable = self.observable()
        objective = createObjectiveFunction(circuit, observable, 3, n_params)
        with QuantumJobService(workers=2, name="exp-sweep") as service:
            energies = service.expectations(circuit, observable, bindings)
        for energy, binding in zip(energies, bindings):
            assert energy == pytest.approx(objective(binding), abs=1e-12)

    def test_gradient_of_zero_parameters_is_empty(self):
        circuit, n_params = layered_ansatz(n_qubits=2, measured=False)
        with QuantumJobService(workers=1, name="grad-empty") as service:
            assert service.gradient(circuit, Z(0), []).size == 0


class TestTenantDefaults:
    def test_tenant_deadline_default_applies_to_sweeps(self):
        circuit, n_params = layered_ansatz()
        bindings = random_bindings(2, n_params)
        service = QuantumJobService(
            workers=1,
            auto_start=False,
            name="tenant-deadline",
            tenant_defaults={"acme": {"deadline": 0.05}},
        )
        try:
            tenant_handle = service.submit_sweep(
                circuit, bindings, shots=64, tenant="acme"
            )
            free_handle = service.submit_sweep(
                circuit, [bindings[0]], shots=64
            )
            time.sleep(0.15)
            service.start()
            for index in range(2):
                with pytest.raises(DeadlineExceeded):
                    tenant_handle.binding_result(index, timeout=30)
            # The untenanted sweep has no default deadline and completes.
            row = free_handle.binding_result(0, timeout=60)
            assert sum(row.counts.values()) == 64
        finally:
            service.shutdown()

    def test_explicit_deadline_beats_the_tenant_default(self):
        circuit, n_params = layered_ansatz()
        service = QuantumJobService(
            workers=1,
            auto_start=False,
            name="tenant-override",
            tenant_defaults={"acme": {"deadline": 0.01}},
        )
        try:
            handle = service.submit_sweep(
                circuit,
                random_bindings(1, n_params),
                shots=64,
                deadline=60.0,
                tenant="acme",
            )
            time.sleep(0.05)
            service.start()
            row = handle.binding_result(0, timeout=60)
            assert sum(row.counts.values()) == 64
        finally:
            service.shutdown()

    def test_tenant_retry_policy_rides_on_the_spec(self):
        policy = RetryPolicy(max_attempts=5, base_delay=0.01)
        circuit, n_params = layered_ansatz()
        service = QuantumJobService(
            workers=1,
            auto_start=False,
            name="tenant-retry",
            tenant_defaults={"acme": {"retry_policy": policy}},
        )
        try:
            service.submit_sweep(
                circuit, random_bindings(1, n_params), shots=64, tenant="acme"
            )
            batch = service._queue.get(timeout=0)
            assert batch is not None
            assert batch.spec.retry_policy is policy
            assert batch.spec.tenant == "acme"
        finally:
            service.shutdown()

    def test_tenant_defaults_apply_to_plain_submits_too(self):
        from repro.algorithms.bell import bell_circuit

        service = QuantumJobService(
            workers=1,
            auto_start=False,
            name="tenant-submit",
            tenant_defaults={"acme": {"deadline": 0.05}},
        )
        try:
            handle = service.submit(bell_circuit(2), shots=64, tenant="acme")
            time.sleep(0.15)
            service.start()
            with pytest.raises(DeadlineExceeded):
                handle.result(timeout=30)
        finally:
            service.shutdown()


class TestSweepKeys:
    def test_sweep_key_is_semantic_in_bindings(self):
        circuit, n_params = layered_ansatz()
        a = random_bindings(2, n_params, seed=1)
        b = random_bindings(2, n_params, seed=2)
        key_a = sweep_key(circuit, "qpp", None, a)
        assert key_a == sweep_key(circuit, "qpp", None, [list(x) for x in a])
        assert key_a != sweep_key(circuit, "qpp", None, b)
        assert key_a != sweep_key(circuit, "qpp", None, list(reversed(a)))

    def test_binding_key_independent_of_sweep_shape(self):
        circuit, n_params = layered_ansatz()
        bindings = random_bindings(3, n_params, seed=1)
        alone = binding_key(circuit, "qpp", None, bindings[0])
        assert alone == binding_key(circuit, "qpp", None, tuple(bindings[0]))
        assert alone != binding_key(circuit, "qpp", None, bindings[1])

    def test_routing_options_stay_out_of_sweep_identity(self):
        circuit, n_params = layered_ansatz()
        bindings = random_bindings(2, n_params, seed=1)
        base = sweep_key(circuit, "qpp", None, bindings)
        routed = sweep_key(
            circuit,
            "qpp",
            {"chunk-threshold": 1 << 12, "processes": 8},
            bindings,
        )
        assert base == routed
        semantic = sweep_key(circuit, "qpp", {"precision": "single"}, bindings)
        assert base != semantic
