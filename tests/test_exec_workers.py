"""The worker library both process lanes share (``repro.exec.workers``).

The plan cache and the job envelope run inside worker processes in
production; here they run in-process, so each piece is checked on its own:
what keys the cache, what a miss costs, and what an envelope carries into a
worker and back.
"""

import time
from collections import OrderedDict

import numpy as np
import pytest

from repro.algorithms.bell import bell_circuit
from repro.algorithms.ghz import ghz_circuit
from repro.algorithms.vqe import deuteron_ansatz_circuit
from repro.cancellation import CancelToken, active_cancel_token, cancel_scope
from repro.exceptions import DeadlineExceeded, JobCancelled
from repro.exec import workers
from repro.exec.workers import Envelope, circuit_payload, plan_cache_size, worker_plan
from repro.ir.serialization import circuit_content_hash
from repro.obs.profiler import ReplayProfiler, active_profiler, profiler_installed
from repro.obs.trace import enable_tracing, get_tracer
from repro.simulator.execution_plan import compile_plan
from repro.testing import FaultSpec, InjectedFault, clear_faults, install_faults

SITE = "test.worker.compile"


@pytest.fixture(autouse=True)
def fresh_plan_cache(monkeypatch):
    """Each test starts from an empty cache and leaves the process's own."""
    monkeypatch.setattr(workers, "_PLANS", OrderedDict())
    yield
    clear_faults()


def _plan(circuit, width, **options):
    payload, digest = circuit_payload(circuit)
    return worker_plan(payload, digest, width, options, SITE)


class TestCircuitPayload:
    def test_payload_is_memoised_per_circuit_object(self):
        circuit = ghz_circuit(3)
        first = circuit_payload(circuit)
        assert circuit_payload(circuit)[0] is first[0]
        assert first[1] == circuit_content_hash(circuit)


class TestWorkerPlan:
    def test_second_lookup_hits_and_returns_the_same_plan(self):
        plan, cached = _plan(ghz_circuit(3), 3, optimize=True)
        again, cached_again = _plan(ghz_circuit(3), 3, optimize=True)
        assert (cached, cached_again) == (False, True)
        assert again is plan
        assert plan_cache_size() == 1

    def test_key_ignores_option_order_but_not_values_or_width(self):
        circuit = ghz_circuit(3)
        payload, digest = circuit_payload(circuit)
        worker_plan(payload, digest, 3, {"optimize": True, "chunk_threshold": 2}, SITE)
        _, cached = worker_plan(
            payload, digest, 3, {"chunk_threshold": 2, "optimize": True}, SITE
        )
        assert cached
        assert not worker_plan(payload, digest, 3, {"optimize": False}, SITE)[1]
        assert not worker_plan(payload, digest, 4, {"optimize": True}, SITE)[1]
        assert plan_cache_size() == 3

    def test_plan_matches_the_parents_compile(self):
        circuit = ghz_circuit(4)
        plan, _ = _plan(circuit, 4, optimize=True, chunk_threshold=2)
        parent = compile_plan(circuit, 4, optimize=True, chunk_threshold=2)
        assert np.array_equal(
            plan.execute(plan.new_state()), parent.execute(parent.new_state())
        )

    def test_parametric_circuit_compiles_once_and_binds_per_job(self):
        circuit = deuteron_ansatz_circuit()
        plan, cached = _plan(circuit, 2)
        again, cached_again = _plan(circuit, 2)
        assert (cached, cached_again) == (False, True)
        assert again is plan
        name = next(iter(circuit.free_parameters)).name
        states = []
        for theta in (0.0, 0.5):
            bound = plan.bind({name: theta})
            states.append(bound.execute(bound.new_state()))
        assert not np.allclose(states[0], states[1])

    def test_least_recently_used_plan_is_evicted(self, monkeypatch):
        monkeypatch.setattr(workers, "PLAN_CAPACITY", 2)
        _plan(ghz_circuit(3), 3)
        _plan(bell_circuit(2), 2)
        assert _plan(ghz_circuit(3), 3)[1]  # touch: bell is now the oldest
        _plan(ghz_circuit(4), 4)
        assert plan_cache_size() == 2
        assert _plan(ghz_circuit(3), 3)[1]
        assert not _plan(bell_circuit(2), 2)[1]

    def test_only_a_miss_fires_the_callers_site(self):
        _plan(ghz_circuit(3), 3)
        install_faults([FaultSpec(site=SITE, action="fail")])
        assert _plan(ghz_circuit(3), 3)[1]  # a hit never reaches the site
        with pytest.raises(InjectedFault):
            _plan(ghz_circuit(4), 4)
        assert plan_cache_size() == 1  # the failed compile cached nothing


class TestEnvelope:
    def test_capture_outside_any_job_is_unobserved(self):
        envelope = Envelope.capture()
        assert envelope == Envelope()
        assert not envelope.observed
        assert envelope.run(lambda: 42, "shard-replay", {}) == (42, None)

    def test_capture_refuses_a_tripped_token(self):
        token = CancelToken()
        token.cancel()
        with cancel_scope(token), pytest.raises(JobCancelled):
            Envelope.capture()
        with cancel_scope(CancelToken(deadline=time.time() - 1)):
            with pytest.raises(DeadlineExceeded):
                Envelope.capture()

    def test_deadline_crosses_as_the_workers_ambient_token(self):
        deadline = time.time() + 60
        with cancel_scope(CancelToken(deadline=deadline)):
            envelope = Envelope.capture()
        assert envelope.deadline == deadline
        seen, _ = envelope.run(lambda: active_cancel_token(), "shard-replay", {})
        assert seen.deadline == deadline
        expired = Envelope(deadline=time.time() - 1)
        with pytest.raises(DeadlineExceeded):
            expired.run(lambda: active_cancel_token().check(), "shard-replay", {})

    def test_observed_run_ships_spans_and_profile_that_stitch_home(self):
        tracer = enable_tracing()
        with tracer.capture() as home:
            with tracer.span("client") as root:
                with profiler_installed(ReplayProfiler()) as caller_profiler:
                    envelope = Envelope.capture()
                    assert envelope.trace == root.context().to_wire()
                    assert envelope.profile

                    def body():
                        active_profiler().record_kernel("single", 0.25)
                        return "done"

                    # In a worker process only the payload crosses back; run
                    # in-process, the span is also recorded here directly.
                    with tracer.capture() as worker_side:
                        result, payload = envelope.run(body, "shard-replay", {"shard": 3})
                    assert result == "done"
                    assert [s["name"] for s in payload["spans"]] == ["shard-replay"]
                    span = payload["spans"][0]
                    assert span["parent_id"] == root.span_id
                    assert span["attributes"]["shard"] == 3
                    assert len(worker_side) == 1
                    envelope.stitch([payload, None])
        assert caller_profiler.snapshot().kernels["single"].calls == 1
        stitched = [s for s in home if s.name == "shard-replay"]
        assert len(stitched) == 2  # recorded in-process, then ingested
        assert all(s.trace_id == root.trace_id for s in stitched)
        assert [s.name for s in tracer.spans(root.trace_id)].count("shard-replay") == 2

    def test_stitch_of_an_unobserved_job_is_a_no_op(self):
        tracer = get_tracer()
        with tracer.capture() as home:
            Envelope().stitch([{"spans": [{"name": "stray"}], "profile": None}])
        assert home == []
