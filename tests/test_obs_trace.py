"""Tests for structured tracing (:mod:`repro.obs.trace`).

The load-bearing properties: zero-allocation no-ops when tracing is off,
parent/child linkage through the ambient context, explicit cross-thread
hand-off, sampled-out traces staying sampled out downstream, and the wire
round-trip workers use to ship spans across process boundaries.
"""

import threading

import pytest

from repro.obs import (
    Span,
    TraceContext,
    Tracer,
    disable_tracing,
    enable_tracing,
    get_tracer,
)
from repro.obs.trace import NOOP_SPAN


class TestDisabledTracer:
    def test_disabled_tracer_returns_the_shared_noop_span(self):
        tracer = Tracer()
        span = tracer.span("anything")
        assert span is NOOP_SPAN
        assert not span.recording
        assert span.context() is None

    def test_noop_span_absorbs_the_full_span_api(self):
        with Tracer().span("noop") as span:
            span.set_attribute("k", 1)
            span.mark_error("ignored")
        span.finish()  # idempotent, no error

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        assert tracer.spans() == []


class TestSpanTree:
    def test_nested_spans_form_one_tree(self):
        tracer = Tracer()
        tracer.enable()
        with tracer.span("root") as root:
            with tracer.span("child") as child:
                with tracer.span("grandchild") as grandchild:
                    pass
        assert child.trace_id == root.trace_id == grandchild.trace_id
        assert child.parent_id == root.span_id
        assert grandchild.parent_id == child.span_id
        assert {s.name for s in tracer.spans(root.trace_id)} == {
            "root",
            "child",
            "grandchild",
        }

    def test_ambient_context_restored_on_exit(self):
        tracer = Tracer()
        tracer.enable()
        with tracer.span("root") as root:
            with tracer.span("child"):
                pass
            # Back at root level: a new span is root's child, not child's.
            with tracer.span("sibling") as sibling:
                assert sibling.parent_id == root.span_id
        assert tracer.current_context() is None

    def test_exception_marks_the_span_as_error(self):
        tracer = Tracer()
        tracer.enable()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("payload")
        (span,) = tracer.spans()
        assert span.error == "ValueError: payload"

    def test_attributes_and_explicit_error(self):
        tracer = Tracer()
        tracer.enable()
        with tracer.span("op", attrs={"shots": 64}) as span:
            span.set_attribute("cached", True)
            span.mark_error("custom")
        assert span.attributes == {"shots": 64, "cached": True}
        assert span.error == "custom"

    def test_render_tree_shows_nesting_and_errors(self):
        tracer = Tracer()
        tracer.enable()
        with tracer.span("job") as root:
            with tracer.span("replay") as replay:
                replay.mark_error("died")
        text = tracer.render_tree(root.trace_id)
        lines = text.splitlines()
        assert lines[0].startswith("job")
        assert lines[1].startswith("  replay")
        assert "[ERROR]" in lines[1]


class TestParentSemantics:
    def test_explicit_none_parent_is_a_noop(self):
        """A caller with an *empty* parent slot must not start a fresh trace
        — that is how sampled-out traces stay sampled out downstream."""
        tracer = Tracer()
        tracer.enable()
        assert tracer.span("child-of-nothing", parent=None) is NOOP_SPAN

    def test_explicit_remote_parent_records_even_when_disabled(self):
        """Worker processes never enable their tracer; shipping a context
        is the admission decision."""
        tracer = Tracer()
        assert not tracer.enabled
        ctx = TraceContext("t" * 16, "s" * 16)
        with tracer.span("worker-op", parent=ctx) as span:
            pass
        assert span.recording
        assert span.trace_id == ctx.trace_id
        assert span.parent_id == ctx.span_id

    def test_sampling_zero_admits_no_roots(self):
        tracer = Tracer()
        tracer.enable(sample_rate=0.0)
        assert all(tracer.span("try") is NOOP_SPAN for _ in range(32))

    def test_sample_rate_validation(self):
        with pytest.raises(ValueError):
            Tracer().enable(sample_rate=1.5)


class TestCrossThread:
    def test_activate_hands_context_to_another_thread(self):
        tracer = Tracer()
        tracer.enable()
        root = tracer.span("root")
        seen = {}

        def worker():
            # No implicit inheritance: the dispatcher thread starts clean.
            seen["before"] = tracer.current_context()
            with tracer.activate(root.context()):
                with tracer.span("on-thread") as span:
                    seen["span"] = span

        t = threading.Thread(target=worker)
        t.start()
        t.join()
        root.finish()
        assert seen["before"] is None
        assert seen["span"].parent_id == root.span_id
        assert seen["span"].trace_id == root.trace_id

    def test_activate_none_is_a_noop(self):
        tracer = Tracer()
        with tracer.activate(None):
            assert tracer.current_context() is None


class TestWireAndStitching:
    def test_trace_context_wire_round_trip(self):
        ctx = TraceContext("abc123", "def456")
        assert TraceContext.from_wire(ctx.to_wire()) == ctx
        assert TraceContext.from_wire(None) is None
        assert TraceContext.from_wire({}) is None
        assert TraceContext.from_wire({"trace_id": "x"}) is None

    def test_span_dict_round_trip(self):
        tracer = Tracer()
        tracer.enable()
        with tracer.span("op", attrs={"n": 3}) as span:
            span.mark_error("e")
        clone = Span.from_dict(span.to_dict())
        assert clone.name == span.name
        assert clone.trace_id == span.trace_id
        assert clone.span_id == span.span_id
        assert clone.parent_id == span.parent_id
        assert clone.attributes == span.attributes
        assert clone.error == span.error
        assert clone.duration == span.duration

    def test_capture_collects_finished_spans_for_shipping(self):
        tracer = Tracer()
        ctx = TraceContext("t" * 16, "s" * 16)
        with tracer.capture() as sink:
            with tracer.span("worker", parent=ctx):
                with tracer.span("inner"):
                    pass
        assert {s.name for s in sink} == {"worker", "inner"}

    def test_ingest_stitches_worker_spans_into_the_parent_buffer(self):
        parent = Tracer()
        parent.enable()
        root = parent.span("job")

        worker = Tracer()  # separate process stand-in: never enabled
        with worker.capture() as sink:
            with worker.span("remote", parent=root.context()):
                pass
        payloads = [s.to_dict() for s in sink]
        root.finish()

        stitched = parent.ingest(payloads)
        names = {s.name for s in parent.spans(root.trace_id)}
        assert names == {"job", "remote"}
        assert stitched[0].parent_id == root.span_id

    def test_nested_captures_both_see_ingested_spans(self):
        """Two-hop shipping: an outer sink must include spans an inner
        capture ingested, so they travel one more hop up."""
        tracer = Tracer()
        ctx = TraceContext("t" * 16, "s" * 16)
        payload = {
            "name": "remote-step",
            "trace_id": ctx.trace_id,
            "span_id": "x" * 16,
            "parent_id": ctx.span_id,
            "start_wall": 1.0,
            "duration": 0.5,
        }
        with tracer.capture() as outer:
            with tracer.capture() as inner:
                tracer.ingest([payload])
        assert [s.name for s in inner] == ["remote-step"]
        assert [s.name for s in outer] == ["remote-step"]

    def test_record_writes_a_retroactive_span(self):
        tracer = Tracer()
        tracer.enable()
        root = tracer.span("job")
        span = tracer.record(
            "queue-wait",
            parent=root.context(),
            start_wall=123.0,
            duration=0.25,
            attrs={"depth": 2},
        )
        root.finish()
        assert span.start_wall == 123.0
        assert span.duration == 0.25
        assert span.parent_id == root.span_id
        assert tracer.record(
            "nothing", parent=None, start_wall=0.0, duration=0.0
        ) is NOOP_SPAN


class TestModuleLevelSwitches:
    def test_enable_disable_round_trip(self):
        tracer = enable_tracing()
        assert tracer is get_tracer()
        assert tracer.enabled
        disable_tracing()
        assert not tracer.enabled

    def test_buffer_is_bounded(self):
        tracer = Tracer(capacity=4)
        tracer.enable()
        for i in range(10):
            tracer.span(f"s{i}").finish()
        assert len(tracer.spans()) == 4
        assert tracer.spans()[-1].name == "s9"

    def test_trace_ids_lists_distinct_traces_in_order(self):
        tracer = Tracer()
        tracer.enable()
        a = tracer.span("a")
        a.finish()
        b = tracer.span("b")
        b.finish()
        assert tracer.trace_ids() == [a.trace_id, b.trace_id]
