"""Trace context propagation: traceparent round trips, explicit parents,
cross-process span assembly, and greppable Chrome exports."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs.trace import (
    SpanRecord,
    TraceContext,
    TraceStore,
    current_context,
    disable_tracing,
    enable_tracing,
    extract,
    inject,
    span,
)


_SRC = Path(__file__).resolve().parent.parent / "src"

#: A child process that joins the parent's trace through the
#: ``traceparent`` in its environment and exports its spans to argv[1].
_CHILD_SCRIPT = """
import os, sys
from repro.obs.trace import TraceContext, enable_tracing, span

store = enable_tracing(capacity=16)
parent = TraceContext.from_traceparent(os.environ["TRACEPARENT"])
with span("child.process", parent=parent):
    with span("child.work"):
        pass
store.export_spans(sys.argv[1])
"""


@pytest.fixture()
def traced():
    store = enable_tracing(capacity=256)
    try:
        yield store
    finally:
        disable_tracing()
        store.clear()


class TestTraceparentFormat:
    def test_round_trip_is_exact(self):
        ctx = TraceContext(trace_id="00000000abcd", span_id="00000000ef12")
        header = ctx.to_traceparent()
        assert header == (
            "00-0000000000000000000000000000abcd-000000000000ef12-01"
        )
        back = TraceContext.from_traceparent(header)
        assert back == ctx

    def test_wide_foreign_ids_survive(self):
        # A 32-hex trace id from a W3C-instrumented foreign client must
        # not be truncated by canonicalization.
        header = (
            "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
        )
        ctx = TraceContext.from_traceparent(header)
        assert ctx is not None
        assert ctx.trace_id == "4bf92f3577b34da6a3ce929d0e0e4736"
        assert ctx.to_traceparent() == header

    def test_unsampled_flag(self):
        ctx = TraceContext(trace_id="abc123", span_id="def456",
                           sampled=False)
        assert ctx.to_traceparent().endswith("-00")
        back = TraceContext.from_traceparent(ctx.to_traceparent())
        assert back is not None and back.sampled is False

    @pytest.mark.parametrize("header", [
        "",
        "not-a-traceparent",
        "00-zz92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
        # version ff is explicitly invalid
        "ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
        # all-zero trace / span ids are invalid
        "00-00000000000000000000000000000000-00f067aa0ba902b7-01",
        "00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",
        # truncated fields
        "00-4bf92f3577b34da6-00f067aa0ba902b7-01",
    ])
    def test_malformed_rejected(self, header):
        assert TraceContext.from_traceparent(header) is None

    def test_invalid_ids_raise(self):
        with pytest.raises(ValueError, match="lowercase hex"):
            TraceContext(trace_id="XYZ", span_id="abc")
        with pytest.raises(ValueError, match="lowercase hex"):
            TraceContext(trace_id="abc", span_id="")


class TestInjectExtract:
    def test_inject_noop_without_context(self):
        disable_tracing()
        headers = {}
        inject(headers)
        assert headers == {}

    def test_inject_extract_round_trip(self, traced):
        with span("origin") as record:
            headers = {}
            inject(headers)
            assert "traceparent" in headers
        ctx = extract(headers)
        assert ctx is not None
        assert ctx.trace_id == record.trace_id
        assert ctx.span_id == record.span_id

    def test_extract_is_case_insensitive(self, traced):
        with span("origin"):
            headers = inject({})
        upper = {"Traceparent": headers["traceparent"]}
        assert extract(upper) is not None

    def test_extract_ignores_malformed(self):
        assert extract({"traceparent": "garbage"}) is None
        assert extract({}) is None

    def test_current_context_none_without_span(self):
        disable_tracing()
        assert current_context() is None


class TestExplicitParent:
    def test_span_parents_onto_context(self, traced):
        with span("client.request") as client:
            ctx = current_context()
        with span("serve.http", parent=ctx) as server:
            pass
        assert server.trace_id == client.trace_id
        assert server.parent_id == client.span_id

    def test_parent_overrides_thread_local_stack(self, traced):
        foreign = TraceContext(trace_id="deadbeef0001", span_id="beef00000002")
        with span("local.root"):
            with span("joined", parent=foreign) as joined:
                pass
        assert joined.trace_id == "deadbeef0001"
        assert joined.parent_id == "beef00000002"

    def test_children_nest_under_parented_span(self, traced):
        foreign = TraceContext(trace_id="deadbeef0001", span_id="beef00000002")
        with span("joined", parent=foreign) as joined:
            with span("inner") as inner:
                pass
        assert inner.trace_id == "deadbeef0001"
        assert inner.parent_id == joined.span_id


class TestSpanSerialization:
    def test_to_from_dict_round_trip(self, traced):
        with span("stage", rows=3) as record:
            pass
        clone = SpanRecord.from_dict(record.to_dict())
        assert clone == record

    def test_from_dict_rejects_garbage(self):
        with pytest.raises(ValueError, match="not a serialized span"):
            SpanRecord.from_dict({"name": "x"})


class TestCrossProcessAssembly:
    def _child_store(self, parent_ctx):
        """Simulate a child process exporting spans parented on us."""
        child = TraceStore(capacity=16)
        record = SpanRecord(
            name="child.work",
            trace_id=parent_ctx.trace_id,
            span_id="c" * 12,
            parent_id=parent_ctx.span_id,
            thread_id=1,
            start_s=0.0,
            duration_s=0.5,
            pid=99999,
        )
        child.add(record)
        return child, record

    def test_merge_payload_keeps_parent_links(self, traced):
        with span("parent.dispatch") as parent:
            ctx = current_context()
        child, child_record = self._child_store(ctx)
        added = traced.merge(child.to_payload())
        assert added == 1
        merged = {s.span_id: s for s in traced.spans()}
        assert merged[child_record.span_id].parent_id == parent.span_id
        assert merged[child_record.span_id].trace_id == parent.trace_id
        assert merged[child_record.span_id].pid == 99999

    def test_merge_is_idempotent(self, traced):
        with span("parent.dispatch"):
            ctx = current_context()
        child, _ = self._child_store(ctx)
        payload = child.to_payload()
        assert traced.merge(payload) == 1
        assert traced.merge(payload) == 0

    def test_export_spans_merge_file_round_trip(self, traced, tmp_path):
        with span("parent.dispatch"):
            ctx = current_context()
        child, child_record = self._child_store(ctx)
        path = tmp_path / "child_spans.json"
        assert child.export_spans(path) == 1
        assert traced.merge_file(path) == 1
        assert child_record.span_id in {
            s.span_id for s in traced.spans()
        }

    def test_real_child_process_joins_through_traceparent(
        self, traced, tmp_path
    ):
        path = tmp_path / "child_spans.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(_SRC), env.get("PYTHONPATH")])
        )
        with span("parent.dispatch") as parent:
            env["TRACEPARENT"] = current_context().to_traceparent()
            subprocess.run([sys.executable, "-c", _CHILD_SCRIPT, str(path)],
                           env=env, check=True, timeout=120)
        assert traced.merge_file(path) == 2
        trace = [s for s in traced.spans() if s.trace_id == parent.trace_id]
        assert len({s.pid for s in trace}) == 2
        [child] = [s for s in trace if s.name == "child.process"]
        assert child.parent_id == parent.span_id
        assert child.pid != os.getpid()

    def test_merge_rejects_bad_payload(self, traced):
        with pytest.raises(ValueError, match="spans"):
            traced.merge({"spans": "nope"})


class TestChromeExport:
    def test_events_carry_ids_and_parent_links(self, traced, tmp_path):
        with span("root"):
            with span("leaf"):
                pass
        path = tmp_path / "trace.json"
        count = traced.export_chrome(path)
        assert count == 2
        trace = json.loads(path.read_text())
        by_name = {e["name"]: e for e in trace["traceEvents"]}
        root, leaf = by_name["root"], by_name["leaf"]
        for event in (root, leaf):
            assert event["args"]["trace_id"]
            assert event["args"]["span_id"]
        assert leaf["args"]["parent_id"] == root["args"]["span_id"]
        assert "parent_id" not in root["args"]

    def test_merged_child_keeps_its_pid_lane(self, traced, tmp_path):
        with span("parent.dispatch") as parent:
            ctx = current_context()
        child_record = SpanRecord(
            name="child.work", trace_id=ctx.trace_id, span_id="c" * 12,
            parent_id=ctx.span_id, thread_id=1, start_s=0.0,
            duration_s=0.5, pid=42424,
        )
        traced.merge([child_record])
        path = tmp_path / "trace.json"
        traced.export_chrome(path)
        events = json.loads(path.read_text())["traceEvents"]
        child_events = [e for e in events if e["name"] == "child.work"]
        assert child_events[0]["pid"] == 42424
        assert child_events[0]["args"]["parent_id"] == parent.span_id
