"""Tests for tracing: nesting, exception safety, ring buffer, export, stage timing."""

import json
import threading

import numpy as np
import pytest

from repro.obs.registry import MetricsRegistry, get_registry
from repro.obs.trace import (
    TraceStore,
    current_span,
    current_span_id,
    current_trace_id,
    disable_tracing,
    enable_tracing,
    get_trace_store,
    span,
    tracing_enabled,
)


@pytest.fixture()
def traced():
    """Enable tracing with a fresh store; always disable afterwards."""
    store = enable_tracing(capacity=256)
    try:
        yield store
    finally:
        disable_tracing()
        store.clear()


class TestSpanBasics:
    def test_disabled_span_is_noop(self):
        disable_tracing()
        before = len(get_trace_store())
        with span("nothing") as record:
            assert record is None
        assert len(get_trace_store()) == before
        assert not tracing_enabled()

    def test_span_records_name_duration_attributes(self, traced):
        with span("stage.one", rows=7):
            pass
        [record] = traced.spans()
        assert record.name == "stage.one"
        assert record.attributes == {"rows": 7}
        assert record.duration_s >= 0.0
        assert record.error is False

    def test_nesting_builds_parent_links(self, traced):
        with span("root") as root:
            with span("child") as child:
                with span("grandchild") as grandchild:
                    assert grandchild.parent_id == child.span_id
                assert current_span() is child
            assert child.parent_id == root.span_id
        assert root.parent_id is None
        # All three share one trace id.
        trace_ids = {s.trace_id for s in traced.spans()}
        assert trace_ids == {root.trace_id}

    def test_siblings_get_distinct_span_ids(self, traced):
        with span("root"):
            with span("a") as a:
                pass
            with span("b") as b:
                pass
        assert a.span_id != b.span_id
        assert a.parent_id == b.parent_id

    def test_correlation_helpers(self, traced):
        assert current_trace_id() is None
        assert current_span_id() is None
        with span("outer") as outer:
            assert current_trace_id() == outer.trace_id
            assert current_span_id() == outer.span_id
        assert current_trace_id() is None


class TestExceptionSafety:
    def test_raising_span_still_closes_with_error_attribute(self, traced):
        with pytest.raises(ValueError, match="boom"):
            with span("fails"):
                raise ValueError("boom")
        [record] = traced.spans()
        assert record.error is True
        assert record.attributes["error"] is True
        assert record.attributes["error_type"] == "ValueError"
        assert record.duration_s >= 0.0
        # The stack unwound: a new span is a root again.
        with span("after") as after:
            assert after.parent_id is None

    def test_exception_in_nested_span_unwinds_both(self, traced):
        with pytest.raises(RuntimeError):
            with span("outer"):
                with span("inner"):
                    raise RuntimeError("nested boom")
        by_name = {s.name: s for s in traced.spans()}
        assert by_name["inner"].error is True
        assert by_name["outer"].error is True
        assert current_span() is None


class TestTraceStore:
    def test_ring_buffer_drops_oldest(self):
        store = TraceStore(capacity=3)
        enable_tracing()
        try:
            old_store = get_trace_store()
            for index in range(5):
                with span(f"s{index}"):
                    pass
            # Use a private store directly to test the ring semantics.
            for index in range(5):
                record = old_store.spans()[-1]
                store.add(record)
        finally:
            disable_tracing()
            old_store.clear()
        assert len(store) == 3

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            TraceStore(capacity=0)

    def test_enable_with_capacity_replaces_store(self):
        first = enable_tracing(capacity=16)
        second = enable_tracing(capacity=16)
        try:
            assert second is get_trace_store()
            assert second is not first
        finally:
            disable_tracing()
            second.clear()

    def test_clear_empties_store(self, traced):
        with span("x"):
            pass
        assert len(traced) == 1
        traced.clear()
        assert traced.spans() == []


class TestChromeExport:
    def test_export_is_chrome_loadable_json(self, traced, tmp_path):
        with span("root", rows=3):
            with span("child"):
                pass
        path = tmp_path / "trace.json"
        n_events = traced.export_chrome(path)
        assert n_events == 2
        trace = json.loads(path.read_text())
        assert trace["displayTimeUnit"] == "ms"
        events = trace["traceEvents"]
        assert len(events) == 2
        for event in events:
            assert event["ph"] == "X"
            assert set(event) >= {"name", "ts", "dur", "pid", "tid", "args"}
            assert event["ts"] >= 0.0
            assert event["dur"] >= 0.0
        child = next(e for e in events if e["name"] == "child")
        root = next(e for e in events if e["name"] == "root")
        assert child["args"]["parent_id"] == root["args"]["span_id"]
        assert root["args"]["rows"] == 3

    def test_error_span_exported_with_error_category(self, traced, tmp_path):
        with pytest.raises(ValueError):
            with span("bad"):
                raise ValueError("x")
        event = traced.to_chrome()["traceEvents"][0]
        assert "error" in event["cat"]
        assert event["args"]["error_type"] == "ValueError"


class TestThreading:
    def test_spans_on_different_threads_are_independent_roots(self, traced):
        results = {}

        def worker(key):
            with span(f"thread.{key}") as record:
                results[key] = record

        threads = [
            threading.Thread(target=worker, args=(k,)) for k in ("a", "b")
        ]
        with span("main.root"):
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        # Worker spans never see the main thread's stack.
        assert results["a"].parent_id is None
        assert results["b"].parent_id is None
        assert results["a"].trace_id != results["b"].trace_id


class TestTimedStage:
    """Every span times its stage into ``repro_stage_seconds``."""

    def test_records_histogram_and_span(self, traced):
        registry = MetricsRegistry()
        with span("stage.x", registry=registry, rows=5):
            pass
        assert registry.get("repro_stage_seconds").labels(
            stage="stage.x").count == 1
        [record] = traced.spans()
        assert record.name == "stage.x"
        assert record.attributes["rows"] == 5

    def test_works_with_tracing_disabled(self):
        registry = MetricsRegistry()
        with span("quiet", registry=registry):
            pass
        assert registry.get("repro_stage_seconds").labels(
            stage="quiet").count == 1

    def test_default_registry_when_none_given(self):
        before = get_registry().stage("default.target").count
        with span("default.target"):
            pass
        assert get_registry().stage("default.target").count == before + 1

    def test_exception_propagates_and_still_observes(self, traced):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            with span("bad", registry=registry):
                raise ValueError("x")
        assert registry.get("repro_stage_seconds").labels(
            stage="bad").count == 1
        [record] = traced.spans()
        assert record.error is True

    def test_retains_exemplars_with_slo_engine_attached(self, traced):
        from repro.obs.alerts import AlertManager, default_rules
        from repro.obs.slo import SLOEngine, default_slos
        from repro.obs.tsdb import MetricsTSDB

        registry = MetricsRegistry()
        clock = {"t": 0.0}
        engine = SLOEngine(default_slos(window_s=60.0),
                           MetricsTSDB(registry, clock=lambda: clock["t"]))
        manager = AlertManager(engine, default_rules(engine),
                               registry=registry, clock=lambda: clock["t"])
        for _ in range(3):
            with span("serve.vote", registry=registry, rows=4):
                pass
            clock["t"] += 1.0
            engine.tick()
            manager.evaluate()
        family = registry.get("repro_stage_seconds")
        exemplars = [e for _, child in family.series()
                     for e in child.exemplars()]
        assert exemplars
        assert {e.trace_id for e in exemplars} <= {
            s.trace_id for s in traced.spans()
        }
        assert engine.n_samples("serve-availability") == 3


class TestPipelineIntegration:
    def test_pipeline_fit_emits_stage_spans(self, traced):
        from repro.core.pipeline import ICNProfiler

        rng = np.random.default_rng(0)
        totals = rng.lognormal(0.0, 1.0, size=(60, 8))
        profiler = ICNProfiler(n_clusters=3, surrogate_trees=5)
        profile = profiler.fit(totals)
        profile.explain(samples_per_cluster=3)
        names = {s.name for s in traced.spans()}
        assert {"pipeline.rca", "pipeline.cluster", "pipeline.surrogate",
                "pipeline.shap"} <= names

    def test_streaming_profiler_emits_spans(self, traced):
        from repro.stream import StreamingProfiler, replay_tensor
        from tests.conftest import build_frozen_profile

        frozen, totals = build_frozen_profile(n_antennas=40, n_services=6,
                                              n_clusters=3)
        tensor = np.repeat(totals[:, :, None] / 4.0, 4, axis=2)
        hours = np.arange(
            np.datetime64("2023-01-16T00", "h"),
            np.datetime64("2023-01-16T04", "h"),
        )
        streamer = StreamingProfiler(frozen, window_hours=4)
        for batch in replay_tensor(tensor, hours, frozen.antenna_ids,
                                   frozen.service_names):
            streamer.ingest(batch)
        names = {s.name for s in traced.spans()}
        assert {"stream.ingest", "stream.classify"} <= names
