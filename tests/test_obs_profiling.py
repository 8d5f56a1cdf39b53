"""Tests for stage timing through spans and the profile_stage hook."""

import numpy as np
import pytest

from repro.obs import MetricsRegistry, get_registry, profile_stage, span
from repro.obs.trace import disable_tracing, enable_tracing


@pytest.fixture()
def traced():
    store = enable_tracing(capacity=64)
    try:
        yield store
    finally:
        disable_tracing()
        store.clear()


class TestProfileStage:
    def test_fills_wall_and_cpu_time(self):
        registry = MetricsRegistry()
        with profile_stage("work", registry=registry) as stats:
            total = 0
            for index in range(200_000):
                total += index
        assert stats.name == "work"
        assert stats.wall_seconds > 0.0
        assert stats.cpu_seconds > 0.0
        assert stats.peak_rss_bytes is None or stats.peak_rss_bytes > 0

    def test_records_stage_histogram(self):
        registry = MetricsRegistry()
        with profile_stage("work", registry=registry):
            pass
        family = registry.get("repro_stage_seconds")
        assert family is not None
        assert family.labels(stage="work").count == 1

    def test_trace_memory_measures_allocation(self):
        registry = MetricsRegistry()
        with profile_stage("alloc", registry=registry,
                           trace_memory=True) as stats:
            buffer = np.ones(512 * 1024, dtype=np.float64)  # 4 MiB
            del buffer
        assert stats.peak_traced_bytes is not None
        assert stats.peak_traced_bytes >= 4 * 2**20

    def test_summary_mentions_stage_and_units(self):
        registry = MetricsRegistry()
        with profile_stage("named", registry=registry) as stats:
            pass
        text = stats.summary()
        assert text.startswith("named:")
        assert "ms wall" in text

    def test_exception_still_records(self):
        registry = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with profile_stage("fails", registry=registry) as stats:
                raise RuntimeError("boom")
        assert stats.wall_seconds > 0.0
        assert registry.get("repro_stage_seconds").labels(
            stage="fails").count == 1

    def test_opens_a_span(self, traced):
        registry = MetricsRegistry()
        with profile_stage("spanning", registry=registry):
            pass
        assert [s.name for s in traced.spans()] == ["spanning"]


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

        registry = MetricsRegistry()
        clock = {"t": 0.0}
        engine = SLOEngine(default_slos(registry, window_s=60.0),
                           registry=registry, clock=lambda: clock["t"])
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
