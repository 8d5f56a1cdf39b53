"""Metrics TSDB: the window rule, scrape ingestion, the mini
query language behind ``GET /query``, and the one history a serve node
records per scrape."""

import collections
import gc
import math
import threading
import tracemalloc
import urllib.request

import pytest

from repro.obs.alerts import AlertManager, default_rules
from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.slo import SLOEngine, default_slos
from repro.obs.tsdb import MetricsTSDB, QueryError, SeriesRing, sparkline
from repro.serve import ProfileService, ServeMetrics, make_server
from tests.conftest import build_frozen_profile, tsdb_history


class FakeClock:
    def __init__(self, t=100.0):
        self.t = t

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt
        return self.t


class TestSeriesRing:
    """The window rule each query reads a series' ring by."""

    @staticmethod
    def gauge_history(samples, capacity=64):
        """A TSDB whose gauge ``demo`` recorded ``(t, value)`` samples."""
        registry = MetricsRegistry()
        tsdb = MetricsTSDB(registry, capacity=capacity)
        gauge = registry.gauge("demo", "demo")
        for t, value in samples:
            gauge.set(value)
            tsdb.record(now=t)
        return tsdb

    @staticmethod
    def window(tsdb, range_s, now):
        """The ``delta`` query's samples, anchor to end."""
        result = tsdb.query(f"delta(demo[{range_s}s])", now=now)
        return [tuple(sample) for sample in result["series"][0]["samples"]]

    def test_capacity_floor(self):
        with pytest.raises(ValueError, match="capacity"):
            SeriesRing(capacity=1)

    def test_append_evicts_oldest(self):
        tsdb = self.gauge_history(
            [(float(i), float(i * 10)) for i in range(5)], capacity=3
        )
        [(_, ring)] = tsdb.select("demo")
        assert len(ring) == 3
        assert tsdb_history(tsdb, "demo") == [
            (2.0, 20.0), (3.0, 30.0), (4.0, 40.0),
        ]

    def test_latest_and_empty(self):
        registry = MetricsRegistry()
        tsdb = MetricsTSDB(registry)
        assert tsdb.latest("demo") is None
        assert tsdb.select("demo") == []
        assert tsdb.delta("demo", 10.0) is None
        registry.gauge("demo", "demo").set(7.0)
        tsdb.record(now=1.0)
        assert tsdb.latest("demo") == 7.0
        assert tsdb_history(tsdb, "demo") == [(1.0, 7.0)]

    def test_bounds_anchor_and_end(self):
        tsdb = self.gauge_history([(t, t) for t in (0.0, 10.0, 20.0, 30.0)])
        samples = self.window(tsdb, 15.0, now=30.0)
        # latest sample at or before now - 15 = 15 → (10.0, 10.0)
        assert samples[0] == (10.0, 10.0)
        assert samples[-1] == (30.0, 30.0)

    def test_bounds_short_history_uses_oldest(self):
        tsdb = self.gauge_history([(20.0, 5.0), (25.0, 8.0)])
        samples = self.window(tsdb, 100.0, now=25.0)
        assert samples[0] == (20.0, 5.0)
        assert samples[-1] == (25.0, 8.0)

    def test_bounds_everything_in_future(self):
        tsdb = self.gauge_history([(50.0, 1.0)])
        assert tsdb.delta("demo", 10.0, now=40.0) is None
        assert tsdb.query("delta(demo[10s])", now=40.0)["series"] == []

    def test_delta(self):
        tsdb = self.gauge_history([(0.0, 100.0), (30.0, 130.0)])
        assert tsdb.delta("demo", 60.0, now=30.0) == 30.0
        assert MetricsTSDB(MetricsRegistry()).delta("demo", 60.0) is None

    def test_increase_monotonic(self):
        registry = MetricsRegistry()
        tsdb = MetricsTSDB(registry)
        counter = registry.counter("demo_total", "demo")
        for t, amount in [(0.0, 0.0), (10.0, 4.0), (20.0, 5.0)]:
            counter.inc(amount)
            tsdb.record(now=t)
        assert tsdb.delta("demo_total", 60.0, now=20.0) == 9.0
        assert tsdb.rate("demo_total", 60.0, now=20.0) == 9.0 / 20.0

    def test_increase_needs_two_samples(self):
        registry = MetricsRegistry()
        tsdb = MetricsTSDB(registry)
        registry.counter("demo_total", "demo").inc(3)
        tsdb.record(now=0.0)
        assert tsdb.rate("demo_total", 60.0, now=0.0) is None
        assert tsdb.delta("demo_total", 60.0, now=0.0) == 0.0


@pytest.fixture()
def rig():
    registry = MetricsRegistry()
    clock = FakeClock()
    tsdb = MetricsTSDB(registry, capacity=64, min_interval_s=0.25,
                       clock=clock)
    return registry, clock, tsdb


class TestIngestion:
    def test_record_snapshots_counters_and_gauges(self, rig):
        registry, clock, tsdb = rig
        requests = registry.counter("demo_requests_total", "demo")
        depth = registry.gauge("demo_depth", "demo")
        requests.inc(3)
        depth.set(7.0)
        touched = tsdb.record()
        assert touched == 2
        assert tsdb.latest("demo_requests_total") == 3.0
        assert tsdb.latest("demo_depth") == 7.0

    def test_min_interval_coalesces_scrape_storms(self, rig):
        registry, clock, tsdb = rig
        registry.counter("demo_total", "demo").inc()
        assert tsdb.record() > 0
        clock.advance(0.1)  # within min_interval_s=0.25
        assert tsdb.record() == 0
        clock.advance(0.2)
        assert tsdb.record() > 0

    def test_explicit_now_bypasses_limiter(self, rig):
        registry, _, tsdb = rig
        registry.counter("demo_total", "demo").inc()
        assert tsdb.record(now=1.0) > 0
        assert tsdb.record(now=1.01) > 0

    def test_histograms_fan_out(self, rig):
        registry, _, tsdb = rig
        hist = registry.histogram("demo_seconds", "demo",
                                  buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        tsdb.record(now=1.0)
        names = tsdb.series_names()
        assert "demo_seconds_count" in names
        assert "demo_seconds_sum" in names
        assert "demo_seconds_bucket" in names
        buckets = tsdb.select("demo_seconds_bucket")
        les = sorted(labels["le"] for labels, _ in buckets)
        assert les == ["+Inf", "0.1", "1"]

    def test_labeled_series_kept_apart(self, rig):
        registry, _, tsdb = rig
        family = registry.counter("demo_by_service_total", "demo",
                                  labelnames=("service",))
        family.labels("video").inc(10)
        family.labels("web").inc(2)
        tsdb.record(now=1.0)
        assert tsdb.latest("demo_by_service_total",
                           labels={"service": "video"}) == 10.0
        # Unfiltered latest sums across label sets.
        assert tsdb.latest("demo_by_service_total") == 12.0


class TestOrdering:
    def test_explicit_out_of_order_record_rejected(self, rig):
        registry, _, tsdb = rig
        counter = registry.counter("demo_total", "demo")
        counter.inc()
        tsdb.record(now=10.0)
        counter.inc()
        with pytest.raises(ValueError, match="precedes"):
            tsdb.record(now=5.0)
        assert tsdb.records == 1
        assert tsdb.latest("demo_total") == 1.0

    def test_backwards_implicit_clock_coalesces(self, rig):
        registry, clock, tsdb = rig
        registry.counter("demo_total", "demo").inc()
        tsdb.record(now=clock.t + 10.0)
        assert tsdb.record() == 0  # the clock reads behind the record
        assert tsdb.last_record == clock.t + 10.0

    def test_series_first_seen_starts_at_zero_at_previous_record(self, rig):
        registry, _, tsdb = rig
        registry.gauge("demo_depth", "demo").set(1.0)
        tsdb.record(now=0.0)
        registry.counter("demo_total", "demo").inc(4)
        registry.histogram("demo_seconds", "demo", buckets=(1.0,)).observe(
            0.5
        )
        registry.gauge("demo_late", "demo").set(3.0)
        tsdb.record(now=10.0)
        assert tsdb_history(tsdb, "demo_total") == [(0.0, 0.0), (10.0, 4.0)]
        assert tsdb.delta("demo_seconds_count", 60.0, now=10.0) == 1.0
        assert tsdb.delta("demo_seconds_bucket", 60.0,
                          labels={"le": "1"}, now=10.0) == 1.0
        assert tsdb.rate("demo_total", 60.0, now=10.0) == pytest.approx(0.4)
        # A gauge is a level, not a count: no zero is made up for it.
        assert tsdb_history(tsdb, "demo_late") == [(10.0, 3.0)]

    def test_retain_deepens_matching_series_only(self, rig):
        registry, _, tsdb = rig
        family = registry.counter("demo_total", "demo",
                                  labelnames=("kind",))
        for t in range(3):
            family.labels(kind="a").inc()
            family.labels(kind="b").inc()
            tsdb.record(now=float(t))
        tsdb.retain("demo_total", {"kind": "a"}, 100)
        depth = {
            labels["kind"]: ring.capacity
            for labels, ring in tsdb.select("demo_total")
        }
        assert depth == {"a": 100, "b": 64}


class TestQueries:
    def _fill_counter(self, rig, name="demo_total", per_tick=5.0,
                      ticks=6, dt=10.0):
        registry, _, tsdb = rig
        counter = registry.counter(name, "demo")
        for i in range(ticks):
            counter.inc(per_tick)
            tsdb.record(now=float(i) * dt)
        return tsdb

    def test_rate_matches_hand_computed_delta(self, rig):
        tsdb = self._fill_counter(rig)
        # 5/tick over 10 s ticks → exactly 0.5/s, hand-checkable.
        assert tsdb.rate("demo_total", 60.0, now=50.0) == pytest.approx(0.5)

    def test_rate_none_with_single_sample(self, rig):
        registry, _, tsdb = rig
        registry.counter("demo_total", "demo").inc()
        tsdb.record(now=0.0)
        assert tsdb.rate("demo_total", 60.0, now=0.0) is None

    def test_delta_of_gauge(self, rig):
        registry, _, tsdb = rig
        gauge = registry.gauge("demo_depth", "demo")
        gauge.set(2.0)
        tsdb.record(now=0.0)
        gauge.set(9.0)
        tsdb.record(now=30.0)
        assert tsdb.delta("demo_depth", 60.0, now=30.0) == 7.0

    def test_quantile_over_time_windows_out_old_observations(self, rig):
        registry, _, tsdb = rig
        hist = registry.histogram("demo_seconds", "demo",
                                  buckets=(0.1, 1.0, 10.0))
        # Old slow observations, then a recent fast regime.
        for _ in range(100):
            hist.observe(5.0)
        tsdb.record(now=0.0)
        for _ in range(100):
            hist.observe(0.05)
        tsdb.record(now=100.0)
        # Window covering only the second batch sees the fast regime.
        q = tsdb.quantile_over_time(0.5, "demo_seconds", 60.0, now=100.0)
        assert q is not None and q <= 0.1
        # Bad quantile rejected.
        with pytest.raises(QueryError, match="quantile"):
            tsdb.quantile_over_time(1.5, "demo_seconds", 60.0)

    def test_query_latest_form(self, rig):
        registry, _, tsdb = rig
        registry.gauge("demo_depth", "demo").set(4.0)
        tsdb.record(now=0.0)
        result = tsdb.query("demo_depth")
        assert result["fn"] == "latest"
        assert result["value"] == 4.0
        assert result["series"][0]["samples"] == [[0.0, 4.0]]

    def test_query_rate_value_recomputable_from_samples(self, rig):
        tsdb = self._fill_counter(rig)
        result = tsdb.query("rate(demo_total[60s])", now=50.0)
        samples = result["series"][0]["samples"]
        increase = sum(
            max(0.0, v1 - v0)
            for (_, v0), (_, v1) in zip(samples, samples[1:])
        )
        elapsed = samples[-1][0] - samples[0][0]
        assert result["value"] == pytest.approx(increase / elapsed)

    def test_rate_anchors_like_delta(self, rig):
        registry, _, tsdb = rig
        counter = registry.counter("demo_total", "demo")
        for t, amount in [(0.0, 1.0), (10.0, 2.0), (20.0, 7.0), (30.0, 1.0)]:
            counter.inc(amount)
            tsdb.record(now=t)
        # A 15 s window at t=30 anchors on the t=10 sample (3.0), not on
        # the first sample inside the window (t=20, 10.0).
        assert tsdb.delta("demo_total", 15.0, now=30.0) == 8.0
        assert tsdb.rate("demo_total", 15.0, now=30.0) == 8.0 / 20.0

    def test_query_rate_is_end_minus_anchor_over_its_samples(self, rig):
        registry, _, tsdb = rig
        counter = registry.counter("demo_total", "demo")
        for t, amount in [(0.0, 1.0), (10.0, 2.0), (20.0, 7.0), (30.0, 1.0)]:
            counter.inc(amount)
            tsdb.record(now=t)
        result = tsdb.query("rate(demo_total[15s])", now=30.0)
        [series] = result["series"]
        (t_first, first), (t_last, last) = (
            series["samples"][0], series["samples"][-1]
        )
        assert (t_first, t_last) == (10.0, 30.0)
        assert result["value"] == (last - first) / (t_last - t_first)

    def test_query_label_selector(self, rig):
        registry, _, tsdb = rig
        family = registry.counter("demo_by_service_total", "demo",
                                  labelnames=("service",))
        family.labels("video").inc(8)
        family.labels("web").inc(1)
        tsdb.record(now=0.0)
        result = tsdb.query("demo_by_service_total{service=video}")
        assert result["value"] == 8.0
        assert result["labels"] == {"service": "video"}

    def test_query_range_param_overrides(self, rig):
        tsdb = self._fill_counter(rig)
        result = tsdb.query("rate(demo_total[5s])", range_s=60.0, now=50.0)
        assert result["range_s"] == 60.0

    @pytest.mark.parametrize("expr,fragment", [
        ("", "empty expression"),
        ("rate(demo_total)", "needs a range"),
        ("rate(demo total[60s])", "malformed selector"),
        ("quantile(demo_seconds[60s])", "two arguments"),
        ("quantile(nope, demo_seconds[60s])", "invalid quantile"),
        ("quantile(2.0, demo_seconds[60s])", "in \\[0, 1\\]"),
        ("demo_total{oops}", "malformed label matcher"),
    ])
    def test_query_parse_errors(self, rig, expr, fragment):
        _, _, tsdb = rig
        with pytest.raises(QueryError, match=fragment):
            tsdb.query(expr)

    def test_query_unknown_series_lists_recorded(self, rig):
        registry, _, tsdb = rig
        registry.gauge("demo_depth", "demo").set(1.0)
        tsdb.record(now=0.0)
        with pytest.raises(QueryError, match="demo_depth"):
            tsdb.query("no_such_series")


class TestSparkline:
    def test_ramp_uses_full_glyph_range(self):
        line = sparkline([0.0, 1.0, 2.0, 3.0])
        assert line[0] == "▁"
        assert line[-1] == "█"
        assert len(line) == 4

    def test_flat_series_paints_mid_glyph(self):
        assert sparkline([5.0, 5.0, 5.0]) == "▄▄▄"

    def test_nan_renders_as_space(self):
        line = sparkline([0.0, math.nan, 1.0])
        assert line[1] == " "

    def test_all_nan_or_empty(self):
        assert sparkline([]) == ""
        assert sparkline([math.nan, math.nan]) == ""

    def test_width_keeps_newest(self):
        line = sparkline(list(range(100)), width=8)
        assert len(line) == 8


@pytest.fixture()
def serve_history():
    """A serve node's registry with its SLO engine, alerts and history."""
    registry = MetricsRegistry()
    frozen, _ = build_frozen_profile()
    service = ProfileService(
        frozen, n_workers=1, metrics=ServeMetrics(registry=registry)
    )
    try:
        service.classify(frozen.features[:4], timeout=30.0)
        clock = FakeClock()
        engine = SLOEngine(default_slos(), MetricsTSDB(registry, clock=clock))
        manager = AlertManager(
            engine, default_rules(engine), registry=registry, clock=clock
        )
        yield service, engine, manager, clock
    finally:
        service.close()


class TestOneHistory:
    def test_metrics_scrape_reads_each_series_once(
        self, serve_history, monkeypatch
    ):
        service, engine, manager, clock = serve_history
        engine.tick()
        manager.evaluate()
        clock.advance(15.0)
        series = {
            id(child): f"{family.name}{labels}"
            for family in engine.registry.families()
            for labels, child in family.series()
        }
        # Every read counts, also one a scrape-time gauge function makes
        # to compute its value; only the exposition's own reads do not.
        reads = collections.Counter()
        inside = threading.local()

        def counted(read):
            def wrapper(child, *args):
                if not getattr(inside, "depth", 0):
                    reads[id(child)] += 1
                return read(child, *args)
            return wrapper

        for cls, name in ((Counter, "value"), (Gauge, "value"),
                          (Histogram, "count"), (Histogram, "sum")):
            monkeypatch.setattr(
                cls, name, property(counted(getattr(cls, name).fget))
            )
        monkeypatch.setattr(
            Histogram, "snapshot", counted(Histogram.snapshot)
        )
        expose = MetricsRegistry.prometheus_text

        def exposition(registry):
            inside.depth = getattr(inside, "depth", 0) + 1
            try:
                return expose(registry)
            finally:
                inside.depth -= 1

        monkeypatch.setattr(MetricsRegistry, "prometheus_text", exposition)
        server = make_server(service, port=0, slo_engine=engine,
                             alert_manager=manager)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        try:
            with urllib.request.urlopen(
                f"http://{host}:{port}/metrics", timeout=10.0
            ) as response:
                assert response.status == 200
        finally:
            server.shutdown()
            server.server_close()
            thread.join(5.0)
        # Every series that existed before the scrape is read once; the
        # ones the scrape itself creates are read by the next record.
        assert {
            series[key]: reads[key] for key in series if reads[key] != 1
        } == {}

    def test_server_serves_the_engine_history(self, serve_history):
        service, engine, _, _ = serve_history
        server = make_server(service, port=0, slo_engine=engine)
        try:
            assert server.tsdb is engine.tsdb
        finally:
            server.server_close()
        with pytest.raises(ValueError, match="SLO engine's own history"):
            make_server(service, port=0, slo_engine=engine,
                        tsdb=MetricsTSDB(engine.registry))

    def test_full_depth_history_fits_in_15_mb(self, serve_history):
        _, engine, manager, clock = serve_history
        engine.tick()
        manager.evaluate()
        clock.advance(15.0)
        engine.tick()
        tsdb = engine.tsdb
        rings = [
            ring for name in tsdb.series_names()
            for _, ring in tsdb.select(name)
        ]
        depths = collections.Counter(ring.capacity for ring in rings)
        # Only the series the SLOs read keep the engine's depth.
        assert depths[engine.max_samples] <= 12
        assert set(depths) == {tsdb.capacity, engine.max_samples}
        # Every record shares one time object across its series.
        times = [float(t) for t in range(engine.max_samples)]
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for ring in rings:
                for index in range(len(ring), ring.capacity):
                    ring.append(times[index], index + 0.5)
            gc.collect()
            footprint = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert all(len(ring) == ring.capacity for ring in rings)
        assert footprint <= 15e6, footprint
