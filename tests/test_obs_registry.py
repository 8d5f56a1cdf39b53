"""Tests for the metrics registry: primitives, labels, exposition."""

import json
import sys
import threading

import pytest

from repro.obs.registry import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    bucket_quantile,
    get_registry,
    set_registry,
)


class TestCounter:
    def test_inc_and_value(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests_total", "Requests")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_negative_increment_rejected(self):
        counter = MetricsRegistry().counter("c_total")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_get_or_create_returns_same_family(self):
        registry = MetricsRegistry()
        first = registry.counter("c_total", "help")
        second = registry.counter("c_total")
        first.inc()
        assert second.value == 1

    def test_type_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("thing")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("thing")

    def test_label_schema_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("c_total", labelnames=("route",))
        with pytest.raises(ValueError, match="labels"):
            registry.counter("c_total", labelnames=("verb",))

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("bad-name")
        with pytest.raises(ValueError):
            registry.counter("ok_name", labelnames=("bad-label",))


class TestLabels:
    def test_labeled_series_are_independent(self):
        registry = MetricsRegistry()
        family = registry.counter("hits_total", labelnames=("route",))
        family.labels(route="/a").inc(2)
        family.labels(route="/b").inc(3)
        assert family.labels(route="/a").value == 2
        assert family.labels(route="/b").value == 3

    def test_positional_and_keyword_labels_agree(self):
        family = MetricsRegistry().counter("c_total", labelnames=("x",))
        family.labels("v").inc()
        assert family.labels(x="v").value == 1

    def test_wrong_label_count_rejected(self):
        family = MetricsRegistry().counter("c_total", labelnames=("x", "y"))
        with pytest.raises(ValueError):
            family.labels("only-one")
        with pytest.raises(ValueError):
            family.labels(x="a", z="b")

    def test_unlabeled_shortcut_rejected_on_labeled_family(self):
        family = MetricsRegistry().counter("c_total", labelnames=("x",))
        with pytest.raises(ValueError, match="labeled"):
            family.inc()


class TestGauge:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(10.0)
        gauge.inc(2.5)
        gauge.dec(0.5)
        assert gauge.value == pytest.approx(12.0)

    def test_scrape_time_function(self):
        gauge = MetricsRegistry().gauge("g")
        values = iter([1.0, 2.0])
        gauge.set_function(lambda: next(values))
        assert gauge.value == 1.0
        assert gauge.value == 2.0


class TestHistogram:
    def test_observe_and_cumulative_buckets(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", buckets=(1.0, 5.0))
        for value in (0.5, 0.7, 3.0, 100.0):
            hist.observe(value)
        cumulative = dict(hist.cumulative_buckets())
        assert cumulative[1.0] == 2
        assert cumulative[5.0] == 3
        assert cumulative[float("inf")] == 4
        assert hist.count == 4
        assert hist.sum == pytest.approx(104.2)

    def test_default_buckets_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)

    def test_bucket_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("h", buckets=(1.0,))
        with pytest.raises(ValueError, match="buckets"):
            registry.histogram("h", buckets=(2.0,))


class TestHistogramQuantile:
    def test_percentiles_interpolate_inside_buckets(self):
        registry = MetricsRegistry()
        hist = registry.histogram(
            "h", buckets=(0.010, 0.020, 0.030, 0.040, 0.050)).labels()
        for value in (0.010, 0.020, 0.030, 0.040, 0.050):
            hist.observe(value)
        buckets = hist.cumulative_buckets()
        assert bucket_quantile(0.2, buckets) == pytest.approx(0.010)
        assert bucket_quantile(0.5, buckets) == pytest.approx(0.025)
        assert bucket_quantile(1.0, buckets) == pytest.approx(0.050)

    def test_empty_histogram_has_no_quantile(self):
        hist = MetricsRegistry().histogram("h").labels()
        assert bucket_quantile(0.95, hist.cumulative_buckets()) is None

    def test_overflow_bucket_clamps_to_highest_bound(self):
        hist = MetricsRegistry().histogram("h", buckets=(1.0, 2.0)).labels()
        hist.observe(50.0)
        assert bucket_quantile(0.99, hist.cumulative_buckets()) == 2.0


class TestPrometheusText:
    def test_counter_format(self):
        registry = MetricsRegistry()
        registry.counter("requests_total", "Total requests").inc(7)
        text = registry.prometheus_text()
        assert "# HELP requests_total Total requests\n" in text
        assert "# TYPE requests_total counter\n" in text
        assert "\nrequests_total 7\n" in text

    def test_labeled_series_sorted_and_quoted(self):
        registry = MetricsRegistry()
        family = registry.counter("hits_total", labelnames=("route",))
        family.labels(route="/b").inc()
        family.labels(route="/a").inc(2)
        text = registry.prometheus_text()
        assert text.index('hits_total{route="/a"} 2') < text.index(
            'hits_total{route="/b"} 1'
        )

    def test_label_value_escaping(self):
        registry = MetricsRegistry()
        family = registry.gauge("g", labelnames=("name",))
        family.labels(name='say "hi"\nback\\slash').set(1)
        text = registry.prometheus_text()
        assert r'name="say \"hi\"\nback\\slash"' in text

    def test_histogram_renders_inf_sum_count(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat_seconds", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(5.0)
        text = registry.prometheus_text()
        assert 'lat_seconds_bucket{le="0.1"} 1' in text
        assert 'lat_seconds_bucket{le="1"} 1' in text
        assert 'lat_seconds_bucket{le="+Inf"} 2' in text
        assert "lat_seconds_sum 5.05" in text
        assert "lat_seconds_count 2" in text

    def test_every_series_line_parses(self):
        """Each non-comment line is `name{labels} value` with float value."""
        registry = MetricsRegistry()
        registry.counter("a_total").inc()
        registry.gauge("b", labelnames=("x",)).labels(x="1").set(2.5)
        registry.histogram("c", buckets=(1.0,)).observe(0.5)
        for line in registry.prometheus_text().splitlines():
            if not line or line.startswith("#"):
                continue
            name_part, value_part = line.rsplit(" ", 1)
            assert name_part
            float(value_part)  # must parse

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().prometheus_text() == ""


class TestExemplars:
    def _hist(self, buckets=(0.1, 1.0)):
        return MetricsRegistry().histogram("lat_seconds", buckets=buckets)

    def test_observe_without_exemplar_retains_nothing(self):
        hist = self._hist()
        hist.observe(0.05)
        assert hist.exemplars() == []

    def test_latest_exemplar_per_bucket(self):
        hist = self._hist()
        hist.observe(0.04, exemplar="aaa")
        hist.observe(0.06, exemplar="bbb")  # same bucket: replaces aaa
        hist.observe(0.5, exemplar="ccc")
        retained = hist.exemplars()
        assert [(e.trace_id, e.value) for e in retained] == [
            ("bbb", 0.06), ("ccc", 0.5),
        ]
        assert [e.bucket_le for e in retained] == [0.1, 1.0]

    def test_overflow_bucket_le_is_inf(self):
        hist = self._hist()
        hist.observe(30.0, exemplar="slow")
        [exemplar] = hist.exemplars()
        assert exemplar.bucket_le == float("inf")

    def test_worst_exemplars_walks_highest_bucket_first(self):
        hist = self._hist()
        hist.observe(0.05, exemplar="fast")
        hist.observe(0.5, exemplar="mid")
        hist.observe(30.0, exemplar="slow")
        worst = hist.worst_exemplars(2)
        assert [e.trace_id for e in worst] == ["slow", "mid"]
        assert hist.worst_exemplars(0) == []
        assert [e.trace_id for e in hist.worst_exemplars(10)] == [
            "slow", "mid", "fast",
        ]

    def test_prometheus_text_exemplar_suffix(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat_seconds", buckets=(0.1, 1.0))
        hist.observe(0.05, exemplar="deadbeef0001")
        hist.observe(0.05)  # bare observation keeps the exemplar
        text = registry.prometheus_text()
        assert (
            'lat_seconds_bucket{le="0.1"} 2 '
            '# {trace_id="deadbeef0001"} 0.05'
        ) in text
        # Buckets without a retained exemplar render the classic line.
        assert 'lat_seconds_bucket{le="1"} 2\n' in text
        assert 'lat_seconds_bucket{le="+Inf"} 2\n' in text

    def test_to_dict_exemplars_list(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat_seconds", buckets=(0.1,))
        hist.observe(7.0, exemplar="cafe")
        snapshot = json.loads(json.dumps(registry.to_dict()))
        assert snapshot["lat_seconds"]["series"][0]["exemplars"] == [
            {"bucket": "+Inf", "value": 7.0, "trace_id": "cafe"}
        ]

    def test_labeled_series_keep_separate_exemplars(self):
        registry = MetricsRegistry()
        family = registry.histogram(
            "lat_seconds", buckets=(1.0,), labelnames=("route",)
        )
        family.labels(route="/a").observe(0.5, exemplar="aaa")
        family.labels(route="/b").observe(0.5, exemplar="bbb")
        by_route = {
            labels: [e.trace_id for e in child.exemplars()]
            for labels, child in family.series()
        }
        assert by_route == {("/a",): ["aaa"], ("/b",): ["bbb"]}


class TestJsonExposition:
    def test_to_dict_round_trips_through_json(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "help").inc(3)
        registry.histogram("h", buckets=(1.0,)).observe(0.5)
        snapshot = json.loads(json.dumps(registry.to_dict()))
        assert snapshot["c_total"]["type"] == "counter"
        assert snapshot["c_total"]["series"][0]["value"] == 3
        assert snapshot["h"]["series"][0]["count"] == 1
        assert snapshot["h"]["series"][0]["buckets"]["+Inf"] == 1


class TestRegistryLifecycle:
    def test_unregister_and_reset(self):
        registry = MetricsRegistry()
        registry.counter("a_total")
        registry.counter("b_total")
        registry.unregister("a_total")
        assert registry.get("a_total") is None
        registry.reset()
        assert registry.families() == []

    def test_stage_child_cached_until_reset_or_unregister(self):
        registry = MetricsRegistry()
        child = registry.stage("s")
        assert registry.stage("s") is child
        registry.reset()
        fresh = registry.stage("s")
        assert fresh is not child
        registry.unregister("repro_stage_seconds")
        assert registry.stage("s") is not fresh
        registry.stage("s").observe(0.1)
        assert registry.get("repro_stage_seconds").labels(
            stage="s").count == 1

    def test_unlabeled_shortcut_binds_one_child(self):
        registry = MetricsRegistry()
        family = registry.counter("c_total")
        family.inc()
        family.labels().inc()
        assert family.value == 2
        assert len(family.series()) == 1

    def test_default_registry_swap(self):
        fresh = MetricsRegistry()
        previous = set_registry(fresh)
        try:
            assert get_registry() is fresh
        finally:
            set_registry(previous)


class TestThreadSafety:
    def test_concurrent_increments_do_not_lose_updates(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total")
        hist = registry.histogram("h", buckets=(0.5,))
        n_threads, n_iter = 8, 2000

        def worker(index):
            for step in range(n_iter):
                counter.inc()
                hist.observe(0.1)
                # First use of each stage races across threads.
                registry.stage(f"s{step % 50}").observe(0.1)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(previous)
        assert counter.value == n_threads * n_iter
        assert hist.count == n_threads * n_iter
        stages = registry.get("repro_stage_seconds")
        assert sum(child.count for _, child in stages.series()) == (
            n_threads * n_iter)
