"""Tests for the serving-side metrics: counters, histograms, export."""

import json

import pytest

from repro.serve.metrics import ServeMetrics


class TestServeMetrics:
    def test_counters_and_requests(self):
        metrics = ServeMetrics()
        metrics.observe_request(0.001, n_vectors=3)
        metrics.observe_request(0.002, n_vectors=1)
        metrics.incr("cache_hits", 2)
        metrics.incr("cache_misses", 2)
        assert metrics.count("requests") == 2
        assert metrics.count("vectors_classified") == 4
        assert metrics.cache_hit_rate() == pytest.approx(0.5)

    def test_unknown_counter_rejected(self):
        with pytest.raises(KeyError):
            ServeMetrics().incr("nope")

    def test_cache_hit_rate_none_before_lookups(self):
        assert ServeMetrics().cache_hit_rate() is None

    def test_batch_histogram_and_mean(self):
        metrics = ServeMetrics()
        metrics.observe_batch(4)
        metrics.observe_batch(4)
        metrics.observe_batch(16)
        assert metrics.batch_size_histogram() == {4: 2, 16: 1}
        assert metrics.mean_batch_size() == pytest.approx(8.0)

    def test_qps_zero_until_two_requests(self):
        metrics = ServeMetrics()
        assert metrics.qps() == 0.0
        metrics.observe_request(0.001)
        assert metrics.qps() == 0.0

    def test_to_dict_is_json_serializable(self):
        metrics = ServeMetrics()
        metrics.observe_request(0.001, n_vectors=2)
        metrics.observe_batch(2)
        snapshot = metrics.to_dict()
        text = json.dumps(snapshot)
        assert "counters" in snapshot and "derived" in snapshot
        assert snapshot["counters"]["requests"] == 1
        assert snapshot["batch_size_histogram"] == {"2": 1}
        # Interpolated inside the (0.5 ms, 1 ms] latency bucket.
        assert json.loads(text)["derived"]["p50_ms"] == pytest.approx(0.75)

    def test_to_dict_snapshot_ts_is_monotonic(self):
        metrics = ServeMetrics()
        first = metrics.to_dict()["snapshot_ts"]
        second = metrics.to_dict()["snapshot_ts"]
        assert isinstance(first, float)
        assert second >= first

    def test_summary_mentions_key_lines(self):
        metrics = ServeMetrics()
        metrics.observe_request(0.001)
        text = metrics.summary()
        assert "requests served" in text
        assert "cache hit rate:    n/a" in text
        assert "p95" in text

    def test_latency_quantiles_read_the_request_histogram(self):
        metrics = ServeMetrics()
        assert metrics.latency_quantiles_ms() == {
            "p50_ms": 0.0, "p95_ms": 0.0, "p99_ms": 0.0}
        for _ in range(99):
            metrics.observe_request(0.0007)
        metrics.observe_request(0.2)
        quantiles = metrics.latency_quantiles_ms()
        assert 0.5 < quantiles["p50_ms"] <= 1.0
        assert quantiles["p99_ms"] <= 1.0
