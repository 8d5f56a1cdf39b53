"""Tests for the serving-side metrics: reservoir, counters, export."""

import json

import pytest

from repro.serve.metrics import LatencyReservoir, ServeMetrics


class TestLatencyReservoir:
    def test_percentiles_exact_on_small_sample(self):
        reservoir = LatencyReservoir(capacity=100)
        for value in [0.010, 0.020, 0.030, 0.040, 0.050]:
            reservoir.observe(value)
        assert reservoir.percentile(0) == pytest.approx(0.010)
        assert reservoir.percentile(50) == pytest.approx(0.030)
        assert reservoir.percentile(100) == pytest.approx(0.050)
        assert reservoir.percentile(25) == pytest.approx(0.020)

    def test_empty_reservoir_reports_zero(self):
        assert LatencyReservoir().percentile(95) == 0.0

    def test_capacity_is_bounded_and_sample_stays_in_range(self):
        reservoir = LatencyReservoir(capacity=32)
        for index in range(10_000):
            reservoir.observe(index / 10_000)
        assert reservoir.n_seen == 10_000
        assert len(reservoir._samples) == 32
        p50 = reservoir.percentile(50)
        # A uniform reservoir over uniform data should estimate the median
        # loosely; mostly this guards against systematic bias.
        assert 0.2 < p50 < 0.8

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            LatencyReservoir(capacity=0)
        with pytest.raises(ValueError):
            LatencyReservoir().percentile(101)

    def test_quantiles_ms_keys(self):
        reservoir = LatencyReservoir()
        reservoir.observe(0.002)
        quantiles = reservoir.quantiles_ms()
        assert set(quantiles) == {"p50_ms", "p95_ms", "p99_ms"}
        assert quantiles["p50_ms"] == pytest.approx(2.0)


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
        assert json.loads(text)["derived"]["p50_ms"] == pytest.approx(1.0)

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
