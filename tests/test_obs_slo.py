"""Tests for the SLO engine: selectors, windows, burn rates, budgets."""

import collections
import json
import math
import threading

import pytest

from repro.obs.registry import MetricsRegistry
from repro.obs.slo import SLO, SLOEngine, default_slos
from repro.obs.tsdb import MetricsTSDB
from tests.conftest import SLOCounts, tsdb_history


def make_slo(good=SLOCounts.GOOD, total=SLOCounts.TOTAL, objective=0.99,
             window_s=60.0, **kwargs):
    return SLO(name=kwargs.pop("name", "slo"), objective=objective,
               window_s=window_s, good=good, total=total, **kwargs)


def make_engine(slos, registry=None, **tsdb_options):
    """Engine over a fresh TSDB of ``registry`` (a new one when None)."""
    registry = registry if registry is not None else MetricsRegistry()
    return SLOEngine(slos, MetricsTSDB(registry, **tsdb_options))


class TestEventSources:
    def test_counter_source_sums_label_series(self):
        registry = MetricsRegistry()
        family = registry.counter("c_total", labelnames=("x",))
        engine = make_engine(
            [make_slo(good="c_total", total="c_total")], registry
        )
        engine.tick(now=0.0)
        family.labels(x="a").inc(2)
        family.labels(x="b").inc(3)
        engine.tick(now=1.0)
        assert engine._events("slo", 60.0, now=1.0) == (5.0, 5.0)

    def test_missing_family_reads_zero(self):
        engine = make_engine([make_slo(
            good=("absent_total", 'absent_bucket{le="0.1"}'),
            total="absent_count",
        )])
        engine.tick(now=0.0)
        engine.tick(now=1.0)
        assert engine._events("slo", 60.0, now=1.0) == (0.0, 0.0)
        assert engine.compliance("slo", now=1.0) == 1.0

    def test_difference_source_clamped_at_zero(self):
        registry = MetricsRegistry()
        total = registry.counter("t_total")
        bad = registry.counter("bad_total")
        engine = make_engine(
            [make_slo(good=("t_total", "-bad_total"), total="t_total")],
            registry,
        )
        engine.tick(now=0.0)
        total.inc(3)
        bad.inc(1)
        engine.tick(now=1.0)
        assert engine._events("slo", 60.0, now=1.0) == (2.0, 3.0)
        bad.inc(9)  # bad outruns total: the good reading clamps at 0
        engine.tick(now=2.0)
        assert engine._events("slo", 60.0, now=2.0) == (0.0, 3.0)

    def test_histogram_sources_align_to_bucket_bound(self):
        # The latency SLO's threshold snaps up to a request-latency
        # bucket bound; a threshold past the last bound counts +Inf.
        for threshold, le in ((0.25, "0.25"), (0.3, "0.5"), (1.0, "1"),
                              (7.0, "+Inf")):
            [slo] = [s for s in default_slos(latency_threshold_s=threshold)
                     if s.name == "serve-latency"]
            assert slo.good == (
                f'repro_serve_request_latency_seconds_bucket{{le="{le}"}}',
            )
            assert slo.total == ("repro_serve_request_latency_seconds_count",)

    def test_counter_source_on_wrong_kind_is_histogram_guarded(self):
        # A histogram's series names match nothing on a counter family.
        registry = MetricsRegistry()
        registry.counter("c_total").inc()
        engine = make_engine([make_slo(
            good='c_total_bucket{le="0.1"}', total="c_total_count",
        )], registry)
        engine.tick(now=0.0)
        registry.counter("c_total").inc()
        engine.tick(now=1.0)
        assert engine._events("slo", 60.0, now=1.0) == (0.0, 0.0)

    def test_histogram_selector_counts_bucket_over_count(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", buckets=(0.1, 0.25, 1.0))
        engine = make_engine([make_slo(
            good='lat_bucket{le="0.25"}', total="lat_count",
        )], registry)
        engine.tick(now=0.0)
        for value in (0.05, 0.2, 0.5, 2.0):
            hist.observe(value)
        engine.tick(now=1.0)
        assert engine._events("slo", 60.0, now=1.0) == (2.0, 4.0)


class TestSLOValidation:
    def test_objective_bounds(self):
        with pytest.raises(ValueError, match="objective"):
            make_slo(objective=1.0)
        with pytest.raises(ValueError, match="objective"):
            make_slo(objective=0.0)

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError, match="window_s"):
            make_slo(window_s=0.0)

    def test_duplicate_names_rejected(self):
        slo = make_slo()
        with pytest.raises(ValueError, match="duplicate"):
            make_engine([slo, slo])

    def test_selectors_validated_at_declaration(self):
        with pytest.raises(ValueError, match="malformed selector"):
            make_slo(good="requests total")
        with pytest.raises(ValueError, match="takes no range"):
            make_slo(total="requests_total[60s]")
        assert make_slo(good=["a_total", "-b_total"]).good == (
            "a_total", "-b_total",
        )


class TestWindowing:
    def _engine(self, counts):
        """Engine over one SLO reading a registry counter pair."""
        registry = MetricsRegistry()
        state = SLOCounts(registry)
        engine = make_engine([make_slo()], registry)
        return engine, state

    def test_no_samples_reads_clean(self):
        engine, _ = self._engine({})
        assert engine.compliance("slo", 60.0, now=0.0) == 1.0
        assert engine.burn_rate("slo", 60.0, now=0.0) == 0.0
        assert engine.budget_remaining("slo", now=0.0) == 1.0

    def test_compliance_over_window(self):
        engine, state = self._engine({})
        engine.tick(now=0.0)
        state.update(good=90.0, total=100.0)
        engine.tick(now=10.0)
        assert engine.compliance("slo", 60.0, now=10.0) == pytest.approx(0.9)

    def test_window_anchor_excludes_old_errors(self):
        engine, state = self._engine({})
        engine.tick(now=0.0)
        state.update(good=50.0, total=100.0)  # storm
        engine.tick(now=10.0)
        state.update(good=150.0, total=200.0)  # clean recovery traffic
        engine.tick(now=100.0)
        # A 60s window at t=100 anchors at the t=10 sample: only the
        # clean 100 post-storm events are inside.
        assert engine.compliance("slo", 60.0, now=100.0) == 1.0
        # The full history still shows the storm.
        assert engine.compliance("slo", 200.0, now=100.0) == pytest.approx(
            0.75
        )

    def test_counter_created_between_records_counts_in_next_window(self):
        # A family first seen at a record starts from 0 at the previous
        # record, so the events it counted before that record are in
        # the window (the chaos scenario records before the service and
        # its counters exist).
        registry = MetricsRegistry()
        engine = make_engine([make_slo()], registry)
        engine.tick(now=0.0)
        SLOCounts(registry).update(good=90.0, total=100.0)
        engine.tick(now=5.0)
        assert engine._events("slo", 60.0, now=5.0) == (90.0, 100.0)
        assert engine.compliance("slo", 60.0, now=5.0) == pytest.approx(0.9)
        assert engine.burn_rate("slo", 60.0, now=5.0) == pytest.approx(10.0)
        assert tsdb_history(engine.tsdb, SLOCounts.TOTAL) == [
            (0.0, 0.0), (5.0, 100.0),
        ]

    def test_out_of_order_explicit_tick_rejected(self):
        engine, state = self._engine({})
        state.update(good=1.0, total=1.0)
        engine.tick(now=10.0)
        state.update(good=2.0, total=2.0)
        with pytest.raises(ValueError, match="precedes"):
            engine.tick(now=5.0)
        # Rejected before anything was recorded.
        assert engine.n_samples("slo") == 1
        assert engine.tsdb.latest(SLOCounts.TOTAL) == 1.0

    def test_implicit_tick_behind_newest_sample_clamps(self):
        # A scrape-driven tick whose clock reads behind an explicit-now
        # caller must not fail the scrape: it judges at the newest
        # record instead, and records nothing new.
        registry = MetricsRegistry()
        SLOCounts(registry)
        engine = make_engine([make_slo()], registry, clock=lambda: 5.0)
        engine.tick(now=10.0)
        assert engine.tick() == 10.0
        assert engine.n_samples("slo") == 1

    def test_concurrent_implicit_ticks_never_collide(self):
        registry = MetricsRegistry()
        SLOCounts(registry).update(good=1.0, total=1.0)
        clock = {"t": 0.0}
        lock = threading.Lock()

        def tick_clock():
            with lock:
                clock["t"] += 1.0
                return clock["t"]

        engine = make_engine([make_slo()], registry, clock=tick_clock)
        errors = []

        def scrape():
            try:
                for _ in range(200):
                    engine.tick()
            except Exception as exc:  # noqa: BLE001 - collected below
                errors.append(exc)

        threads = [threading.Thread(target=scrape) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30.0)
        assert not errors, errors
        assert engine.n_samples("slo") == 8 * 200
        times = [t for t, _ in tsdb_history(engine.tsdb, SLOCounts.TOTAL)]
        assert len(times) == 8 * 200
        assert times == sorted(times)

    def test_burn_rate_scales_with_error_fraction(self):
        engine, state = self._engine({})
        engine.tick(now=0.0)
        state.update(good=98.0, total=100.0)  # 2% errors vs 1% allowed
        engine.tick(now=10.0)
        assert engine.burn_rate("slo", 60.0, now=10.0) == pytest.approx(2.0)

    def test_budget_remaining_signs(self):
        engine, state = self._engine({})
        engine.tick(now=0.0)
        state.update(good=100.0, total=100.0)
        engine.tick(now=1.0)
        assert engine.budget_remaining("slo", now=1.0) == 1.0
        state.update(good=199.0, total=200.0)  # 1 bad of 100 new: on target
        engine.tick(now=2.0)
        assert engine.budget_remaining("slo", now=2.0) == pytest.approx(
            0.5, abs=1e-9
        )
        state.update(good=199.0, total=210.0)  # overspend
        engine.tick(now=3.0)
        assert engine.budget_remaining("slo", now=3.0) < 0.0

    def test_ring_capacity_bounds_memory(self):
        registry = MetricsRegistry()
        state = SLOCounts(registry)
        other = registry.counter("other_total")
        engine = SLOEngine(
            [make_slo()], MetricsTSDB(registry, capacity=8), max_samples=5
        )
        for t in range(20):
            state.update(good=float(t), total=float(t))
            other.inc()
            engine.tick(now=float(t))
        assert engine.n_samples("slo") == 5
        # The SLO's series keep the engine's depth, the rest the TSDB's.
        for name in (SLOCounts.GOOD, SLOCounts.TOTAL):
            assert len(tsdb_history(engine.tsdb, name)) == 5
        assert len(tsdb_history(engine.tsdb, "other_total")) == 8


class TestOneRead:
    def test_tick_and_report_read_each_window_once(self, monkeypatch):
        registry = MetricsRegistry()
        state = SLOCounts(registry)
        engine = make_engine([make_slo()], registry)
        engine.tick(now=0.0)
        state.update(good=9.0, total=10.0)
        lookups = collections.Counter()
        select = MetricsTSDB.select

        def counted(tsdb, name, labels=None):
            lookups[name] += 1
            return select(tsdb, name, labels)

        monkeypatch.setattr(MetricsTSDB, "select", counted)
        engine.tick(now=1.0)
        # Compliance and budget both come from one read of the window.
        assert lookups == {SLOCounts.GOOD: 1, SLOCounts.TOTAL: 1}
        lookups.clear()
        [entry] = engine.report(now=1.0)["slos"]
        assert lookups == {SLOCounts.GOOD: 1, SLOCounts.TOTAL: 1}
        assert entry["compliance"] == pytest.approx(0.9)
        assert entry["error_budget_remaining"] == pytest.approx(-9.0)


class TestGaugesAndReport:
    def test_tick_refreshes_exported_gauges(self):
        registry = MetricsRegistry()
        state = SLOCounts(registry)
        state.update(good=90.0, total=100.0)
        engine = make_engine([make_slo(objective=0.99)], registry)
        engine.tick(now=0.0)
        state.update(good=180.0, total=200.0)
        engine.tick(now=1.0)
        series = dict(registry.get("repro_slo_compliance").series())
        assert series[("slo",)].value == pytest.approx(0.9)
        objective = dict(registry.get("repro_slo_objective").series())
        assert objective[("slo",)].value == pytest.approx(0.99)
        budget = dict(
            registry.get("repro_slo_error_budget_remaining").series()
        )
        assert budget[("slo",)].value < 0.0

    def test_report_is_json_shaped(self):
        registry = MetricsRegistry()
        SLOCounts(registry).update(good=1.0, total=1.0)
        engine = make_engine([make_slo()], registry)
        engine.tick(now=0.0)
        report = engine.report(now=0.0)
        assert json.loads(json.dumps(report)) == report
        [entry] = report["slos"]
        assert entry["name"] == "slo"
        assert entry["compliance"] == 1.0
        assert entry["n_samples"] == 1

    def test_get_unknown_raises(self):
        engine = make_engine([])
        with pytest.raises(KeyError):
            engine.get("nope")


class TestDefaultSLOs:
    def test_covers_serving_streaming_checkpoint(self):
        slos = {slo.name: slo for slo in default_slos()}
        assert set(slos) == {
            "serve-availability", "serve-latency", "serve-degraded",
            "serve-shed", "stream-quarantine", "checkpoint-integrity",
        }
        assert slos["serve-availability"].exemplar_metric == (
            "repro_serve_request_latency_seconds"
        )

    def test_reads_live_families(self):
        registry = MetricsRegistry()
        engine = make_engine(default_slos(), registry)
        engine.tick(now=0.0)
        registry.counter("repro_serve_requests_total").inc(100)
        registry.counter("repro_serve_errors_total").inc(5)
        registry.counter("repro_checkpoint_loads_total").inc(10)
        registry.counter("repro_checkpoint_corruptions_total").inc(1)
        engine.tick(now=1.0)
        assert engine._events(
            "serve-availability", 60.0, now=1.0
        ) == (95.0, 100.0)
        assert engine._events(
            "checkpoint-integrity", 60.0, now=1.0
        ) == (9.0, 10.0)

    def test_integrity_counts_per_load_attempt_not_per_save(self):
        # A retry loop hammering one corrupt file must not clamp the
        # SLI to 0%: each retry adds one attempt and one corruption,
        # keeping the ratio an honest per-attempt failure rate.
        registry = MetricsRegistry()
        engine = make_engine(default_slos(), registry)
        engine.tick(now=0.0)
        registry.counter("repro_checkpoint_saves_total").inc(1)
        registry.counter("repro_checkpoint_loads_total").inc(8)
        registry.counter("repro_checkpoint_corruptions_total").inc(5)
        engine.tick(now=1.0)
        assert engine._events(
            "checkpoint-integrity", 60.0, now=1.0
        ) == (3.0, 8.0)

    def test_infinite_burn_guard(self):
        # An objective of exactly 1.0 is rejected, so the allowed error
        # fraction is positive and every burn rate is finite, even over
        # a window of nothing but errors.
        registry = MetricsRegistry()
        state = SLOCounts(registry)
        state.update(good=0.0, total=100.0)
        engine = make_engine([make_slo(objective=0.5)], registry)
        engine.tick(now=0.0)
        state.update(good=0.0, total=200.0)
        engine.tick(now=1.0)
        assert math.isfinite(engine.burn_rate("slo", 60.0, now=1.0))
