"""Tests for burn-rate alerting: rules, state machine, exemplars."""

import threading
import time
from types import SimpleNamespace

import pytest

import repro.obs.registry as registry_module
from repro.obs.alerts import (
    ALERT_STATES,
    AlertManager,
    BurnRateRule,
    default_rules,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.slo import SLO, SLOEngine
from repro.obs.trace import disable_tracing, enable_tracing, span
from repro.obs.tsdb import MetricsTSDB
from tests.conftest import SLOCounts


def build_engine(registry=None, objective=0.99, **slo_options):
    """Engine over one SLO reading a registry counter pair."""
    registry = registry if registry is not None else MetricsRegistry()
    state = SLOCounts(registry)
    slo = SLO(
        name="svc", objective=objective, window_s=60.0,
        good=SLOCounts.GOOD, total=SLOCounts.TOTAL, **slo_options,
    )
    engine = SLOEngine([slo], MetricsTSDB(registry))
    return engine, state


def fast_rule(**overrides):
    params = dict(name="svc-fast", slo="svc", long_window_s=60.0,
                  short_window_s=10.0, burn_threshold=2.0, for_s=0.0)
    params.update(overrides)
    return BurnRateRule(**params)


class TestRuleValidation:
    def test_short_window_must_be_shorter(self):
        with pytest.raises(ValueError, match="short"):
            fast_rule(short_window_s=60.0)

    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError, match="burn_threshold"):
            fast_rule(burn_threshold=0.0)

    def test_unknown_slo_rejected_at_construction(self):
        engine, _ = build_engine()
        with pytest.raises(ValueError, match="unknown SLO"):
            AlertManager(engine, [fast_rule(slo="nope")])

    def test_duplicate_alert_names_rejected(self):
        engine, _ = build_engine()
        with pytest.raises(ValueError, match="duplicate"):
            AlertManager(engine, [fast_rule(), fast_rule()])


class TestStateMachine:
    def _storm(self, engine, state, manager, errors=50.0, total=100.0):
        """Drive a burst of errors through two tick/evaluate rounds."""
        engine.tick(now=0.0)
        manager.evaluate(now=0.0)
        state.update(good=total - errors, total=total)
        engine.tick(now=5.0)
        manager.evaluate(now=5.0)

    def test_pending_then_firing_then_resolved(self):
        engine, state = build_engine()
        manager = AlertManager(engine, [fast_rule()])
        alert = manager.get("svc-fast")
        self._storm(engine, state, manager)
        assert alert.state == "pending"

        # Condition still holds on a later evaluation -> firing.
        state.update(good=100.0, total=200.0)
        engine.tick(now=8.0)
        changed = manager.evaluate(now=8.0)
        assert alert.state == "firing"
        assert changed == [alert]
        assert alert.fired_count == 1

        # Clean traffic pushes the burn under threshold -> resolved.
        state.update(good=1100.0, total=1200.0)
        engine.tick(now=100.0)
        manager.evaluate(now=100.0)
        assert alert.state == "resolved"

    def test_pending_that_lapses_returns_to_inactive(self):
        engine, state = build_engine()
        manager = AlertManager(engine, [fast_rule()])
        alert = manager.get("svc-fast")
        self._storm(engine, state, manager)
        assert alert.state == "pending"
        state.update(good=10100.0, total=10200.0)
        engine.tick(now=100.0)
        manager.evaluate(now=100.0)
        assert alert.state == "inactive"
        assert alert.fired_count == 0

    def test_for_s_grace_delays_firing(self):
        engine, state = build_engine()
        manager = AlertManager(engine, [fast_rule(for_s=10.0)])
        alert = manager.get("svc-fast")
        self._storm(engine, state, manager)
        state.update(good=100.0, total=200.0)
        engine.tick(now=8.0)
        manager.evaluate(now=8.0)  # held 3s < 10s grace
        assert alert.state == "pending"
        state.update(good=150.0, total=300.0)
        engine.tick(now=16.0)
        manager.evaluate(now=16.0)  # held 11s >= 10s
        assert alert.state == "firing"

    def test_both_windows_must_exceed_threshold(self):
        engine, state = build_engine()
        manager = AlertManager(engine, [fast_rule()])
        alert = manager.get("svc-fast")
        # Old storm inside the long window, clean short window.
        engine.tick(now=0.0)
        state.update(good=50.0, total=100.0)
        engine.tick(now=5.0)
        state.update(good=1050.0, total=1100.0)
        engine.tick(now=55.0)
        manager.evaluate(now=55.0)
        assert alert.burn_long > 2.0
        assert alert.burn_short < 2.0
        assert alert.state == "inactive"

    def test_metrics_exported_on_transitions(self):
        registry = MetricsRegistry()
        engine, state = build_engine(registry=registry)
        manager = AlertManager(engine, [fast_rule()], registry=registry)
        self._storm(engine, state, manager)
        gauge = dict(registry.get("repro_alert_state").series())
        assert gauge[("svc-fast",)].value == ALERT_STATES["pending"]
        transitions = dict(
            registry.get("repro_alert_transitions_total").series()
        )
        assert transitions[("svc-fast", "pending")].value == 1
        burn = dict(registry.get("repro_slo_burn_rate").series())
        assert burn[("svc", "60s")].value > 0.0
        assert burn[("svc", "10s")].value > 0.0


class TestExemplarCapture:
    def test_firing_alert_carries_worst_exemplar(self):
        # Synthetic trace ids resolve in no store; with tracing off the
        # capture path judges freshness only, which is what this covers.
        disable_tracing()
        registry = MetricsRegistry()
        hist = registry.histogram("lat_seconds", buckets=(0.1, 1.0))
        hist.observe(0.05, exemplar="trace-fast")
        hist.observe(5.0, exemplar="trace-slow")
        engine, state = build_engine(
            registry=registry, exemplar_metric="lat_seconds"
        )
        manager = AlertManager(engine, [fast_rule()], registry=registry)
        engine.tick(now=0.0)
        manager.evaluate(now=0.0)
        state.update(good=50.0, total=100.0)
        engine.tick(now=5.0)
        manager.evaluate(now=5.0)
        engine.tick(now=8.0)
        manager.evaluate(now=8.0)
        alert = manager.get("svc-fast")
        assert alert.state == "firing"
        assert alert.exemplar_trace_id == "trace-slow"
        assert alert.exemplar_value == 5.0
        assert alert.to_dict()["exemplar_trace_id"] == "trace-slow"

    def _fire_with_histogram(self, registry):
        """Drive the svc-fast alert to firing over a histogram-backed SLO."""
        engine, state = build_engine(
            registry=registry, exemplar_metric="lat_seconds"
        )
        manager = AlertManager(engine, [fast_rule()], registry=registry)
        engine.tick(now=0.0)
        manager.evaluate(now=0.0)
        state.update(good=50.0, total=100.0)
        engine.tick(now=5.0)
        manager.evaluate(now=5.0)
        engine.tick(now=8.0)
        manager.evaluate(now=8.0)
        alert = manager.get("svc-fast")
        assert alert.state == "firing"
        return alert

    def test_stale_exemplar_never_attached(self, monkeypatch):
        # Exemplar slots keep the latest observation per bucket forever;
        # one recorded long before the incident (here: stamped 1000s in
        # the past) must not be attached to a firing alert.
        registry = MetricsRegistry()
        hist = registry.histogram("lat_seconds", buckets=(0.1, 1.0))
        monkeypatch.setattr(
            registry_module, "time",
            SimpleNamespace(monotonic=lambda: time.monotonic() - 1000.0),
        )
        hist.observe(5.0, exemplar="trace-ancient")
        monkeypatch.undo()
        alert = self._fire_with_histogram(registry)
        assert alert.exemplar_trace_id is None
        assert alert.exemplar_value is None

    def test_unresolvable_exemplar_skipped_for_resolvable_one(self):
        # With tracing live, a fresh exemplar whose trace the bounded
        # store no longer holds is skipped in favour of one that still
        # resolves — even when the dangling one sits in a worse bucket.
        registry = MetricsRegistry()
        hist = registry.histogram("lat_seconds", buckets=(0.1, 1.0))
        store = enable_tracing(capacity=16, clear=True)
        try:
            with span("alerts.test"):
                pass
            real_trace = store.spans()[-1].trace_id
            hist.observe(9.0, exemplar="evicted-trace")
            hist.observe(0.5, exemplar=real_trace)
            alert = self._fire_with_histogram(registry)
            assert alert.exemplar_trace_id == real_trace
            assert alert.exemplar_value == 0.5
        finally:
            disable_tracing()
            store.clear()

    def test_no_exemplar_metric_leaves_alert_uncorrelated(self):
        engine, state = build_engine()
        manager = AlertManager(engine, [fast_rule()])
        engine.tick(now=0.0)
        state.update(good=50.0, total=100.0)
        engine.tick(now=5.0)
        manager.evaluate(now=5.0)
        engine.tick(now=8.0)
        manager.evaluate(now=8.0)
        alert = manager.get("svc-fast")
        assert alert.state == "firing"
        assert alert.exemplar_trace_id is None


class TestEvaluateConcurrency:
    def test_racing_evaluations_escalate_exactly_once(self):
        # Many scrape threads re-judging a pending alert at once must
        # produce exactly one pending -> firing transition: one
        # fired_count increment, one transition-counter bump.
        registry = MetricsRegistry()
        engine, state = build_engine(registry=registry)
        manager = AlertManager(engine, [fast_rule()], registry=registry)
        engine.tick(now=0.0)
        manager.evaluate(now=0.0)
        state.update(good=50.0, total=100.0)
        engine.tick(now=5.0)
        manager.evaluate(now=5.0)  # rising edge: pending
        assert manager.get("svc-fast").state == "pending"
        engine.tick(now=8.0)
        threads = [
            threading.Thread(target=manager.evaluate, kwargs={"now": 8.0})
            for _ in range(16)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30.0)
        alert = manager.get("svc-fast")
        assert alert.state == "firing"
        assert alert.fired_count == 1
        transitions = dict(
            registry.get("repro_alert_transitions_total").series()
        )
        assert transitions[("svc-fast", "firing")].value == 1


class TestDefaultRules:
    def test_fast_and_slow_pair_per_slo(self):
        engine, _ = build_engine()
        rules = default_rules(engine)
        assert [r.name for r in rules] == ["svc-fast-burn", "svc-slow-burn"]
        fast, slow = rules
        assert fast.severity == "page"
        assert fast.burn_threshold == pytest.approx(14.4)
        assert (fast.long_window_s, fast.short_window_s) == (3600.0, 300.0)
        assert slow.severity == "ticket"
        assert slow.burn_threshold == 1.0

    def test_time_scale_shrinks_windows(self):
        engine, _ = build_engine()
        fast = default_rules(engine, time_scale=1.0 / 60.0)[0]
        assert fast.long_window_s == pytest.approx(60.0)
        assert fast.short_window_s == pytest.approx(5.0)

    def test_nonpositive_scale_rejected(self):
        engine, _ = build_engine()
        with pytest.raises(ValueError, match="time_scale"):
            default_rules(engine, time_scale=0.0)
