"""Seeded end-to-end SLO test: fault storm → fast burn → alert cycle.

Drives a real :class:`ProfileService` (seeded frozen profile, shared
process registry, tracing on) through a deterministic error storm and
asserts the full observable chain: the availability SLO enters fast
burn, its alert walks pending → firing → resolved on a synthetic
clock with the same transitions every run, and the firing alert's
exemplar trace id resolves to a span actually recorded in the
:class:`TraceStore`.
"""

import threading

import pytest

from repro.obs.alerts import AlertManager, default_rules
from repro.obs.registry import MetricsRegistry, set_registry
from repro.obs.slo import SLOEngine, default_slos
from repro.obs.trace import disable_tracing, enable_tracing, span
from repro.obs.tsdb import MetricsTSDB
from repro.serve import ProfileService, ServeMetrics, make_server
from tests.conftest import build_frozen_profile


@pytest.fixture()
def stack():
    """Service + SLO engine + alert manager on one fresh registry.

    The history and the manager run on a synthetic clock (``clock["t"]``) so
    implicit evaluations — scrape-triggered refreshes, health probes —
    stay on the same timeline as the tests' explicit ``now`` ticks.
    """
    registry = MetricsRegistry()
    previous = set_registry(registry)
    store = enable_tracing(capacity=4096, clear=True)
    frozen, _ = build_frozen_profile(seed=0)
    service = ProfileService(
        frozen, max_batch=16, n_workers=2,
        metrics=ServeMetrics(registry=registry),
    )
    clock = {"t": 0.0}
    engine = SLOEngine(
        default_slos(window_s=60.0),
        MetricsTSDB(registry, clock=lambda: clock["t"]),
    )
    manager = AlertManager(
        engine, default_rules(engine, time_scale=1.0 / 60.0),
        registry=registry, clock=lambda: clock["t"],
    )
    try:
        yield frozen, service, engine, manager, store, clock
    finally:
        service.close()
        disable_tracing()
        store.clear()
        set_registry(previous)


class TestFaultStormAlertCycle:
    def test_pending_firing_resolved_with_resolvable_exemplar(self, stack):
        frozen, service, engine, manager, store, clock = stack
        alert = manager.get("serve-availability-fast-burn")

        # Clean baseline.
        with span("e2e.classify", phase="baseline"):
            service.classify(frozen.features[:4], timeout=30.0)
        engine.tick(now=0.0)
        manager.evaluate(now=0.0)
        assert alert.state == "inactive"

        # Storm: real traffic (feeding the latency histogram exemplars)
        # plus a deterministic burst of server-side errors.  Errors stay
        # below total requests so the clamped good-event reading keeps
        # tracking request deltas through the recovery window.
        for call in range(4):
            with span("e2e.classify", phase="storm", call=call):
                service.classify(frozen.features[:4], timeout=30.0)
        for _ in range(3):
            service.metrics.incr("errors")
        engine.tick(now=2.0)
        changed = manager.evaluate(now=2.0)
        assert alert.state == "pending"
        assert alert in changed

        engine.tick(now=4.0)
        changed = manager.evaluate(now=4.0)
        assert alert.state == "firing"
        assert alert in changed
        assert alert.fired_count == 1
        assert alert.burn_long > alert.rule.burn_threshold
        assert alert.burn_short > alert.rule.burn_threshold

        # The firing alert's exemplar is a real recorded span.
        assert alert.exemplar_trace_id is not None
        trace_ids = {record.trace_id for record in store.spans()}
        assert alert.exemplar_trace_id in trace_ids

        # Recovery: clean traffic only, far enough out that both burn
        # windows (60s/5s scaled) anchor past the storm.
        for call in range(8):
            with span("e2e.classify", phase="recovery", call=call):
                service.classify(frozen.features[4:8], timeout=30.0)
        engine.tick(now=90.0)
        changed = manager.evaluate(now=90.0)
        assert alert.state == "resolved"
        assert alert in changed

    def test_transitions_are_seed_deterministic(self, stack):
        """Two identical storms produce identical transition journals."""
        frozen, service, engine, manager, store, clock = stack

        def run_storm():
            journal = []
            engine.tick(now=0.0)
            manager.evaluate(now=0.0)
            for _ in range(40):
                service.metrics.incr("errors")
            with span("e2e.classify"):
                service.classify(frozen.features[:4], timeout=30.0)
            for t in (2.0, 4.0):
                engine.tick(now=t)
                for alert in manager.evaluate(now=t):
                    # Other SLOs (latency, shed) depend on wall-clock
                    # timing; the availability pair is the seeded part.
                    if alert.rule.slo == "serve-availability":
                        journal.append((t, alert.rule.name, alert.state))
            return journal

        journal = run_storm()
        expected = [
            (2.0, "serve-availability-fast-burn", "pending"),
            (2.0, "serve-availability-slow-burn", "pending"),
            (4.0, "serve-availability-fast-burn", "firing"),
            (4.0, "serve-availability-slow-burn", "firing"),
        ]
        assert journal == expected

    def test_http_surfaces_reflect_the_incident(self, stack):
        """/healthz stays ready and /slo reports the burn during a storm."""
        import json
        import urllib.request

        frozen, service, engine, manager, store, clock = stack
        server = make_server(service, port=0, slo_engine=engine,
                             alert_manager=manager)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        base = f"http://{host}:{port}"
        try:
            engine.tick(now=0.0)
            manager.evaluate(now=0.0)
            for _ in range(40):
                service.metrics.incr("errors")
            with span("e2e.classify"):
                service.classify(frozen.features[:4], timeout=30.0)
            engine.tick(now=2.0)
            manager.evaluate(now=2.0)
            engine.tick(now=4.0)
            manager.evaluate(now=4.0)
            # Scrape-triggered refreshes evaluate at the synthetic now.
            clock["t"] = 4.0

            with urllib.request.urlopen(f"{base}/slo",
                                        timeout=10.0) as response:
                body = json.loads(response.read())
            by_name = {a["name"]: a for a in body["alerts"]}
            fast = by_name["serve-availability-fast-burn"]
            assert fast["state"] == "firing"
            assert fast["exemplar_trace_id"] is not None
            budgets = {s["name"]: s for s in body["slos"]}
            assert budgets["serve-availability"][
                "error_budget_remaining"] < 0.0

            # Overspent budgets degrade /healthz but do not fail it.
            with urllib.request.urlopen(f"{base}/healthz",
                                        timeout=10.0) as response:
                health = json.loads(response.read())
            assert response.status == 200
            assert health["status"] == "ok"
            budget_check = next(
                c for c in health["checks"] if c["name"] == "error_budget"
            )
            assert budget_check["ok"] is False
        finally:
            server.shutdown()
            server.server_close()
            thread.join(5.0)
