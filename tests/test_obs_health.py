"""Tests for health checks: aggregation, probe safety, service probes."""

import pytest

from repro.obs.health import (
    HealthCheck,
    run_checks,
    service_health_checks,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.slo import SLO, SLOEngine
from repro.obs.tsdb import MetricsTSDB
from tests.conftest import SLOCounts


class TestRunChecks:
    def test_all_passing_is_healthy(self):
        report = run_checks([
            HealthCheck("a", lambda: (True, "fine")),
            HealthCheck("b", lambda: (True, "also fine"), critical=False),
        ])
        assert report.ok
        assert [c.name for c in report.checks] == ["a", "b"]

    def test_critical_failure_flips_verdict(self):
        report = run_checks([
            HealthCheck("a", lambda: (False, "broken")),
        ])
        assert not report.ok

    def test_noncritical_failure_degrades_without_failing(self):
        report = run_checks([
            HealthCheck("a", lambda: (True, "fine")),
            HealthCheck("warn", lambda: (False, "meh"), critical=False),
        ])
        assert report.ok
        assert not report.checks[1].ok

    def test_raising_probe_becomes_failed_check(self):
        def boom():
            raise RuntimeError("probe exploded")

        report = run_checks([HealthCheck("a", boom)])
        assert not report.ok
        assert "probe exploded" in report.checks[0].detail

    def test_to_dict_shape(self):
        body = run_checks([HealthCheck("a", lambda: (True, "d"))]).to_dict()
        assert body["status"] == "ok"
        assert body["checks"] == [
            {"name": "a", "ok": True, "critical": True, "detail": "d"}
        ]
        body = run_checks([HealthCheck("a", lambda: (False, "d"))]).to_dict()
        assert body["status"] == "unhealthy"


class _StubBatcher:
    def __init__(self, depth, limit):
        self._depth, self.max_queue_depth = depth, limit

    def queue_depth(self):
        return self._depth


class _StubRegistry:
    def __init__(self, version):
        self._version = version

    def current_version(self):
        return self._version


class _StubBreaker:
    def __init__(self, state):
        self.state = state


class _StubService:
    def __init__(self, version=1, depth=0, limit=256, breaker="closed"):
        self.registry = _StubRegistry(version)
        self._batcher = _StubBatcher(depth, limit)
        self._breaker = (
            _StubBreaker(breaker) if breaker is not None else None
        )


class TestServiceChecks:
    def _verdicts(self, service, engine=None):
        report = run_checks(service_health_checks(service, engine=engine))
        return report, {c.name: c for c in report.checks}

    def test_healthy_service(self):
        report, checks = self._verdicts(_StubService())
        assert report.ok
        assert set(checks) == {"profile_loaded", "queue_headroom", "breaker"}

    def test_no_profile_fails(self):
        report, checks = self._verdicts(_StubService(version=None))
        assert not report.ok
        assert not checks["profile_loaded"].ok

    def test_saturated_queue_fails(self):
        report, checks = self._verdicts(_StubService(depth=256, limit=256))
        assert not report.ok
        assert "saturated" in checks["queue_headroom"].detail

    def test_open_breaker_fails_half_open_passes(self):
        report, checks = self._verdicts(_StubService(breaker="open"))
        assert not report.ok
        report, checks = self._verdicts(_StubService(breaker="half-open"))
        assert report.ok

    def test_missing_breaker_passes(self):
        report, checks = self._verdicts(_StubService(breaker=None))
        assert report.ok
        assert "no breaker" in checks["breaker"].detail

    def test_budget_check_is_noncritical(self):
        registry = MetricsRegistry()
        state = SLOCounts(registry)
        slo = SLO(name="svc", objective=0.99, window_s=60.0,
                  good=SLOCounts.GOOD, total=SLOCounts.TOTAL)
        # Pin the history's clock: the probe queries with implicit `now`.
        engine = SLOEngine([slo], MetricsTSDB(registry, clock=lambda: 1.0))
        engine.tick(now=0.0)
        state.update(good=50.0, total=100.0)  # budget blown
        engine.tick(now=1.0)
        report, checks = self._verdicts(_StubService(), engine=engine)
        assert report.ok  # overspent budget degrades, never fails
        assert not checks["error_budget"].ok
        assert checks["error_budget"].critical is False
        assert "svc" in checks["error_budget"].detail

    @pytest.mark.parametrize("engine", [None])
    def test_without_engine_no_budget_check(self, engine):
        _, checks = self._verdicts(_StubService(), engine=engine)
        assert "error_budget" not in checks
