"""End-to-end chaos scenario: scripted faults, verified recovery."""

import io
import json

import pytest

from repro.obs.logs import set_log_stream
from repro.obs.registry import MetricsRegistry, get_registry, set_registry
from repro.relia.chaos import run_chaos_scenario


@pytest.fixture(scope="module")
def chaos_run(tmp_path_factory):
    # The scenario drives counters on the process-wide registry; give it
    # a fresh one so assertions see only this run.
    # The log lines are kept for the alert-transition pin below.
    previous = get_registry()
    set_registry(MetricsRegistry())
    log = io.StringIO()
    previous_stream = set_log_stream(log)
    try:
        work_dir = tmp_path_factory.mktemp("chaos")
        try:
            report = run_chaos_scenario(seed=0, work_dir=str(work_dir))
        finally:
            set_log_stream(previous_stream)
        yield report, work_dir, log.getvalue()
    finally:
        set_registry(previous)


@pytest.fixture(scope="module")
def report(chaos_run):
    return chaos_run[0]


def test_scenario_passes_every_check(report):
    failed = [c for c in report.checks if not c.passed]
    assert report.ok, "failed checks:\n" + "\n".join(
        f"  {c.name}: {c.detail}" for c in failed
    )


def test_faults_were_actually_delivered(report):
    kinds = {(i["site"], i["kind"]) for i in report.injections}
    assert ("stream.ingest", "io_error") in kinds
    assert ("stream.feed", "duplicate") in kinds
    assert ("stream.feed", "delay") in kinds
    assert ("stream.checkpoint", "truncate") in kinds
    assert ("serve.worker", "crash") in kinds


def test_recovery_is_bit_exact_outside_poisoned_hours(report):
    by_name = {c.name: c for c in report.checks}
    assert by_name["stream_bit_exact"].passed, (
        by_name["stream_bit_exact"].detail
    )
    assert by_name["poisoned_hour_quarantined"].passed


def test_resilience_counters_are_nonzero(report):
    assert report.counters, "scenario recorded no counters"
    for name, value in report.counters.items():
        assert value > 0, f"{name} never moved: {report.counters}"
    # The exposition check covers every required series by name.
    by_name = {c.name: c for c in report.checks}
    assert by_name["metrics_exposed"].passed, by_name["metrics_exposed"].detail


def test_report_serializes_to_json(report):
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload["seed"] == 0
    assert payload["ok"] is True
    assert len(payload["checks"]) == len(report.checks)
    assert payload["injections"]
    summary = report.summary()
    assert "PASS" in summary


def test_slo_alerts_fired_and_resolved(report):
    by_name = {c.name: c for c in report.checks}
    assert by_name["slo_alerts_fired_during_faults"].passed, (
        by_name["slo_alerts_fired_during_faults"].detail
    )
    assert by_name["slo_alerts_resolved_after_recovery"].passed, (
        by_name["slo_alerts_resolved_after_recovery"].detail
    )
    # The storm must have tripped at least one paging fast-burn alert.
    fired = report.slo["fired"]
    assert any(name.endswith("-fast-burn") for name in fired), fired
    # ... and every alert ended the scenario resolved or untouched.
    for entry in report.slo["alerts"]:
        assert entry["state"] in ("inactive", "resolved"), entry


def test_firing_alert_exemplar_resolves_to_trace(report):
    by_name = {c.name: c for c in report.checks}
    assert by_name["alert_exemplar_links_trace"].passed, (
        by_name["alert_exemplar_links_trace"].detail
    )
    fired = {e["name"]: e for e in report.slo["alerts"]
             if e["fired_count"] > 0}
    assert fired, "no alert ever fired during the storm"
    assert any(e["exemplar_trace_id"] for e in fired.values()), fired


def test_slo_report_artifact_written(chaos_run):
    report, work_dir, _ = chaos_run
    artifact = work_dir / "chaos_slo_report.json"
    assert artifact.exists()
    payload = json.loads(artifact.read_text(encoding="utf-8"))
    assert payload["fired"] == report.slo["fired"]
    # Budget accounting: every SLO in the artifact has a finite budget
    # and the storm overspent at least one of them at its peak.
    budgets = {s["name"]: s for s in payload["budget"]["slos"]}
    assert budgets, payload["budget"]
    for entry in budgets.values():
        assert "error_budget_remaining" in entry
    # The embedded SLO section round-trips through the main report too.
    full = json.loads(json.dumps(report.to_dict()))
    assert full["slo"]["fired"] == payload["fired"]


def test_scenario_is_seed_deterministic(report, tmp_path):
    # Same seed, same delivered fault sequence (site/kind/attrs tuples).
    previous = get_registry()
    set_registry(MetricsRegistry())
    try:
        replay = run_chaos_scenario(seed=0, work_dir=str(tmp_path))
    finally:
        set_registry(previous)
    assert replay.ok
    assert replay.injections == report.injections


#: Every alert transition of the seed-0 scenario, in order, with the
#: rounded burn rates its log line carries.
PINNED_TRANSITIONS = [
    ("alert_pending", "stream-quarantine-slow-burn", 1.0417, 1.0417),
    ("alert_pending", "checkpoint-integrity-slow-burn", 10.0, 10.0),
    ("alert_pending", "serve-availability-fast-burn", 500.0, 500.0),
    ("alert_pending", "serve-availability-slow-burn", 500.0, 500.0),
    ("alert_pending", "serve-degraded-fast-burn", 20.0, 20.0),
    ("alert_pending", "serve-degraded-slow-burn", 20.0, 20.0),
    ("alert_firing", "stream-quarantine-slow-burn", 1.0417, 1.0417),
    ("alert_firing", "checkpoint-integrity-slow-burn", 10.0, 10.0),
    ("alert_firing", "serve-availability-fast-burn", 500.0, 500.0),
    ("alert_firing", "serve-availability-slow-burn", 500.0, 500.0),
    ("alert_firing", "serve-degraded-fast-burn", 20.0, 20.0),
    ("alert_firing", "serve-degraded-slow-burn", 20.0, 20.0),
    ("alert_resolved", "serve-availability-fast-burn", 43.4783, 0.0),
    ("alert_resolved", "serve-degraded-fast-burn", 1.7391, 0.0),
    ("alert_resolved", "serve-availability-slow-burn", 0.0, 0.0),
    ("alert_resolved", "serve-degraded-slow-burn", 0.0, 0.0),
    ("alert_resolved", "stream-quarantine-slow-burn", 0.0, 0.0),
    ("alert_resolved", "checkpoint-integrity-slow-burn", 0.0, 0.0),
]

#: Each alert's final ``(state, fired_count, since, last_change)``.
PINNED_ALERTS = {
    "serve-availability-fast-burn": ("resolved", 1, None, 50.0),
    "serve-availability-slow-burn": ("resolved", 1, None, 10000.0),
    "serve-latency-fast-burn": ("inactive", 0, None, 0.0),
    "serve-latency-slow-burn": ("inactive", 0, None, 0.0),
    "serve-degraded-fast-burn": ("resolved", 1, None, 50.0),
    "serve-degraded-slow-burn": ("resolved", 1, None, 10000.0),
    "serve-shed-fast-burn": ("inactive", 0, None, 0.0),
    "serve-shed-slow-burn": ("inactive", 0, None, 0.0),
    "stream-quarantine-fast-burn": ("inactive", 0, None, 0.0),
    "stream-quarantine-slow-burn": ("resolved", 1, None, 10000.0),
    "checkpoint-integrity-fast-burn": ("inactive", 0, None, 0.0),
    "checkpoint-integrity-slow-burn": ("resolved", 1, None, 10000.0),
}

#: ``(name, kind, objective, description)`` of each budget-report entry.
PINNED_SLOS = [
    ("serve-availability", "availability", 0.999,
     "Requests answered without server-side error"),
    ("serve-latency", "latency", 0.99, "Requests finishing within 250 ms"),
    ("serve-degraded", "quality", 0.95,
     "Requests answered at full fidelity (not the nearest-centroid "
     "fallback)"),
    ("serve-shed", "availability", 0.99,
     "Requests admitted past load shedding"),
    ("stream-quarantine", "quality", 0.99,
     "Ingested batches folded (not quarantined)"),
    ("checkpoint-integrity", "quality", 0.95,
     "Checkpoint load attempts that validate without corruption"),
]


class TestPinnedSLOOutcome:
    """The seed-0 scenario's SLO verdicts, exactly.

    ``exemplar_value`` is a wall-clock latency and is left out.
    """

    def test_alert_transitions_in_order(self, chaos_run):
        _, _, log = chaos_run
        events = [json.loads(line) for line in log.splitlines()]
        transitions = [
            (e["event"], e["alert"], e["burn_long"], e["burn_short"])
            for e in events if e["event"].startswith("alert_")
        ]
        assert transitions == PINNED_TRANSITIONS

    def test_final_alert_states(self, report):
        final = {
            entry["name"]: (entry["state"], entry["fired_count"],
                            entry["since"], entry["last_change"])
            for entry in report.slo["alerts"]
        }
        assert final == PINNED_ALERTS
        assert report.slo["fired"] == sorted(
            name for name, (_, fired, _, _) in PINNED_ALERTS.items()
            if fired
        )

    def test_budget_report(self, report):
        assert report.slo["budget"] == {"slos": [
            {
                "name": name,
                "kind": kind,
                "description": description,
                "objective": objective,
                "window_s": 60.0,
                "compliance": 1.0,
                "error_budget_remaining": 1.0,
                "n_samples": 6,
            }
            for name, kind, objective, description in PINNED_SLOS
        ]}
