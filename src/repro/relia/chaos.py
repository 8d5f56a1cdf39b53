"""The scripted end-to-end chaos scenario behind ``repro-icn chaos``.

One deterministic run exercises every resilience mechanism against the
real stream/serve stack — no mocks, no instrumented copies:

1. a small synthetic deployment is generated and profiled, and a
   fault-free **reference** ingestion (minus the hour the chaos run will
   lose) records the ground-truth accumulator state;
2. the **chaos** ingestion replays the same hours through
   :func:`~repro.relia.faults.perturb_hourly_stream` and a
   :class:`~repro.relia.degrade.ResilientStreamingProfiler` while a
   seeded :class:`~repro.relia.faults.FaultPlan` delivers a transient
   I/O-error burst (retried), a permanently poisoned hour (quarantined),
   a duplicated hour (deduplicated), and a delayed out-of-order hour
   (re-sorted) — after which the final accumulator state must match the
   reference **bit-exactly**;
3. a mid-stream checkpoint is saved cleanly, a second save is truncated
   by the harness, and restore must detect the corruption (CRC), roll
   back to the backup, and re-ingest the tail to the same final state;
4. a :class:`~repro.serve.ProfileService` with degradation enabled
   absorbs injected worker crashes: stranded requests are retried until
   the crash budget kills them, then answered from nearest centroids
   with ``degraded=true``; once the breaker's reset timeout passes, a
   probe closes it and full-fidelity answers resume.

5. an :class:`~repro.obs.slo.SLOEngine` and burn-rate
   :class:`~repro.obs.alerts.AlertManager` judge the whole storm on a
   **synthetic clock**: availability/degraded fast-burn alerts must go
   pending → firing while the worker crashes land, the firing alert
   must carry an exemplar trace id that resolves to a real span in the
   :class:`~repro.obs.trace.TraceStore`, and after recovery traffic
   every alert must resolve.  The budget report is written to the work
   directory as ``chaos_slo_report.json``.

A :class:`~repro.obs.prof.ContinuousProfiler` samples stacks for the
whole storm (its speedscope export lands in the work directory as
``chaos_prof.speedscope.json``), and the run ends with a check that the
process-wide ``/metrics`` surface shows nonzero retry / breaker /
degraded / fault counters plus the profiler's own sampling series.  Everything
is seeded — same seed, same faults, same verdicts (SLO evaluation uses
explicit synthetic timestamps, so the alert transitions are replayable
too).
"""

from __future__ import annotations

import json
import random
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.obs import (
    disable_tracing,
    enable_tracing,
    get_logger,
    get_registry,
    get_trace_store,
    span,
    tracing_enabled,
)
from repro.obs.alerts import AlertManager, default_rules
from repro.obs.prof import ContinuousProfiler
from repro.obs.slo import SLOEngine, default_slos
from repro.obs.tsdb import MetricsTSDB
from repro.relia.degrade import (
    ResilientStreamingProfiler,
    StreamDegradePolicy,
)
from repro.relia.faults import FaultPlan, inject, perturb_hourly_stream
from repro.relia.retry import RetryPolicy

__all__ = ["ChaosCheck", "ChaosReport", "run_chaos_scenario"]

_log = get_logger("repro.relia.chaos")

#: Metric families the scenario requires to be present and nonzero.
REQUIRED_SERIES = (
    "repro_retries_total",
    "repro_breaker_state",
    "repro_degraded_answers_total",
    "repro_faults_injected_total",
    "repro_slo_error_budget_remaining",
    "repro_alert_state",
    "repro_prof_samples_total",
)


@dataclass(frozen=True)
class ChaosCheck:
    """One pass/fail verdict of the scenario."""

    name: str
    passed: bool
    detail: str


@dataclass
class ChaosReport:
    """Everything the chaos run observed, for humans and CI artifacts."""

    seed: int
    checks: List[ChaosCheck] = field(default_factory=list)
    injections: List[Dict[str, object]] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)
    slo: Dict[str, object] = field(default_factory=dict)
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        """True when every check passed."""
        return all(check.passed for check in self.checks)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form (the ``chaos_report.json`` artifact)."""
        return {
            "seed": self.seed,
            "ok": self.ok,
            "elapsed_s": round(self.elapsed_s, 3),
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
            "injections": self.injections,
            "counters": self.counters,
            "slo": self.slo,
        }

    def summary(self) -> str:
        """Human-readable verdict table."""
        lines = [
            f"chaos scenario seed={self.seed}: "
            f"{'PASS' if self.ok else 'FAIL'} "
            f"({sum(c.passed for c in self.checks)}/{len(self.checks)} "
            f"checks, {len(self.injections)} faults injected, "
            f"{self.elapsed_s:.1f}s)"
        ]
        for check in self.checks:
            mark = "ok " if check.passed else "FAIL"
            lines.append(f"  [{mark}] {check.name}: {check.detail}")
        return "\n".join(lines)


def _states_equal(a: Dict[str, object], b: Dict[str, object]) -> bool:
    """Bit-exact equality of two checkpoint-style state mappings."""
    if set(a) != set(b):
        return False
    for key, left in a.items():
        right = b[key]
        if isinstance(left, np.ndarray):
            if not isinstance(right, np.ndarray):
                return False
            if left.dtype != right.dtype or left.shape != right.shape:
                return False
            if not np.array_equal(left, right):
                return False
        elif left != right:
            return False
    return True


def _accumulator_states(profiler) -> Dict[str, object]:
    """The order-sensitive numeric state (totals + window, not timers)."""
    state = {}
    for key, value in profiler.totals.state_dict().items():
        state[f"totals.{key}"] = value
    for key, value in profiler.window.state_dict().items():
        state[f"window.{key}"] = value
    return state


def _counter_sum(name: str) -> float:
    """Sum of one global counter family across all its label series."""
    family = get_registry().get(name)
    if family is None:
        return 0.0
    return float(sum(child.value for _, child in family.series()))


def run_chaos_scenario(
    seed: int = 0,
    work_dir: Optional[str] = None,
    scale: float = 0.05,
) -> ChaosReport:
    """Run the full scripted fault scenario; returns the verdict report.

    Tracing is enabled for the duration of the run (and restored to its
    prior state afterwards) so latency exemplars captured during the
    fault storm resolve to real spans in the trace store.

    Args:
        seed: seeds the dataset, the fault plan, and every jitter RNG —
            identical seeds replay identical runs.
        work_dir: directory for checkpoint files and the
            ``chaos_slo_report.json`` budget artifact (a temp dir by
            default).
        scale: deployment scale factor versus the paper's Table 1.
    """
    was_tracing = tracing_enabled()
    if not was_tracing:
        enable_tracing()
    try:
        return _run_scenario(int(seed), work_dir, float(scale))
    finally:
        if not was_tracing:
            disable_tracing()


def _run_scenario(
    seed: int, work_dir: Optional[str], scale: float
) -> ChaosReport:
    # Imports deferred so that ``import repro.relia`` stays cheap and
    # cycle-free; the scenario is the one place the whole stack meets.
    from repro.core.pipeline import ICNProfiler
    from repro.datagen.calendar import StudyCalendar
    from repro.datagen.dataset import generate_dataset
    from repro.datagen.scenarios import scaled_specs
    from repro.serve import ProfileService, ServeDegradePolicy, ServeMetrics
    from repro.stream import StreamingProfiler, replay_dataset

    started = time.perf_counter()
    report = ChaosReport(seed=int(seed))
    work = Path(work_dir) if work_dir else Path(tempfile.mkdtemp(
        prefix="repro-chaos-"
    ))
    work.mkdir(parents=True, exist_ok=True)

    _log.info("chaos_start", seed=int(seed), work_dir=str(work))

    # The continuous profiler rides along for the whole storm: a chaos
    # run is exactly the situation where an operator would pull
    # /debug/prof, so the scenario proves the sampler keeps capturing
    # (and keeps its overhead accounting) while everything else burns.
    profiler = ContinuousProfiler(hz=25.0, window_s=5.0).start()

    # SLO judging layer on a synthetic clock: the scenario passes
    # explicit timestamps to tick()/evaluate(), so alert transitions are
    # a pure function of the injected faults — replayable like the rest
    # of the run.  Windows are scaled 60x down from production (1h -> 60s
    # budget window; fast pair 60s/5s, slow pair 4320s/360s).
    engine = SLOEngine(
        default_slos(window_s=60.0), MetricsTSDB(get_registry())
    )
    alerts = AlertManager(
        engine, default_rules(engine, time_scale=1.0 / 60.0),
        registry=get_registry(),
    )
    engine.tick(now=0.0)  # baseline sample before any fault lands

    # ------------------------------------------------------------------
    # Stage 0: dataset, profile, and the fault schedule
    # ------------------------------------------------------------------
    calendar = StudyCalendar(
        np.datetime64("2023-01-09T00", "h"),
        np.datetime64("2023-01-12T23", "h"),
    )
    dataset = generate_dataset(
        master_seed=int(seed),
        specs=scaled_specs(scale, minimum_per_environment=6),
        calendar=calendar,
    )
    frozen = ICNProfiler(n_clusters=6, surrogate_trees=15).fit(dataset).freeze()
    batches = list(replay_dataset(dataset))
    hours = [batch.hour for batch in batches]
    h_burst, h_poison = hours[5], hours[12]
    h_dup, h_delay = hours[20], hours[28]

    plan = (
        FaultPlan(seed=int(seed))
        # Transient I/O burst: first two ingest attempts fail, the third
        # succeeds — absorbed by retry, the hour is NOT lost.
        .add("stream.ingest", "io_error", times=2, hour=str(h_burst))
        # Poisoned hour: every attempt fails — quarantined, hour lost.
        .add("stream.ingest", "io_error", times=None, hour=str(h_poison))
        .add("stream.feed", "duplicate", hour=str(h_dup))
        .add("stream.feed", "delay", hour=str(h_delay))
        # First checkpoint save passes (skip=1); the second is truncated.
        .add("stream.checkpoint", "truncate", times=1, skip=1, fraction=0.45)
        # Two worker crashes: with max_item_retries=1 the stranded
        # request survives the first crash and dies with the second,
        # forcing the nearest-centroid fallback.
        .add("serve.worker", "crash", times=2)
    )

    # ------------------------------------------------------------------
    # Stage 1: fault-free reference (minus the hour chaos will lose)
    # ------------------------------------------------------------------
    reference = StreamingProfiler(frozen, classify_every=0)
    for batch in batches:
        if batch.hour != h_poison:
            reference.ingest(batch)
    reference_state = _accumulator_states(reference)

    checkpoint_file = work / "chaos_ckpt.npz"
    midpoint = len(batches) // 2

    with inject(plan):
        # --------------------------------------------------------------
        # Stage 2: chaos ingestion through the degradation wrapper
        # --------------------------------------------------------------
        inner = StreamingProfiler(frozen, classify_every=0)
        resilient = ResilientStreamingProfiler(
            inner,
            StreamDegradePolicy(
                reorder_window=3,
                retry=RetryPolicy(max_attempts=3, base_delay_s=0.0,
                                  jitter=0.0),
            ),
            rng=random.Random(int(seed)),
        )
        folded_hours: List[np.datetime64] = []
        checkpoint_hour = None
        for batch in perturb_hourly_stream(batches):
            for result in resilient.ingest(batch):
                if result is not None:
                    folded_hours.append(result.hour)
            if checkpoint_hour is None and len(folded_hours) >= midpoint:
                inner.checkpoint(checkpoint_file)  # clean (skip=1 passes)
                checkpoint_hour = inner.totals.last_hour
        for result in resilient.flush():
            if result is not None:
                folded_hours.append(result.hour)
        chaos_state = _accumulator_states(inner)

        quarantined = resilient.quarantined_hours()
        report.checks.append(ChaosCheck(
            "poisoned_hour_quarantined",
            quarantined == [np.datetime64(h_poison, "h")],
            f"quarantine holds {[str(h) for h in quarantined]} "
            f"(expected [{h_poison}])",
        ))
        report.checks.append(ChaosCheck(
            "stream_bit_exact",
            _states_equal(chaos_state, reference_state),
            "chaos accumulators match the fault-free reference bit-exactly "
            "over unaffected hours",
        ))
        report.checks.append(ChaosCheck(
            "transient_burst_retried",
            h_burst in [np.datetime64(h, "h") for h in folded_hours]
            and _counter_sum("repro_retries_total") > 0,
            f"hour {h_burst} survived {plan.injected_total('stream.ingest', 'io_error')} "
            f"injected I/O errors",
        ))
        report.checks.append(ChaosCheck(
            "duplicate_hour_dropped",
            plan.injected_total("stream.feed", "duplicate") == 1
            and sorted(folded_hours) == sorted(set(folded_hours)),
            f"hour {h_dup} was re-delivered and deduplicated",
        ))
        report.checks.append(ChaosCheck(
            "out_of_order_resorted",
            plan.injected_total("stream.feed", "delay") == 1
            and folded_hours == sorted(folded_hours),
            f"hour {h_delay} arrived late; folds stayed in calendar order",
        ))

        # --------------------------------------------------------------
        # Stage 3: truncated checkpoint -> CRC detection -> rollback
        # --------------------------------------------------------------
        inner.checkpoint(checkpoint_file)  # truncate rule fires here
        restored = StreamingProfiler.restore(
            checkpoint_file, frozen, classify_every=0
        )
        rolled_back_to = restored.totals.last_hour
        corrupt_kept = checkpoint_file.with_name(
            checkpoint_file.name + ".corrupt"
        ).exists()
        by_hour = {np.datetime64(b.hour, "h"): b for b in batches}
        for hour in sorted(folded_hours):
            if rolled_back_to is None or hour > rolled_back_to:
                restored.ingest(by_hour[np.datetime64(hour, "h")])
        report.checks.append(ChaosCheck(
            "checkpoint_rollback_and_catchup",
            corrupt_kept
            and checkpoint_hour is not None
            and rolled_back_to == checkpoint_hour
            and _states_equal(_accumulator_states(restored), chaos_state),
            f"truncated checkpoint detected; rolled back to {rolled_back_to} "
            f"and re-ingested the tail to an identical final state",
        ))

        # --------------------------------------------------------------
        # Stage 4: worker crashes -> degraded answers -> recovery
        # --------------------------------------------------------------
        # Synthetic-clock sample after the stream/checkpoint stages:
        # their bad events (quarantine, checkpoint corruption) are now
        # on the books, the serve storm hasn't started yet.
        engine.tick(now=5.0)
        alerts.evaluate(now=5.0)
        service = ProfileService(
            frozen,
            n_workers=2,
            cache_size=0,
            metrics=ServeMetrics(registry=get_registry()),
            degrade=ServeDegradePolicy(failure_threshold=1,
                                       reset_timeout_s=1.0),
            max_item_retries=1,
        )
        try:
            # Each classify runs inside a chaos.classify span, so the
            # latency histogram's exemplars (captured via
            # current_trace_id) point at spans that really exist in the
            # trace store — the linkage the alert check verifies below.
            with span("chaos.classify", phase="storm", call=1):
                first = service.classify(frozen.features[:4], timeout=30.0)
            with span("chaos.classify", phase="storm", call=2):
                second = service.classify(frozen.features[4:8], timeout=30.0)
            # The storm is on the books: sample it, see the rising edge
            # (pending), then confirm it held (firing) one evaluation
            # later.  Fast pair 60s/5s at burn > 14.4: two all-degraded,
            # all-error requests against a 99.9% objective burn ~1000x.
            engine.tick(now=10.0)
            alerts.evaluate(now=10.0)
            pending_names = sorted(
                a.rule.name for a in alerts.alerts if a.state == "pending"
            )
            engine.tick(now=12.0)
            alerts.evaluate(now=12.0)
            firing = [a for a in alerts.alerts if a.state == "firing"]
            firing_names = sorted(a.rule.name for a in firing)
            report.checks.append(ChaosCheck(
                "slo_alerts_fired_during_faults",
                "serve-availability-fast-burn" in pending_names
                and "serve-availability-fast-burn" in firing_names
                and "serve-degraded-fast-burn" in firing_names,
                f"fault storm drove fast-burn alerts pending "
                f"{pending_names} then firing {firing_names}",
            ))
            exemplar_ids = [
                a.exemplar_trace_id for a in firing
                if a.exemplar_trace_id is not None
            ]
            known_traces = {
                record.trace_id for record in get_trace_store().spans()
            }
            report.checks.append(ChaosCheck(
                "alert_exemplar_links_trace",
                bool(exemplar_ids)
                and all(tid in known_traces for tid in exemplar_ids),
                f"firing alerts carry exemplar trace ids {exemplar_ids}, "
                f"all resolvable in the trace store",
            ))
            time.sleep(1.2)  # past the breaker's reset timeout
            with span("chaos.classify", phase="recovery", call=3):
                third = service.classify(frozen.features[8:12], timeout=30.0)
            expected_first = frozen.nearest_centroids(frozen.features[:4])
            expected_third = frozen.vote(frozen.features[8:12])
            report.checks.append(ChaosCheck(
                "crashes_supervised_never_dropped",
                service._batcher.crash_count() == 2
                and service._batcher.alive_workers() == 2
                and first.n_vectors == 4,
                f"{service._batcher.crash_count()} worker crashes, pool "
                f"respawned to {service._batcher.alive_workers()} workers, "
                f"every request answered",
            ))
            report.checks.append(ChaosCheck(
                "degraded_answers_marked",
                first.degraded and second.degraded
                and np.array_equal(first.labels, expected_first),
                "crashed-batch and open-breaker answers both fell back to "
                "nearest centroids with degraded=true",
            ))
            report.checks.append(ChaosCheck(
                "breaker_recovered",
                not third.degraded
                and np.array_equal(third.labels, expected_third),
                "after the reset timeout a probe closed the breaker and "
                "full-fidelity answers resumed",
            ))
            # Recovery traffic: a run of full-fidelity answers rebuilds
            # short-window compliance so the fast alerts' recency
            # condition clears on the next evaluation.
            for call in range(4, 24):
                with span("chaos.classify", phase="recovery", call=call):
                    service.classify(frozen.features[:4], timeout=30.0)
        finally:
            service.close()

        # --------------------------------------------------------------
        # Stage 4b: alerts must resolve once the storm is over
        # --------------------------------------------------------------
        # First evaluation after recovery: the fast pairs clear (their
        # short windows now contain only good traffic).  The far-future
        # evaluation then clears the slow pairs too, once their long
        # windows anchor past the storm.
        engine.tick(now=50.0)
        alerts.evaluate(now=50.0)
        engine.tick(now=10000.0)
        alerts.evaluate(now=10000.0)
        still_active = sorted(a.rule.name for a in alerts.active())
        slo_report_path = work / "chaos_slo_report.json"
        report.slo = {
            "budget": engine.report(now=10000.0),
            "alerts": alerts.report(),
            "fired": firing_names,
        }
        slo_report_path.write_text(
            json.dumps(report.slo, indent=2) + "\n", encoding="utf-8"
        )
        report.checks.append(ChaosCheck(
            "slo_alerts_resolved_after_recovery",
            not still_active and slo_report_path.exists(),
            "no alert left pending/firing after recovery "
            f"(active: {still_active or 'none'}); budget report written "
            f"to {slo_report_path.name}",
        ))

    # ------------------------------------------------------------------
    # Stage 5: the telemetry surface must show the whole story
    # ------------------------------------------------------------------
    profiler.stop()
    prof_stats = profiler.stats()
    prof_path = work / "chaos_prof.speedscope.json"
    profiler.export_speedscope(prof_path)
    report.checks.append(ChaosCheck(
        "profiler_sampled_through_storm",
        int(prof_stats["snapshot_passes"]) > 0  # type: ignore[call-overload]
        and int(prof_stats["stacks"]) > 0  # type: ignore[call-overload]
        and prof_path.exists(),
        f"continuous profiler captured {prof_stats['stacks']} stacks over "
        f"{prof_stats['snapshot_passes']} passes at measured overhead "
        f"{float(prof_stats['overhead_ratio']):.2%}; "  # type: ignore[arg-type]
        f"speedscope written to {prof_path.name}",
    ))

    exposition = get_registry().prometheus_text()
    missing = [name for name in REQUIRED_SERIES if name not in exposition]
    nonzero = {
        "repro_retries_total": _counter_sum("repro_retries_total"),
        "repro_degraded_answers_total": _counter_sum(
            "repro_degraded_answers_total"
        ),
        "repro_faults_injected_total": _counter_sum(
            "repro_faults_injected_total"
        ),
        "repro_worker_crashes_total": _counter_sum(
            "repro_worker_crashes_total"
        ),
        "repro_quarantined_batches_total": _counter_sum(
            "repro_quarantined_batches_total"
        ),
    }
    report.checks.append(ChaosCheck(
        "metrics_exposed",
        not missing and all(value > 0 for value in nonzero.values()),
        f"/metrics shows {', '.join(REQUIRED_SERIES)}"
        + (f" (missing: {missing})" if missing else ""),
    ))

    report.counters = nonzero
    # The worker attr names whichever pool thread happened to hit the
    # crash site — pure thread-scheduling noise.  Dropping it keeps the
    # injection log (a CI artifact, and the seed-determinism test's
    # comparison key) identical across replays of the same seed.
    report.injections = [
        {
            "site": inj.site,
            "kind": inj.kind,
            "attrs": {
                key: value for key, value in dict(inj.attrs).items()
                if key != "worker"
            },
        }
        for inj in plan.injections()
    ]
    report.elapsed_s = time.perf_counter() - started
    _log.log(
        "info" if report.ok else "error",
        "chaos_done", ok=report.ok,
        checks_passed=sum(c.passed for c in report.checks),
        checks_total=len(report.checks),
        injections=len(report.injections),
        elapsed_s=round(report.elapsed_s, 3),
    )
    return report
