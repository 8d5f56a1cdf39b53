#!/usr/bin/env python
"""A tour of ``repro.relia``: faults in, graceful behavior out.

Scenario: the streaming ingester and the serving node run unattended
against a live feed, and the feed misbehaves — transient I/O errors, a
poisoned hour, duplicated and late deliveries, a torn checkpoint, a
crashing worker thread.  This example arms a seeded fault plan at the
sites compiled into the production paths, runs the real stream + serve
stack through the storm, and shows the resilience layer absorbing every
fault: retries, quarantine, reordering, CRC-detected corruption with
rollback, worker supervision, and breaker-gated degraded answers.

Run:  python examples/resilience_tour.py
"""

import random
import tempfile
import time
from pathlib import Path

import numpy as np

from repro import ICNProfiler, generate_dataset
from repro.datagen.calendar import StudyCalendar
from repro.obs import get_registry
from repro.relia import (
    FaultPlan,
    ResilientStreamingProfiler,
    RetryPolicy,
    StreamDegradePolicy,
    inject,
    perturb_hourly_stream,
)
from repro.serve import ProfileService, ServeDegradePolicy
from repro.stream import StreamingProfiler, checkpoint_path, replay_dataset

from quickstart import reduced_specs


def main(work_dir: Path):
    print("=== Freeze a reference profile ===")
    calendar = StudyCalendar(
        np.datetime64("2023-01-09T00", "h"), np.datetime64("2023-01-10T23", "h")
    )
    dataset = generate_dataset(
        master_seed=11, specs=reduced_specs(), calendar=calendar
    )
    profile = ICNProfiler(n_clusters=6, surrogate_trees=15).fit(dataset)
    frozen = profile.freeze(service_totals=dataset.totals.sum(axis=0))
    hours = [str(h) for h in calendar.hours]
    print(f"{dataset.n_antennas} antennas, {len(hours)} feed hours")

    print("\n=== Arm a seeded fault plan ===")
    plan = (
        FaultPlan(seed=0)
        # Two transient I/O errors at hour 5: retry absorbs them.
        .add("stream.ingest", "io_error", times=2, hour=hours[5])
        # Hour 9 fails on *every* attempt: quarantined, stream moves on.
        .add("stream.ingest", "io_error", times=None, hour=hours[9])
        # Feed mess: hour 14 re-delivered, hour 20 arrives late.
        .add("stream.feed", "duplicate", hour=hours[14])
        .add("stream.feed", "delay", hour=hours[20])
        # The second checkpoint save is torn on disk.
        .add("stream.checkpoint", "truncate", times=1, skip=1, fraction=0.4)
        # Two serving workers die mid-batch.
        .add("serve.worker", "crash", times=2)
    )
    for rule in ("io_error x2 @ h5", "io_error forever @ h9",
                 "duplicate @ h14", "delay @ h20",
                 "truncate checkpoint #2", "crash 2 serve workers"):
        print(f"  armed: {rule}")

    ckpt = work_dir / "stream_state"

    with inject(plan):
        print("\n=== Ingest the storm ===")
        inner = StreamingProfiler(frozen, classify_every=0)
        resilient = ResilientStreamingProfiler(
            inner,
            StreamDegradePolicy(
                reorder_window=3,
                retry=RetryPolicy(max_attempts=3, base_delay_s=0.0,
                                  jitter=0.0),
            ),
            rng=random.Random(0),
        )
        with resilient:
            for i, batch in enumerate(
                perturb_hourly_stream(replay_dataset(dataset))
            ):
                resilient.ingest(batch)
                if i == len(hours) // 2:
                    resilient.checkpoint(ckpt)   # clean save -> .bak
        resilient.checkpoint(ckpt)               # this one is truncated
        held = resilient.quarantined_hours()
        print(f"quarantined hours: {[str(h) for h in held]}")
        print(f"hours folded: {inner.metrics.count('batches_ingested')} "
              f"of {len(hours)} (1 poisoned, folded in calendar order)")

        print("\n=== Restore from the torn checkpoint ===")
        restored = StreamingProfiler.restore(ckpt, frozen, classify_every=0)
        print(f"restored up to {restored.totals.last_hour} "
              f"(rolled back to the .bak; torn file kept as "
              f"{checkpoint_path(ckpt).name}.corrupt)")

        print("\n=== Serve through worker crashes ===")
        with ProfileService(
            frozen, n_workers=2, cache_size=0,
            degrade=ServeDegradePolicy(failure_threshold=1,
                                       reset_timeout_s=1.0),
            max_item_retries=1,
        ) as service:
            first = service.classify(frozen.features[:4], timeout=30.0)
            second = service.classify(frozen.features[4:8], timeout=30.0)
            print(f"during the crashes: degraded={first.degraded}, "
                  f"then breaker-open fast path: degraded={second.degraded}")
            time.sleep(1.2)  # let the breaker half-open
            third = service.classify(frozen.features[8:12], timeout=30.0)
            print(f"after recovery probe: degraded={third.degraded} "
                  f"(full forest votes again)")
            print(f"worker crashes supervised: "
                  f"{service._batcher.crash_count()}, pool back to "
                  f"{service._batcher.alive_workers()} workers")

    print("\n=== What the telemetry recorded ===")
    exposition = get_registry().prometheus_text()
    for line in exposition.splitlines():
        if line.startswith((
            "repro_faults_injected_total", "repro_retries_total",
            "repro_quarantined_batches_total", "repro_reordered_batches_total",
            "repro_duplicate_hours_total", "repro_worker_crashes_total",
        )):
            print(f"  {line}")
    print("\nEvery fault was injected into the *production* code paths —")
    print("with no plan installed the same sites are single no-op checks.")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory(prefix="resilience_tour_") as tmp:
        main(Path(tmp))
