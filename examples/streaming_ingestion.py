#!/usr/bin/env python
"""Online ingestion with ``repro.stream``: replay, classify, drift, resume.

Scenario: the two-month measurement campaign is over and the Section 4
profile is fitted; now the operator keeps the feed running and wants
live answers without refitting nightly.  This example fits and freezes
a reference profile, replays a fresh week of the deployment as hourly
batches through a :class:`~repro.stream.StreamingProfiler`, reads the
per-day cluster occupancy and the drift verdict, then simulates an
ingest-process crash — checkpoint to ``.npz``, restore, finish the
stream — and shows the resumed run ends in exactly the state of an
uninterrupted one.

Run:  python examples/streaming_ingestion.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import ICNProfiler, generate_dataset
from repro.datagen.calendar import StudyCalendar
from repro.stream import FrozenProfile, StreamingProfiler, replay_dataset

from quickstart import reduced_specs


def main(workdir: Path):
    print("=== Fit and freeze the reference profile ===")
    dataset = generate_dataset(master_seed=0, specs=reduced_specs())
    profile = ICNProfiler(n_clusters=9).fit(
        dataset, align_to=dataset.archetypes()
    )
    frozen = profile.freeze()
    artifact = workdir / "frozen_profile.npz"
    frozen.save(artifact)
    frozen = FrozenProfile.load(artifact)  # the deterministic round trip
    print(f"frozen {frozen.n_clusters} clusters over "
          f"{frozen.antenna_ids.size} antennas -> {artifact.name}")

    print("\n=== Replay one fresh week as hourly batches ===")
    week = generate_dataset(
        master_seed=7, specs=reduced_specs(),
        calendar=StudyCalendar(np.datetime64("2023-03-06T00", "h"),
                               np.datetime64("2023-03-12T23", "h")),
    )
    batches = list(replay_dataset(week))
    streamer = StreamingProfiler(frozen, window_hours=72, classify_every=24)
    for batch in batches:
        result = streamer.ingest(batch)
        if result.occupancy is not None:
            top = sorted(result.occupancy.items(),
                         key=lambda kv: -kv[1])[:3]
            occupancy = ", ".join(f"cluster {c}: {n}" for c, n in top)
            print(f"  {batch.hour}  top occupancy  {occupancy}")

    print("\n=== Drift verdict against the frozen reference ===")
    print(f"  {streamer.check_drift().summary()}")

    print("\n=== Crash mid-stream, restore, finish ===")
    half = len(batches) // 2
    interrupted = StreamingProfiler(frozen, window_hours=72,
                                    classify_every=24)
    for batch in batches[:half]:
        interrupted.ingest(batch)
    checkpoint = workdir / "stream_checkpoint.npz"
    interrupted.checkpoint(checkpoint)
    print(f"  'crash' after {half} batches; state saved to "
          f"{checkpoint.name}")

    resumed = StreamingProfiler.restore(checkpoint, frozen,
                                        classify_every=24)
    for batch in batches[half:]:
        resumed.ingest(batch)
    identical = (
        np.array_equal(streamer.totals.totals(), resumed.totals.totals())
        and np.array_equal(streamer.window.tensor(),
                           resumed.window.tensor())
        and streamer.occupancy() == resumed.occupancy()
    )
    print(f"  resumed run matches the uninterrupted one bit for bit: "
          f"{identical}")

    print("\n=== Stream health counters ===")
    print(streamer.metrics.summary())


if __name__ == "__main__":
    with tempfile.TemporaryDirectory(prefix="repro-stream-") as tmp:
        main(Path(tmp))
