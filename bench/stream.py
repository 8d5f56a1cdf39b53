"""stream-day: days of an hourly per-service feed through the stream path.

The 24 hourly batches of a 400-antenna feed (a seeded sample of the
served profile's antennas, replayed with ``replay_dataset``) are fed as
fast as possible through ``StreamingProfiler(frozen, classify_every=3,
drift_check_every=12)``, one fresh profiler per day, for the run's
length.  Accumulator writes run beside full-feed classify and drift
reads, which go through the object forest (``FrozenProfile.vote``); a
stream-side switch to the compiled kernel would show here and nowhere
else.  Replaying all 4,762 antennas would cost about 23 s of generation
per run, which the benchmark's time budget cannot carry; the classify and
drift cost scales linearly with the feed.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from bench import inputs
from bench.harness import Check, Phase, least_disturbed, ratio
from bench.speed import SpeedProbe
from repro import rsca
from repro.obs import span
from repro.stream import FrozenProfile, HourlyBatch, StreamingProfiler, replay_dataset

#: Set-up includes a 400-antenna replay (about 6 s with the fit), so only
#: twice per run, for the benchmark's time budget.
SETUP_REPEATS = 2
FEED_ANTENNAS = 400
HOURS = 24
CLASSIFY_EVERY = 3
DRIFT_CHECK_EVERY = 12


@dataclass
class State:
    frozen: FrozenProfile
    batches: List[HourlyBatch]
    probe: SpeedProbe
    layers: Dict[str, float] = field(default_factory=dict)


def setup(seed: int, smoke: bool, probe: SpeedProbe) -> State:
    ds, generate_s = inputs.dataset(seed, smoke)
    frozen = inputs.frozen_profile(ds, seed)
    rng = np.random.default_rng([seed, 3])
    reference = frozen.antenna_ids
    feed = np.sort(rng.choice(reference, min(FEED_ANTENNAS, reference.size),
                              replace=False))
    start = time.perf_counter()
    with span("bench.replay_dataset", antennas=int(feed.size)):
        batches = list(replay_dataset(ds, window=slice(0, HOURS), antenna_ids=feed))
    return State(frozen, batches, probe, {
        "datagen.generate_s": generate_s,
        "datagen.replay_s": time.perf_counter() - start,
    })


def _one_day(state: State) -> Dict[str, object]:
    profiler = StreamingProfiler(state.frozen, classify_every=CLASSIFY_EVERY,
                                 drift_check_every=DRIFT_CHECK_EVERY)
    occupancy_s, occupancy_slowdowns, drifts = [], [], []
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    for batch in state.batches:
        start = time.perf_counter()
        with span("bench.ingest"):
            result = profiler.ingest(batch)
        if result.occupancy is not None:
            end = time.perf_counter()
            occupancy_s.append(end - start)
            occupancy_slowdowns.append(state.probe.slowdown(start, end))
        if result.drift is not None:
            drifts.append(result.drift)
    t1 = time.perf_counter()
    return {
        "wall_s": t1 - t0,
        "cpu_s": time.process_time() - cpu0,
        "slowdown": state.probe.slowdown(t0, t1),
        "occupancy_s": occupancy_s,
        "occupancy_slowdowns": occupancy_slowdowns,
        "drifts": drifts,
        "profiler": profiler,
    }


def measure(state: State, seconds: float, traced: bool) -> Phase:
    """Replay whole days until ``seconds`` have passed; each day starts
    from a fresh profiler.  The work runs on the probe's core and does
    nothing but compute, so each occupancy result's time is divided by the
    slowdown while it ran, and each day's CPU time by the day's.  A day is
    a round: its p50 is the median of its occupancy results."""
    days: List[Dict[str, object]] = []
    elapsed = 0.0
    while elapsed < seconds:
        days.append(_one_day(state))
        elapsed += days[-1]["wall_s"]
    hours = len(days) * len(state.batches)
    # Host speed changes within a day, so each occupancy result is scaled
    # by its own slowdown before the day's median is taken.
    occupancy_ms = [s * 1e3 for d in days for s in d["occupancy_s"]]
    occupancy_slowdowns = [s for d in days for s in d["occupancy_slowdowns"]]
    day_p50 = [1e3 * statistics.median(np.divide(d["occupancy_s"], d["occupancy_slowdowns"]))
               for d in days]
    day_cpu = [d["cpu_s"] / len(state.batches) * 1e3 for d in days]
    slowdowns = [d["slowdown"] for d in days]
    return Phase(
        p50_ms=least_disturbed(day_p50),
        cpu_ms_per_op=least_disturbed(day_cpu, slowdowns),
        slowdown=statistics.median(slowdowns),
        attempted=hours,
        failed=0,
        slices={"p50_ms": occupancy_ms, "p50_slowdown": occupancy_slowdowns,
                "cpu_ms_per_op": day_cpu, "slowdown": slowdowns},
        data={"days": days},
    )


def check(state: State, phase: Phase) -> List[Check]:
    day = phase.data["days"][-1]
    ids, labels = day["profiler"].classify_current()
    totals = state.batches[0].traffic.copy()
    for batch in state.batches[1:]:
        totals += batch.traffic
    carried = totals.sum(axis=1) > 0
    oracle = state.frozen.vote(rsca(totals[carried]))
    same_ids = np.array_equal(ids, state.batches[0].antenna_ids[carried])
    wrong = int(np.sum(oracle != labels)) if same_ids else labels.size
    refits = sum(d.refit_recommended for d in day["drifts"])
    return [
        Check("classify_matches_batch_rsca", same_ids and wrong == 0,
              f"{wrong} of {labels.size} antennas differ from "
              f"vote(rsca(sum of replayed traffic))"),
        Check("stationary_replay_no_refit", refits == 0 and len(day["drifts"]) > 0,
              f"{refits} of {len(day['drifts'])} drift checks recommend a refit"),
    ]


def layers(state: State, phase: Phase) -> Dict[str, float]:
    days = phase.data["days"]
    timers = [d["profiler"].metrics.to_dict() for d in days]

    def per(timer: str, counter: str) -> float:
        return ratio(sum(t["timers"][timer] for t in timers),
                     sum(t["counters"][counter] for t in timers)) * 1e3

    wall = sum(d["wall_s"] for d in days)
    attributed = sum(sum(t["timers"].values()) for t in timers)
    hours = len(days) * len(state.batches)
    return {
        **state.layers,
        "stream.ingest_ms": per("ingest_seconds", "batches_ingested"),
        "stream.classify_ms": per("classify_seconds", "classify_calls"),
        "stream.drift_ms": per("drift_seconds", "drift_checks"),
        "bench.latency_samples": sum(len(d["occupancy_s"]) for d in days),
        "bench.unattributed_ms": (wall - attributed) / hours * 1e3,
        "bench.unattributed_share": (wall - attributed) / wall,
    }


def close(state: State) -> None:
    pass
