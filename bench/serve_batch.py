"""serve-batch: open-loop single-row queries against an in-process service.

One thread submits RSCA queries to ``ProfileService`` (default settings)
at a fixed 1,000 req/s after a 1 s warm-up; a second thread collects
the answers.  Each query is the row of a reference antenna, drawn in
proportion to its total traffic volume, plus N(0, 1e-4) jitter, so every
cache key is unique: the micro-batcher and the compiled kernel do nearly
all the work, HTTP does none, and the cache is looked up but never hits.
Latency is timed from each request's due time, so a stall also delays
the requests queued behind it; the generator's own lateness is reported
beside it.

The rate is an assumed load point, not a measured one: high enough that
the micro-batcher's 2 ms gather window holds a few rows, low enough that
the whole process stays near half of its one core (bench/speed.py), so a
slow spell of the host does not push the core into saturation, as
2,000 req/s did.

CPU per request is divided by each 1 s slice's slowdown.  Latency is
not: much of it is the gather window, a timer that a slow core does not
stretch.  On the baseline host p50 grew about as the slowdown to the
power 0.35-0.45, so dividing by the slowdown would overcorrect.
"""

from __future__ import annotations

import queue
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from bench import inputs
from bench.harness import (
    Check, Phase, RegistryDelta, histogram_quantile, least_disturbed, ratio,
)
from bench.speed import SpeedProbe
from repro.obs import span
from repro.serve import ProfileService, ShedRequest
from repro.stream import FrozenProfile

SETUP_REPEATS = 2
RATE = 1000.0
WARMUP_S = 1.0
JITTER = 1e-4
CHECK_SAMPLE = 2000
RESULT_TIMEOUT_S = 10.0


@dataclass
class State:
    seed: int
    smoke: bool
    frozen: FrozenProfile
    service: ProfileService
    popularity: np.ndarray
    probe: SpeedProbe
    phases: int = 0
    layers: Dict[str, float] = field(default_factory=dict)


def setup(seed: int, smoke: bool, probe: SpeedProbe) -> State:
    ds, generate_s = inputs.dataset(seed, smoke)
    frozen = inputs.frozen_profile(ds, seed)
    return State(seed, smoke, frozen, ProfileService(frozen),
                 inputs.popularity(ds.totals[frozen.antenna_ids]), probe,
                 layers={"datagen.generate_s": generate_s})


def measure(state: State, seconds: float, traced: bool) -> Phase:
    state.phases += 1
    warmup = 0.5 if state.smoke else WARMUP_S
    n_warm = int(RATE * warmup)
    n = n_warm + int(RATE * seconds)
    rng = np.random.default_rng([state.seed, state.phases])
    reference = state.frozen.features
    rows = reference[rng.choice(reference.shape[0], n, p=state.popularity)]
    rows += rng.normal(0.0, JITTER, rows.shape)

    service = state.service
    lag = np.zeros(n)
    submit = np.zeros(n)
    done = np.full(n, np.nan)
    labels = np.full(n, -1)
    pending: "queue.SimpleQueue" = queue.SimpleQueue()

    def collect() -> None:
        while True:
            item = pending.get()
            if item is None:
                return
            i, handle = item
            try:
                with span("bench.result"):
                    labels[i] = handle.result(RESULT_TIMEOUT_S).labels[0]
            except (RuntimeError, TimeoutError):  # counted in `failed`
                continue
            done[i] = time.perf_counter()

    collector = threading.Thread(target=collect, name="bench-collector")
    collector.start()
    start = time.perf_counter() + 0.005
    due = start + np.arange(n) / RATE
    per_second = int(RATE)
    cpu_marks = []
    try:
        for i in range(n):
            if i == n_warm:
                before = service.metrics.registry.to_dict()
            if i >= n_warm and (i - n_warm) % per_second == 0:
                cpu_marks.append(time.process_time())
            delay = due[i] - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            try:
                with span("bench.submit"):
                    handle = service.submit(rows[i:i + 1])
            except ShedRequest:
                continue
            submit[i] = time.perf_counter() - sent
            lag[i] = sent - due[i]
            pending.put((i, handle))
    finally:
        pending.put(None)
        collector.join()
    cpu_marks.append(time.process_time())
    delta = RegistryDelta(before, service.metrics.registry.to_dict())

    window = slice(n_warm, n)
    ok = ~np.isnan(done[window])
    answered = int(ok.sum())
    latency_ms = (done[window] - due[window])[ok] * 1e3
    slices = (np.arange(n - n_warm) // per_second)[ok]
    slice_p50 = [float(np.median(latency_ms[slices == k])) for k in np.unique(slices)]
    slice_cpu = [float(cpu) / per_second * 1e3 for cpu in np.diff(cpu_marks)]
    bounds = list(due[n_warm::per_second]) + [due[-1] + 1.0 / RATE]
    slowdowns = [state.probe.slowdown(t0, t1) for t0, t1 in zip(bounds, bounds[1:])]
    return Phase(
        p50_ms=least_disturbed(slice_p50),
        cpu_ms_per_op=least_disturbed(slice_cpu, slowdowns),
        slowdown=statistics.median(slowdowns),
        attempted=n - n_warm,
        failed=n - n_warm - answered,
        gen_lag_p99_ms=float(np.percentile(lag[window], 99) * 1e3),
        slices={"p50_ms": slice_p50, "cpu_ms_per_op": slice_cpu, "slowdown": slowdowns},
        data={
            "rows": rows[window][ok],
            "labels": labels[window][ok],
            "latency_ms": latency_ms,
            "lag_ms": lag[window][ok] * 1e3,
            "submit_us": submit[window][ok] * 1e6,
            "delta": delta,
        },
    )


def check(state: State, phase: Phase) -> List[Check]:
    rows, labels = phase.data["rows"], phase.data["labels"]
    rng = np.random.default_rng([state.seed, 99])
    sample = rng.choice(labels.size, min(CHECK_SAMPLE, labels.size), replace=False)
    oracle = state.frozen.vote(rows[sample])
    wrong = int(np.sum(oracle != labels[sample]))
    return [Check("labels_match_object_forest", wrong == 0,
                  f"{wrong} of {sample.size} sampled answers differ")]


def serve_stages(delta: RegistryDelta, requests: int) -> Dict[str, float]:
    """Scheduler, kernel and cache numbers from one service's registry."""
    _, service_sum, served = delta.histogram("repro_serve_request_latency_seconds")
    wait_buckets, wait_sum, waits = delta.histogram("repro_serve_queue_wait_seconds")
    _, assembly_sum, assemblies = delta.histogram("repro_serve_batch_assembly_seconds")
    _, rows, batches = delta.histogram("repro_serve_batch_rows")
    vote_s, votes = delta.stage("serve.vote")
    kernel_s, kernels = delta.stage("serve.kernel_vote")
    hits = delta.counter("repro_serve_cache_hits_total")
    misses = delta.counter("repro_serve_cache_misses_total")
    return {
        "serve.service_ms": ratio(service_sum, served) * 1e3,
        "serve.cache_hit_share": ratio(hits, hits + misses),
        "serve.shed_share": ratio(delta.counter("repro_serve_shed_requests_total"),
                                  requests),
        "serve.queue_wait_p50_ms": histogram_quantile(wait_buckets, 0.50) * 1e3,
        "serve.queue_wait_p99_ms": histogram_quantile(wait_buckets, 0.99) * 1e3,
        "serve.assembly_ms": ratio(assembly_sum, assemblies) * 1e3,
        "serve.batch_rows_mean": ratio(rows, batches),
        "serve.vote_ms": ratio(vote_s, votes) * 1e3,
        "ml.kernel_vote_ms": ratio(kernel_s, kernels) * 1e3,
        "ml.kernel_us_per_row": ratio(kernel_s, rows) * 1e6,
        # Per request: queue wait, plus one batch vote for each request
        # that reached the batcher (cache hits skip both).
        "wait_and_vote_ms": ratio(wait_sum + ratio(vote_s, votes) * waits,
                                  requests) * 1e3,
    }


def layers(state: State, phase: Phase) -> Dict[str, float]:
    data = phase.data
    latency = data["latency_ms"]
    stages = serve_stages(data["delta"], latency.size)
    attributed = (data["lag_ms"].mean() + data["submit_us"].mean() / 1e3
                  + stages.pop("wait_and_vote_ms"))
    unattributed = latency.mean() - attributed
    return {
        **state.layers,
        **stages,
        "serve.submit_us": float(np.median(data["submit_us"])),
        "serve.p99_ms": float(np.percentile(latency, 99)),
        "bench.latency_samples": latency.size,
        "bench.unattributed_ms": unattributed,
        "bench.unattributed_share": unattributed / latency.mean(),
    }


def close(state: State) -> None:
    state.service.close()
