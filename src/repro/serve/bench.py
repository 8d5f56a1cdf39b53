"""Serving throughput/latency benchmark harness.

:func:`run_serve_benchmark` drives a :class:`ProfileService` through
three workloads against one :class:`FrozenProfile` and returns a
JSON-serializable report (the CLI's ``bench-serve`` writes it to
``BENCH_serve.json``, the repo's recorded perf baseline):

* **unbatched** — single-vector queries issued strictly sequentially
  against a ``max_batch=1`` service: the no-concurrency floor;
* **batched** — the same query count submitted asynchronously (many in
  flight) against micro-batching services at several worker-pool sizes:
  demonstrates the vectorization win;
* **cached** — a hot working set replayed through the LRU+TTL cache to
  measure the hit-rate path.

Caching is disabled in the first two workloads so the speedup isolates
micro-batching, not memoization.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.serve.service import ProfileService
from repro.stream.frozen import FrozenProfile

#: Worker-pool sizes the standard report sweeps.
DEFAULT_WORKER_COUNTS = (1, 4, 8)


def _derived(snapshot: Dict[str, object]) -> Dict[str, float]:
    """The snapshot's derived-latency block, shape-checked for typing."""
    derived = snapshot["derived"]
    assert isinstance(derived, dict)
    return derived


def _query_pool(frozen: FrozenProfile, n_queries: int,
                seed: int = 0) -> np.ndarray:
    """Single-vector queries cycled from the profile's own feature rows.

    Re-using training rows keeps the workload realistic (RSCA-scaled)
    and the expected answers checkable against ``frozen.vote``.
    """
    rows = np.arange(n_queries) % frozen.features.shape[0]
    rng = np.random.default_rng(seed)
    jitter = rng.normal(0.0, 1e-4, size=(n_queries, frozen.features.shape[1]))
    return np.clip(frozen.features[rows] + jitter, -1.0, 1.0)


def _bench_unbatched(frozen: FrozenProfile, queries: np.ndarray) -> Dict[str, float]:
    with ProfileService(
        frozen, max_batch=1, n_workers=1, cache_size=0,
        max_queue_depth=max(16, queries.shape[0]),
    ) as service:
        start = time.perf_counter()
        for row in range(queries.shape[0]):
            service.classify(queries[row:row + 1])
        elapsed = time.perf_counter() - start
        derived = _derived(service.metrics_snapshot())
    return {
        "qps": queries.shape[0] / elapsed,
        "elapsed_s": elapsed,
        "p50_ms": derived["p50_ms"],
        "p95_ms": derived["p95_ms"],
        "mean_batch_size": derived["mean_batch_size"],
    }


def _bench_batched(
    frozen: FrozenProfile,
    queries: np.ndarray,
    n_workers: int,
    max_batch: int,
    window: int = 512,
) -> Dict[str, float]:
    """Async single-vector submissions with a bounded in-flight window."""
    n = queries.shape[0]
    with ProfileService(
        frozen, max_batch=max_batch, n_workers=n_workers, cache_size=0,
        max_queue_depth=max(window * 2, 16),
    ) as service:
        start = time.perf_counter()
        pending = []
        for row in range(n):
            pending.append(service.submit(queries[row:row + 1]))
            if len(pending) >= window:
                for handle in pending:
                    handle.result(timeout=60.0)
                pending = []
        for handle in pending:
            handle.result(timeout=60.0)
        elapsed = time.perf_counter() - start
        derived = _derived(service.metrics_snapshot())
    return {
        "workers": n_workers,
        "qps": n / elapsed,
        "elapsed_s": elapsed,
        "p50_ms": derived["p50_ms"],
        "p95_ms": derived["p95_ms"],
        "mean_batch_size": derived["mean_batch_size"],
    }


def _bench_cached(
    frozen: FrozenProfile,
    queries: np.ndarray,
    hot_set: int,
    max_batch: int,
) -> Dict[str, float]:
    """Replay a small working set so most lookups hit the cache."""
    n = queries.shape[0]
    hot = queries[: max(1, min(hot_set, n))]
    with ProfileService(
        frozen, max_batch=max_batch, n_workers=2,
        cache_size=4 * hot.shape[0], max_queue_depth=max(n, 16),
    ) as service:
        start = time.perf_counter()
        for row in range(n):
            service.classify(hot[row % hot.shape[0]:row % hot.shape[0] + 1])
        elapsed = time.perf_counter() - start
        derived = _derived(service.metrics_snapshot())
    return {
        "qps": n / elapsed,
        "hit_rate": derived["cache_hit_rate"],
        "p50_ms": derived["p50_ms"],
        "p95_ms": derived["p95_ms"],
    }


def run_serve_benchmark(
    frozen: FrozenProfile,
    n_queries: int = 2000,
    worker_counts: Sequence[int] = DEFAULT_WORKER_COUNTS,
    max_batch: int = 64,
    hot_set: int = 64,
    seed: int = 0,
    extra: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Run the three workloads and assemble the perf report.

    Returns a dict with ``unbatched``, ``batched`` (one entry per worker
    count), ``cached`` sections plus the headline ``speedup`` =
    best batched qps / unbatched qps.
    """
    if n_queries < 1:
        raise ValueError(f"n_queries must be >= 1, got {n_queries}")
    queries = _query_pool(frozen, n_queries, seed=seed)
    unbatched = _bench_unbatched(frozen, queries)
    batched: List[Dict[str, float]] = [
        _bench_batched(frozen, queries, workers, max_batch)
        for workers in worker_counts
    ]
    cached = _bench_cached(frozen, queries, hot_set, max_batch)
    best_qps = max(entry["qps"] for entry in batched)
    report: Dict[str, object] = {
        "config": {
            "n_queries": int(n_queries),
            "worker_counts": [int(w) for w in worker_counts],
            "max_batch": int(max_batch),
            "hot_set": int(hot_set),
            "n_reference_antennas": int(frozen.features.shape[0]),
            "n_services": int(frozen.features.shape[1]),
            "n_clusters": int(frozen.n_clusters),
        },
        "unbatched": unbatched,
        "batched": batched,
        "cached": cached,
        "speedup": best_qps / unbatched["qps"] if unbatched["qps"] else 0.0,
    }
    if extra:
        report.update(extra)
    return report


def format_report(report: Dict[str, object]) -> str:
    """Human-readable view of :func:`run_serve_benchmark`'s output."""
    config = report["config"]
    unbatched = report["unbatched"]
    batched = report["batched"]
    cached = report["cached"]
    speedup = report["speedup"]
    assert isinstance(config, dict) and isinstance(unbatched, dict)
    assert isinstance(batched, list) and isinstance(cached, dict)
    assert isinstance(speedup, (int, float))
    lines = [
        f"serve benchmark — {config['n_reference_antennas']} reference "
        f"antennas, {config['n_services']} services, "
        f"{config['n_queries']} queries",
        f"unbatched:  {unbatched['qps']:,.0f} qps "
        f"(p95 {unbatched['p95_ms']:.2f} ms)",
    ]
    for entry in batched:
        lines.append(
            f"batched x{entry['workers']}: {entry['qps']:,.0f} qps "
            f"(p95 {entry['p95_ms']:.2f} ms, "
            f"mean batch {entry['mean_batch_size']:.1f})"
        )
    hit_rate = cached["hit_rate"]
    hit_text = f"{hit_rate:.1%}" if hit_rate is not None else "n/a"
    lines.append(
        f"cached:     {cached['qps']:,.0f} qps "
        f"(hit rate {hit_text})"
    )
    lines.append(f"micro-batching speedup: {speedup:.1f}x")
    return "\n".join(lines)
