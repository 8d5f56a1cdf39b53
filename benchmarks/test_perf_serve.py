"""Performance benchmarks of the concurrent query-serving subsystem.

Times the serving hot paths statistically (multi-round, like
``test_perf_stream.py``): unbatched single-vector classification,
micro-batched throughput with many requests in flight, cache-hit
latency on a hot working set, and the full ``run_serve_benchmark``
harness at reduced scale.  Throughputs are recorded in
``benchmark.extra_info`` rather than asserted — absolute numbers vary
with CI hardware; the committed ``BENCH_serve.json`` records the
calibrated run.
"""

import numpy as np
import pytest

from repro.core.cluster import AgglomerativeClustering
from repro.core.rca import rsca
from repro.ml.forest import RandomForestClassifier
from repro.serve import ProfileService, run_serve_benchmark
from repro.stream import FrozenProfile

N_ANTENNAS = 800
N_SERVICES = 73
N_QUERIES = 400

SERVICES = tuple(f"service_{j}" for j in range(N_SERVICES))


@pytest.fixture(scope="module")
def frozen():
    """A frozen profile at streaming-benchmark scale (800 x 73)."""
    rng = np.random.default_rng(0)
    totals = rng.lognormal(0.0, 1.0, size=(N_ANTENNAS, N_SERVICES))
    features = rsca(totals)
    labels = AgglomerativeClustering(n_clusters=9,
                                     linkage="ward").fit_predict(features)
    surrogate = RandomForestClassifier(n_estimators=20, max_depth=6,
                                       random_state=0)
    surrogate.fit(features, labels)
    clusters = np.unique(labels)
    centroids = np.vstack(
        [features[labels == c].mean(axis=0) for c in clusters]
    )
    return FrozenProfile(
        features=features,
        labels=labels,
        antenna_ids=np.arange(N_ANTENNAS, dtype=np.int64),
        clusters=clusters,
        centroids=centroids,
        service_names=SERVICES,
        surrogate=surrogate,
        service_totals=totals.sum(axis=0),
    )


@pytest.fixture(scope="module")
def queries(frozen):
    """A block of single-row queries cycled from the training features."""
    rng = np.random.default_rng(1)
    rows = frozen.features[rng.integers(0, N_ANTENNAS, size=N_QUERIES)]
    return rows + rng.normal(0.0, 1e-4, size=rows.shape)


def test_perf_unbatched_classify(benchmark, frozen, queries):
    """Sequential single-vector queries with batching disabled."""
    with ProfileService(frozen, max_batch=1, n_workers=1,
                        cache_size=0) as service:

        def drain():
            done = 0
            for row in queries:
                done += service.classify(row[None, :]).n_vectors
            return done

        done = benchmark(drain)
    assert done == N_QUERIES
    if benchmark.stats is not None:
        benchmark.extra_info["qps"] = N_QUERIES / benchmark.stats.stats.mean


def test_perf_batched_throughput(benchmark, frozen, queries):
    """Async submission keeps the micro-batcher full; vectorized vote."""
    with ProfileService(frozen, max_batch=64,
                        n_workers=4, max_queue_depth=4096,
                        cache_size=0) as service:

        def drain():
            pending = [service.submit(row[None, :]) for row in queries]
            return sum(p.result(timeout=60.0).n_vectors for p in pending)

        done = benchmark(drain)
    assert done == N_QUERIES
    if benchmark.stats is not None:
        benchmark.extra_info["qps"] = N_QUERIES / benchmark.stats.stats.mean
    benchmark.extra_info["mean_batch_size"] = (
        service.metrics.mean_batch_size()
    )


def test_perf_cache_hit_latency(benchmark, frozen):
    """Repeated hot-set queries answered from the LRU cache."""
    hot = frozen.features[:64]
    with ProfileService(frozen, max_batch=64, n_workers=2,
                        cache_size=4096) as service:
        service.classify(hot)  # warm the cache

        def replay():
            return service.classify(hot).n_cached

        cached = benchmark(replay)
    assert cached == 64
    benchmark.extra_info["hit_rate"] = service.cache.stats()["hit_rate"]


def test_perf_serve_harness(benchmark, frozen):
    """The full bench-serve harness at reduced scale, single round."""
    report = benchmark.pedantic(
        lambda: run_serve_benchmark(frozen, n_queries=300,
                                    worker_counts=(1, 4),
                                    max_batch=64, hot_set=32),
        rounds=1, iterations=1, warmup_rounds=0,
    )
    assert report["unbatched"]["qps"] > 0
    # First pass over the hot set misses compulsorily: 268/300 hits.
    assert report["cached"]["hit_rate"] > 0.8
    benchmark.extra_info["speedup"] = report["speedup"]
    benchmark.extra_info["best_batched_qps"] = max(
        entry["qps"] for entry in report["batched"]
    )
