"""Serving-side counters, latency reservoir, and batch-size histogram.

:class:`ServeMetrics` is the serving counterpart of
:class:`repro.stream.metrics.StreamMetrics`: where the stream metrics
describe an ingestion node, these describe a query-serving node — request
and query counts, executed micro-batches with their size distribution,
cache hits/misses, shed (load-rejected) requests, and a bounded
reservoir of per-request latencies from which p50/p95/p99 are derived.
Both classes export the same ``to_dict()`` JSON shape (``counters`` /
``derived`` sections) so one dashboard can scrape either node type.

Since the observability layer landed, both classes are thin facades over
a :class:`repro.obs.MetricsRegistry`: every counter is a registry
counter family (``repro_serve_<name>_total``), latencies and the new
request-lifecycle timings (queue wait, batch assembly) additionally feed
registry histograms, and :meth:`ServeMetrics.prometheus_text` renders
the whole node state in the Prometheus text format for the serve
endpoint's ``GET /metrics``.  Each instance owns a private registry by
default so independent services stay independent; pass a shared
registry explicitly to merge several components onto one exposition
surface.

All mutators are thread-safe: the serving layer updates metrics from
worker threads, HTTP handler threads, and client threads concurrently.
Audit note: quantile reads (:meth:`LatencyReservoir.quantiles_ms`) now
sort **one** locked snapshot of the reservoir instead of re-locking per
percentile, so the reported p50/p95/p99 trio is always internally
consistent even while worker threads keep swapping reservoir slots.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Dict, List, Optional, Sequence

from repro.obs.registry import MetricsRegistry
from repro.obs.trace import current_trace_id

#: Default number of latency samples the reservoir retains.
DEFAULT_RESERVOIR_SIZE = 2048

#: Bucket bounds of the exposition latency histograms (seconds).
LATENCY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0,
)

#: Bucket bounds of the rows-per-batch exposition histogram.
BATCH_ROW_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256)


class LatencyReservoir:
    """Fixed-size uniform reservoir of latency samples (seconds).

    Keeps at most ``capacity`` samples via Vitter's algorithm R, so the
    retained set is a uniform sample of everything observed; quantiles
    over the reservoir estimate quantiles of the full latency stream
    without unbounded memory.  The replacement RNG is seeded, so a
    replayed request sequence yields the same reservoir.
    """

    def __init__(self, capacity: int = DEFAULT_RESERVOIR_SIZE,
                 seed: int = 0xA5) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        self._samples: List[float] = []
        self._seen = 0
        self._rng = random.Random(seed)
        self._lock = threading.Lock()

    def observe(self, seconds: float) -> None:
        """Fold one latency sample into the reservoir.

        The seen-count bump, slot draw, and slot swap happen under one
        lock acquisition — concurrent observers can never double-assign
        a slot or skew the replacement probability.
        """
        value = float(seconds)
        with self._lock:
            self._seen += 1
            if len(self._samples) < self.capacity:
                self._samples.append(value)
            else:
                slot = self._rng.randrange(self._seen)
                if slot < self.capacity:
                    self._samples[slot] = value

    @property
    def n_seen(self) -> int:
        """Total samples observed (retained or not)."""
        with self._lock:
            return self._seen

    def snapshot(self) -> List[float]:
        """Sorted copy of the retained samples (one lock acquisition)."""
        with self._lock:
            return sorted(self._samples)

    @staticmethod
    def _percentile_of(samples: Sequence[float], q: float) -> float:
        if not samples:
            return 0.0
        if len(samples) == 1:
            return samples[0]
        rank = (q / 100.0) * (len(samples) - 1)
        low = int(rank)
        high = min(low + 1, len(samples) - 1)
        frac = rank - low
        return samples[low] * (1.0 - frac) + samples[high] * frac

    def percentile(self, q: float) -> float:
        """Linear-interpolated percentile ``q`` in [0, 100] (0.0 if empty)."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        return self._percentile_of(self.snapshot(), q)

    def quantiles_ms(self) -> Dict[str, float]:
        """The dashboard trio — p50/p95/p99 in milliseconds.

        All three quantiles come from a single locked snapshot, so the
        trio is internally consistent under concurrent observers (the
        old per-percentile locking could interleave reservoir swaps
        between the p50 and p99 reads).
        """
        samples = self.snapshot()
        return {
            "p50_ms": self._percentile_of(samples, 50.0) * 1e3,
            "p95_ms": self._percentile_of(samples, 95.0) * 1e3,
            "p99_ms": self._percentile_of(samples, 99.0) * 1e3,
        }


class ServeMetrics:
    """Counters, latency reservoir, and batch histogram for one server.

    Args:
        reservoir_size: latency reservoir capacity.
        registry: back the metrics onto this
            :class:`~repro.obs.MetricsRegistry` (a fresh private one by
            default).  Sharing a registry between components merges them
            onto one Prometheus exposition surface.
    """

    #: Counter names, in reporting order.
    COUNTERS = (
        "requests",
        "vectors_classified",
        "batches_executed",
        "cache_hits",
        "cache_misses",
        "shed_requests",
        "errors",
        "reloads",
    )

    def __init__(self, reservoir_size: int = DEFAULT_RESERVOIR_SIZE,
                 registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._counters = {
            name: self.registry.counter(
                f"repro_serve_{name}_total",
                f"Serving counter: {name.replace('_', ' ')}",
            )
            for name in self.COUNTERS
        }
        self._batch_sizes: Dict[int, int] = {}
        self._lock = threading.Lock()
        self.latency = LatencyReservoir(reservoir_size)
        self._latency_hist = self.registry.histogram(
            "repro_serve_request_latency_seconds",
            "End-to-end request latency",
            buckets=LATENCY_BUCKETS,
        )
        self._queue_wait_hist = self.registry.histogram(
            "repro_serve_queue_wait_seconds",
            "Time requests spent queued before batch execution",
            buckets=LATENCY_BUCKETS,
        )
        self._assembly_hist = self.registry.histogram(
            "repro_serve_batch_assembly_seconds",
            "Queue drain spent assembling each micro-batch",
            buckets=LATENCY_BUCKETS,
        )
        self._batch_rows_hist = self.registry.histogram(
            "repro_serve_batch_rows",
            "Stacked rows per executed micro-batch",
            buckets=BATCH_ROW_BUCKETS,
        )
        self._first_request: Optional[float] = None
        self._last_request: Optional[float] = None
        # Scrape-time gauges: evaluated at exposition, never stored.
        self.registry.gauge(
            "repro_serve_qps", "Completed requests per second"
        ).set_function(self.qps)
        self.registry.gauge(
            "repro_serve_cache_hit_rate",
            "Fraction of vector lookups answered from cache (0 before any)",
        ).set_function(lambda: self.cache_hit_rate() or 0.0)
        quantile_gauge = self.registry.gauge(
            "repro_serve_latency_ms",
            "Reservoir latency quantiles in milliseconds",
            labelnames=("quantile",),
        )
        for q in (50.0, 95.0, 99.0):
            quantile_gauge.labels(quantile=f"p{q:.0f}").set_function(
                lambda q=q: self.latency.percentile(q) * 1e3
            )

    def incr(self, name: str, amount: int = 1) -> None:
        """Increment one counter."""
        counter = self._counters.get(name)
        if counter is None:
            raise KeyError(f"unknown counter {name!r}")
        counter.inc(int(amount))

    def count(self, name: str) -> int:
        """Current value of one counter."""
        counter = self._counters.get(name)
        if counter is None:
            raise KeyError(f"unknown counter {name!r}")
        return int(counter.value)

    def observe_request(self, latency_seconds: float,
                        n_vectors: int = 1) -> None:
        """Record one completed request and its end-to-end latency."""
        now = time.perf_counter()
        self._counters["requests"].inc()
        self._counters["vectors_classified"].inc(int(n_vectors))
        with self._lock:
            if self._first_request is None:
                self._first_request = now
            self._last_request = now
        self.latency.observe(latency_seconds)
        # With tracing on, the active trace id rides along as the
        # histogram exemplar, so a latency-SLO violation names the
        # exact trace to replay.  One thread-local read per request.
        self._latency_hist.observe(
            latency_seconds, exemplar=current_trace_id()
        )

    def observe_batch(self, n_rows: int) -> None:
        """Record one executed micro-batch of ``n_rows`` stacked vectors."""
        rows = int(n_rows)
        self._counters["batches_executed"].inc()
        self._batch_rows_hist.observe(rows)
        with self._lock:
            self._batch_sizes[rows] = self._batch_sizes.get(rows, 0) + 1

    def observe_queue_wait(self, seconds: float) -> None:
        """Record one request's queue wait (submit -> batch execution)."""
        self._queue_wait_hist.observe(seconds)

    def observe_assembly(self, seconds: float) -> None:
        """Record one micro-batch's assembly (queue drain) time."""
        self._assembly_hist.observe(seconds)

    # ------------------------------------------------------------------
    # Derived rates
    # ------------------------------------------------------------------

    def qps(self) -> float:
        """Completed requests per second over the observed request span."""
        requests = self.count("requests")
        with self._lock:
            first, last = self._first_request, self._last_request
        if requests < 2 or first is None or last is None or last <= first:
            return 0.0
        return requests / (last - first)

    def cache_hit_rate(self) -> Optional[float]:
        """Fraction of vector lookups answered from cache (None if no lookups)."""
        hits = self.count("cache_hits")
        misses = self.count("cache_misses")
        total = hits + misses
        return hits / total if total else None

    def batch_size_histogram(self) -> Dict[int, int]:
        """Rows-per-batch -> batch count."""
        with self._lock:
            return dict(self._batch_sizes)

    def mean_batch_size(self) -> float:
        """Average rows per executed micro-batch (0.0 before any batch)."""
        batches = self.count("batches_executed")
        with self._lock:
            total = sum(size * n for size, n in self._batch_sizes.items())
        return total / batches if batches else 0.0

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def summary(self) -> str:
        """Human-readable metrics block."""
        hit_rate = self.cache_hit_rate()
        quantiles = self.latency.quantiles_ms()
        lines = [
            f"requests served:   {self.count('requests')} "
            f"({self.qps():,.0f} qps)",
            f"vectors classified: {self.count('vectors_classified')}",
            f"micro-batches:     {self.count('batches_executed')} "
            f"(mean size {self.mean_batch_size():.1f})",
            f"latency:           p50 {quantiles['p50_ms']:.2f} ms, "
            f"p95 {quantiles['p95_ms']:.2f} ms, "
            f"p99 {quantiles['p99_ms']:.2f} ms",
            f"cache hit rate:    "
            + (f"{hit_rate:.1%}" if hit_rate is not None else "n/a"),
            f"shed requests:     {self.count('shed_requests')}",
            f"errors:            {self.count('errors')}",
            f"profile reloads:   {self.count('reloads')}",
        ]
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable snapshot (same shape as StreamMetrics)."""
        counters = {name: self.count(name) for name in self.COUNTERS}
        with self._lock:
            histogram = {str(k): v for k, v in sorted(self._batch_sizes.items())}
        hit_rate = self.cache_hit_rate()
        derived: Dict[str, object] = {
            "qps": self.qps(),
            "mean_batch_size": self.mean_batch_size(),
            "cache_hit_rate": hit_rate,
        }
        derived.update(self.latency.quantiles_ms())
        return {
            "counters": counters,
            "batch_size_histogram": histogram,
            "derived": derived,
            # Monotonic stamp so TSDB ingestion can reject a stale
            # (cached / re-served) snapshot: any fresh read has a
            # strictly larger value within a process.
            "snapshot_ts": time.monotonic(),
        }

    def prometheus_text(self) -> str:
        """This node's registry in the Prometheus text exposition format."""
        return self.registry.prometheus_text()
