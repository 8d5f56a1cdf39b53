"""Serving-side counters and request-lifecycle histograms.

:class:`ServeMetrics` is the serving counterpart of
:class:`repro.stream.metrics.StreamMetrics`: where the stream metrics
describe an ingestion node, these describe a query-serving node — request
and query counts, cache hits/misses, shed (load-rejected) requests, and
histograms of request latency, queue wait, batch assembly and rows per
batch (whose count is the number of executed micro-batches).  Both
classes export the same ``to_dict()`` JSON shape (``counters`` /
``derived`` sections) so one dashboard can scrape either node type.

The class is a thin facade over a :class:`repro.obs.MetricsRegistry`:
every counter is a registry counter family (``repro_serve_<name>_total``)
held as its bound child, and ``registry.prometheus_text()`` renders the
whole node state in the Prometheus text format for the serve endpoint's
``GET /metrics``.  The ``cache_hits``/``cache_misses`` counters are the
node's only cache hit count.  The exposition carries only recorded
series: request rate, hit rate and latency quantiles over time are the
TSDB's ``rate()`` and ``quantile()`` over them.  ``to_dict()``'s
``derived`` section reads the p50/p95/p99 latencies and the mean batch
size from the histograms; quantiles are interpolated inside the
request-latency buckets, so they are estimates at bucket resolution,
the same ones the TSDB's ``quantile()`` gives.
Each instance owns a private registry by default so independent
services stay independent; pass a shared registry explicitly to merge
several components onto one exposition surface.

All mutators are thread-safe: the serving layer updates metrics from
worker threads, HTTP handler threads, and client threads concurrently.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Dict, Optional

from repro.obs.registry import (
    LATENCY_BUCKETS,
    MetricsRegistry,
    _format_value,
    bucket_quantile,
)
from repro.obs.trace import current_trace_id

#: Bucket bounds of the rows-per-batch exposition histogram.
BATCH_ROW_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256)

#: The reported latency quantiles by label (``to_dict()`` appends
#: ``_ms``).
QUANTILES = {"p50": 0.5, "p95": 0.95, "p99": 0.99}


class ServeMetrics:
    """Counters and latency/batch histograms for one server.

    Args:
        registry: back the metrics onto this
            :class:`~repro.obs.MetricsRegistry` (a fresh private one by
            default).  Sharing a registry between components merges them
            onto one Prometheus exposition surface.
    """

    #: Counter names, in reporting order.
    COUNTERS = (
        "requests",
        "vectors_classified",
        "cache_hits",
        "cache_misses",
        "shed_requests",
        "errors",
        "reloads",
    )

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._counters = {
            name: self.registry.counter(
                f"repro_serve_{name}_total",
                f"Serving counter: {name.replace('_', ' ')}",
            ).labels()
            for name in self.COUNTERS
        }
        self._lock = threading.Lock()
        self._latency_hist = self.registry.histogram(
            "repro_serve_request_latency_seconds",
            "End-to-end request latency",
            buckets=LATENCY_BUCKETS,
        ).labels()
        self._queue_wait_hist = self.registry.histogram(
            "repro_serve_queue_wait_seconds",
            "Time requests spent queued before batch execution",
            buckets=LATENCY_BUCKETS,
        ).labels()
        self._assembly_hist = self.registry.histogram(
            "repro_serve_batch_assembly_seconds",
            "Queue drain spent assembling each micro-batch",
            buckets=LATENCY_BUCKETS,
        ).labels()
        self._batch_rows_hist = self.registry.histogram(
            "repro_serve_batch_rows",
            "Stacked rows per executed micro-batch",
            buckets=BATCH_ROW_BUCKETS,
        ).labels()
        self._first_request: Optional[float] = None
        self._last_request: Optional[float] = None

    def incr(self, name: str, amount: int = 1) -> None:
        """Increment one counter (KeyError for an unknown name)."""
        self._counters[name].inc(amount)

    def count(self, name: str) -> int:
        """Current value of one counter (KeyError for an unknown name)."""
        return int(self._counters[name].value)

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
        # With tracing on, the active trace id rides along as the
        # histogram exemplar, so a latency-SLO violation names the
        # exact trace to replay.  One thread-local read per request.
        self._latency_hist.observe(
            latency_seconds, exemplar=current_trace_id()
        )

    def observe_batch(self, n_rows: int) -> None:
        """Record one executed micro-batch of ``n_rows`` stacked vectors."""
        self._batch_rows_hist.observe(n_rows)

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

    def batch_size_histogram(self) -> Dict[float, int]:
        """Rows-per-batch bucket upper bound -> batch count (non-empty only).

        Read from ``repro_serve_batch_rows``, whose bounds are powers of
        two: a batch of 3 rows counts under 4.
        """
        counts, _, _ = self._batch_rows_hist.snapshot()
        bounds = self._batch_rows_hist.buckets + (math.inf,)
        return {bound: n for bound, n in zip(bounds, counts) if n}

    def mean_batch_size(self) -> float:
        """Average rows per executed micro-batch (0.0 before any batch)."""
        _, rows, batches = self._batch_rows_hist.snapshot()
        return rows / batches if batches else 0.0

    def latency_quantiles_ms(self) -> Dict[str, float]:
        """p50/p95/p99 request latency in ms from one histogram snapshot.

        Interpolated inside the request-latency buckets; 0.0 before the
        first request.
        """
        buckets = self._latency_hist.cumulative_buckets()
        return {
            f"{label}_ms": (bucket_quantile(q, buckets) or 0.0) * 1e3
            for label, q in QUANTILES.items()
        }

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def summary(self) -> str:
        """Human-readable metrics block."""
        hit_rate = self.cache_hit_rate()
        quantiles = self.latency_quantiles_ms()
        _, _, batches = self._batch_rows_hist.snapshot()
        lines = [
            f"requests served:   {self.count('requests')} "
            f"({self.qps():,.0f} qps)",
            f"vectors classified: {self.count('vectors_classified')}",
            f"micro-batches:     {batches} "
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
        histogram = {
            _format_value(bound): n
            for bound, n in self.batch_size_histogram().items()
        }
        hit_rate = self.cache_hit_rate()
        derived: Dict[str, object] = {
            "qps": self.qps(),
            "mean_batch_size": self.mean_batch_size(),
            "cache_hit_rate": hit_rate,
        }
        derived.update(self.latency_quantiles_ms())
        return {
            "counters": counters,
            "batch_size_histogram": histogram,
            "derived": derived,
            # Monotonic stamp so TSDB ingestion can reject a stale
            # (cached / re-served) snapshot: any fresh read has a
            # strictly larger value within a process.
            "snapshot_ts": time.monotonic(),
        }
