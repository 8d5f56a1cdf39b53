"""The profile-serving facade: registry + micro-batcher + cache + metrics.

:class:`ProfileService` is the serving engine behind the HTTP endpoint
(:mod:`repro.serve.http`); callers in the same process use it directly.
It answers three query types against the registry's current
:class:`FrozenProfile` version:

* ``classify`` — label RSCA feature vectors;
* ``classify_volumes`` — label raw per-service traffic volumes; the
  service applies the frozen reference's
  :func:`repro.core.rca.rca_from_components` transform first, so clients
  need not know the network-wide service mix;
* ``cluster_summaries`` — per-cluster occupancy and centroids of the
  reference partition.

Requests flow cache -> admission -> micro-batch -> vote.  Version
consistency is guaranteed per answer: every label in one
:class:`ClassifyResult` comes from a single profile version.  When a hot
swap lands between a request's cache lookup and its batch execution, the
service transparently re-classifies the whole request against the new
version instead of mixing cached old-version labels with fresh ones.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.obs import get_logger, span
from repro.relia.degrade import ServeDegradePolicy
from repro.relia.retry import CircuitBreaker
from repro.serve.cache import DEFAULT_DECIMALS, ResultCache, quantize_keys
from repro.serve.metrics import ServeMetrics
from repro.serve.registry import ProfileRegistry
from repro.serve.scheduler import MicroBatcher, ShedRequest
from repro.stream.frozen import FrozenProfile
from repro.utils.checks import check_matrix

__all__ = [
    "ClassifyResult",
    "PendingClassify",
    "ProfileService",
    "ServeDegradePolicy",
    "ShedRequest",
]

_log = get_logger("repro.serve.service")

#: The empty row set: no cache hits, or no rows voted fresh.
_NO_ROWS = np.empty(0, dtype=int)


@dataclass(frozen=True)
class ClassifyResult:
    """One answered classification request.

    Attributes:
        labels: cluster label per query vector.
        version: the single profile version every label came from.
        cached: per-vector flag — True where the label was served from
            the result cache.
        degraded: True when the answer came from the nearest-centroid
            fallback path (worker pool unhealthy) instead of the full
            forest vote — a best-effort label, not full fidelity.
    """

    labels: np.ndarray
    version: int
    cached: np.ndarray
    degraded: bool = False

    @property
    def n_vectors(self) -> int:
        """Number of query vectors answered."""
        return int(self.labels.size)

    @property
    def n_cached(self) -> int:
        """How many of them were cache hits."""
        return int(np.sum(self.cached))


class PendingClassify:
    """Handle for an in-flight request; ``result()`` blocks for the answer.

    Created by :meth:`ProfileService.submit` /
    :meth:`ProfileService.submit_volumes`; the asynchronous form lets
    benchmarks and the HTTP layer keep many requests in flight so the
    micro-batcher actually has co-riders to aggregate.  The cache pass
    splits the request's rows into ``hit_rows`` (answered by
    ``hit_labels``) and ``missing`` (sent to the batcher as ``item``;
    no ``item`` for missing rows means the breaker was open, so they are
    answered from the nearest centroids).
    """

    def __init__(
        self,
        service: "ProfileService",
        features: np.ndarray,
        keys: List[bytes],
        hit_rows: np.ndarray,
        hit_labels: np.ndarray,
        item,
        missing: np.ndarray,
        version: int,
        started_at: float,
    ) -> None:
        self._service = service
        self._features = features
        self._keys = keys
        self._hit_rows = hit_rows
        self._hit_labels = hit_labels
        self._item = item
        self._missing = missing
        self._version = version
        self._started_at = started_at

    def _answer(self, fresh: np.ndarray, version: int,
                degraded: bool = False) -> ClassifyResult:
        """Assemble cache hits and fresh labels into one recorded answer."""
        n = self._features.shape[0]
        labels = np.empty(n, dtype=int)
        labels[self._missing] = fresh
        labels[self._hit_rows] = self._hit_labels
        cached = np.zeros(n, dtype=bool)
        cached[self._hit_rows] = True
        self._service.metrics.observe_request(
            time.perf_counter() - self._started_at, n_vectors=n
        )
        return ClassifyResult(labels=labels, version=int(version),
                              cached=cached, degraded=degraded)

    def _fallback(self) -> ClassifyResult:
        """Answer from nearest centroids, marked degraded (never cached)."""
        service = self._service
        rows = self._features[self._missing]
        with span("serve.degraded_vote", registry=service.metrics.registry,
                  rows=int(rows.shape[0])):
            with service.registry.acquire() as (version, profile):
                fresh = profile.nearest_centroids(rows)
        service._degraded_total.inc()
        return self._answer(fresh, version, degraded=True)

    def result(self, timeout: Optional[float] = None) -> ClassifyResult:
        """Block until classified; returns a version-consistent answer.

        Under an active :class:`ServeDegradePolicy`, a request whose
        batch died with the worker pool (crashes, vote failures) is
        answered from the nearest-centroid path with ``degraded=True``
        instead of raising — callers always get *an* answer or a typed
        admission error, never a silent drop.
        """
        service = self._service
        if self._item is None and self._missing.size:
            return self._fallback()
        fresh, version = _NO_ROWS, self._version
        try:
            if self._item is not None:
                fresh, version = MicroBatcher.wait(self._item, timeout)
                if self._hit_rows.size and version != self._version:
                    # A hot swap landed between the cache pass and the
                    # batch: cached labels are old-version.  Re-classify
                    # everything in one batch for a single-version answer.
                    self._missing = np.arange(self._features.shape[0])
                    self._hit_rows = self._hit_labels = _NO_ROWS
                    retry = service._batcher.submit(self._features)
                    fresh, version = MicroBatcher.wait(retry, timeout)
                fresh = np.asarray(fresh, dtype=int)
                keys = [(version, self._keys[row])
                        for row in self._missing.tolist()]
                service.cache.put_many(keys, fresh.tolist())
        except ShedRequest:
            service.metrics.incr("shed_requests")
            raise
        except BaseException as exc:
            if service._degrades(exc):
                return self._fallback()
            service.metrics.incr("errors")
            raise
        if self._item is not None and service._breaker is not None:
            service._breaker.record_success()
        return self._answer(fresh, version)


class ProfileService:
    """Concurrent query-serving engine over a versioned profile registry.

    Args:
        frozen: profile to install immediately (else call :meth:`reload`).
        max_batch: micro-batch row cap (see :class:`MicroBatcher`); an
            idle worker votes whatever is queued, up to this many rows.
        n_workers: classification worker threads.
        cache_size: LRU capacity in vectors; 0 disables caching.
        cache_ttl_s: cache entry lifetime; None keeps until evicted.
        cache_decimals: feature quantization for cache keys.
        max_queue_depth: admission watermark (queued requests).
        shed_retry_after_s: back-off suggested to shed clients.
        metrics: share an existing :class:`ServeMetrics` (else create one).
        degrade: opt-in graceful degradation — a circuit breaker watches
            worker health (crashes, vote failures) and, while open,
            queries are answered from the frozen profile's
            nearest-centroid path marked ``degraded=true`` instead of
            failing.  None (the default) keeps strict fail-fast
            behavior.
        max_item_retries: times a request stranded by a worker crash is
            requeued before failing (see :class:`MicroBatcher`).

    Every batch votes through the profile's compiled kernel
    (:meth:`FrozenProfile.kernel`).  A kernel failure fails the batch;
    under ``degrade`` it is answered from the nearest centroids like any
    other worker failure, and without it the request raises.
    """

    def __init__(
        self,
        frozen: Optional[FrozenProfile] = None,
        *,
        max_batch: int = 64,
        n_workers: int = 2,
        cache_size: int = 4096,
        cache_ttl_s: Optional[float] = None,
        cache_decimals: int = DEFAULT_DECIMALS,
        max_queue_depth: int = 256,
        shed_retry_after_s: float = 0.05,
        metrics: Optional[ServeMetrics] = None,
        degrade: Optional[ServeDegradePolicy] = None,
        max_item_retries: int = 2,
    ) -> None:
        self.metrics = metrics if metrics is not None else ServeMetrics()
        self.registry = ProfileRegistry()
        self.cache = ResultCache(maxsize=cache_size, ttl_seconds=cache_ttl_s)
        self.cache_decimals = int(cache_decimals)
        self._batcher = MicroBatcher(
            self._classify_batch,
            max_batch=max_batch,
            n_workers=n_workers,
            max_queue_depth=max_queue_depth,
            shed_retry_after_s=shed_retry_after_s,
            metrics=self.metrics,
            max_item_retries=max_item_retries,
            on_worker_crash=self._note_worker_crash,
        )
        # Scrape-time node gauges on the metrics registry, so one
        # Prometheus text render covers the whole serving node.
        obs_registry = self.metrics.registry
        obs_registry.gauge(
            "repro_serve_queue_depth", "Requests currently queued"
        ).set_function(self._batcher.queue_depth)
        obs_registry.gauge(
            "repro_serve_profile_version",
            "Profile version being served (0 before the first load)",
        ).set_function(lambda: self.registry.current_version() or 0)
        obs_registry.gauge(
            "repro_serve_cache_entries", "Result-cache entries resident"
        ).set_function(lambda: len(self.cache))
        self._degraded_total = obs_registry.counter(
            "repro_degraded_answers_total",
            "Requests answered from the nearest-centroid fallback",
        )
        self._breaker: Optional[CircuitBreaker] = None
        if degrade is not None:
            self._breaker = CircuitBreaker(
                "serve.workers",
                failure_threshold=degrade.failure_threshold,
                reset_timeout_s=degrade.reset_timeout_s,
                registry=obs_registry,
            )
        self._batcher.start()
        if frozen is not None:
            self.reload(frozen)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def reload(self, frozen: FrozenProfile,
               drain_timeout: Optional[float] = 5.0) -> int:
        """Hot-swap in a new profile version; returns its version number."""
        version = self.registry.load(frozen, drain_timeout=drain_timeout)
        self.metrics.incr("reloads")
        return version

    def close(self) -> None:
        """Stop the worker pool; queued requests fail fast."""
        self._batcher.stop()

    def __enter__(self) -> "ProfileService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Query paths
    # ------------------------------------------------------------------

    def submit(self, vectors: np.ndarray) -> PendingClassify:
        """Asynchronously classify RSCA vectors (one row per query).

        Raises:
            ShedRequest: when admission control rejects the request.
            RuntimeError: when no profile is loaded.
        """
        started_at = time.perf_counter()
        with self.registry.acquire() as (version, profile):
            features = check_matrix(vectors, "vectors")
            if features.shape[1] != profile.centroids.shape[1]:
                raise ValueError(
                    f"vectors have {features.shape[1]} columns, profile "
                    f"serves {profile.centroids.shape[1]} services"
                )
        keys = quantize_keys(features, self.cache_decimals)
        found = self.cache.get_many([(version, key) for key in keys])
        hits = [row for row, label in enumerate(found) if label is not None]
        misses = [row for row, label in enumerate(found) if label is None]
        self.metrics.incr("cache_hits", len(hits))
        self.metrics.incr("cache_misses", len(misses))
        hit_rows = np.array(hits, dtype=int)
        hit_labels = np.array([found[row] for row in hits], dtype=int)
        missing = np.array(misses, dtype=int)
        item = None
        # With the breaker open the worker pool is skipped entirely and
        # the missing rows are answered from the nearest centroids.
        if missing.size and (self._breaker is None or self._breaker.allow()):
            try:
                item = self._batcher.submit(features[missing])
            except ShedRequest:
                self.metrics.incr("shed_requests")
                raise
        return PendingClassify(self, features, keys, hit_rows, hit_labels,
                               item, missing, version, started_at)

    def classify(self, vectors: np.ndarray,
                 timeout: Optional[float] = None) -> ClassifyResult:
        """Classify RSCA vectors and block for the answer."""
        return self.submit(vectors).result(timeout)

    def submit_volumes(self, volumes: np.ndarray) -> PendingClassify:
        """Asynchronously classify raw per-service traffic volumes.

        The current profile version's reference marginals drive the
        RCA -> RSCA transform; the classification itself then follows the
        ordinary vector path (and shares its cache namespace, since the
        transformed rows *are* RSCA vectors).
        """
        with self.registry.acquire() as (_version, profile):
            with span("serve.rsca_transform",
                      registry=self.metrics.registry):
                features = profile.kernel().rsca_of_volumes(volumes)
        return self.submit(features)

    def classify_volumes(self, volumes: np.ndarray,
                         timeout: Optional[float] = None) -> ClassifyResult:
        """Classify raw volumes and block for the answer."""
        return self.submit_volumes(volumes).result(timeout)

    def cluster_summaries(self) -> Dict[str, object]:
        """Per-cluster occupancy/centroid summary of the current version."""
        return self.registry.cluster_summaries()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _classify_batch(self, features: np.ndarray):
        """Vote one stacked batch through the kernel under one pinned version."""
        registry = self.metrics.registry
        rows = int(features.shape[0])
        with span("serve.vote", registry=registry, rows=rows):
            with self.registry.acquire() as (version, profile):
                with span("serve.kernel_vote", registry=registry, rows=rows):
                    return profile.kernel().vote(features), version

    def _degrades(self, exc: BaseException) -> bool:
        """Record a batch failure that falls back; False if it must raise.

        Without a degrade policy every failure raises, and malformed
        input fails loudly under one too; any other batch failure (a
        worker crash, a timeout, a failing kernel) is answered from the
        nearest centroids.
        """
        if (self._breaker is None or not isinstance(exc, Exception)
                or isinstance(exc, (ValueError, TypeError))):
            return False
        self.metrics.incr("errors")
        self._breaker.record_failure()
        _log.warning(
            "degraded_answer", error_type=type(exc).__name__,
            error=str(exc),
        )
        return True

    def _note_worker_crash(self, index: int, exc: BaseException) -> None:
        if self._breaker is not None:
            self._breaker.record_failure()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def metrics_snapshot(self) -> Dict[str, object]:
        """JSON-serializable node status: metrics, cache, queue, version."""
        snapshot = self.metrics.to_dict()
        snapshot["cache"] = self.cache.stats()
        snapshot["queue_depth"] = self._batcher.queue_depth()
        snapshot["max_queue_depth"] = self._batcher.max_queue_depth
        snapshot["profile_version"] = self.registry.current_version()
        return snapshot
