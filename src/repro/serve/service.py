"""The profile-serving facade: registry + micro-batcher + cache + metrics.

:class:`ProfileService` is the in-process serving engine behind both the
HTTP endpoint (:mod:`repro.serve.http`) and the test/bench client
(:class:`repro.serve.client.ServeClient`).  It answers three query
types against the registry's current :class:`FrozenProfile` version:

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
    micro-batcher actually has co-riders to aggregate.
    """

    def __init__(
        self,
        service: "ProfileService",
        features: np.ndarray,
        keys: List[bytes],
        cached_labels: Dict[int, int],
        item,
        missing: List[int],
        version: Optional[int],
        started_at: float,
        degrade_now: bool = False,
    ) -> None:
        self._service = service
        self._features = features
        self._keys = keys
        self._cached_labels = cached_labels
        self._item = item
        self._missing = missing
        self._version = version
        self._started_at = started_at
        self._degrade_now = degrade_now

    def _fallback(self) -> ClassifyResult:
        """Answer from nearest centroids, marked degraded (never cached)."""
        service = self._service
        n = self._features.shape[0]
        labels = np.empty(n, dtype=int)
        cached_mask = np.zeros(n, dtype=bool)
        if self._missing:
            fresh, version = service._degrade_labels(
                self._features[self._missing]
            )
            for slot, row in enumerate(self._missing):
                labels[row] = int(fresh[slot])
        else:
            version = self._version
        for row, label in self._cached_labels.items():
            labels[row] = label
            cached_mask[row] = True
        service._degraded_total.inc(len(self._missing))
        service.metrics.observe_request(
            time.perf_counter() - self._started_at, n_vectors=n
        )
        assert version is not None
        return ClassifyResult(
            labels=labels, version=int(version), cached=cached_mask,
            degraded=True,
        )

    def result(self, timeout: Optional[float] = None) -> ClassifyResult:
        """Block until classified; returns a version-consistent answer.

        Under an active :class:`ServeDegradePolicy`, a request whose
        batch died with the worker pool (crashes, vote failures) is
        answered from the nearest-centroid path with ``degraded=True``
        instead of raising — callers always get *an* answer or a typed
        admission error, never a silent drop.
        """
        service = self._service
        if self._degrade_now:
            return self._fallback()
        n = self._features.shape[0]
        labels = np.empty(n, dtype=int)
        cached_mask = np.zeros(n, dtype=bool)
        try:
            if self._item is None:
                # Fully served from cache: all entries share self._version.
                for row, label in self._cached_labels.items():
                    labels[row] = label
                    cached_mask[row] = True
                version = self._version
                assert version is not None
            else:
                fresh, version = MicroBatcher.wait(self._item, timeout)
                if self._cached_labels and version != self._version:
                    # A hot swap landed between the cache pass and the
                    # batch: cached labels are old-version.  Re-classify
                    # everything in one batch for a single-version answer.
                    retry = service._batcher.submit(self._features)
                    fresh, version = MicroBatcher.wait(retry, timeout)
                    for row in range(n):
                        labels[row] = int(fresh[row])
                        service._store(version, self._keys[row], labels[row])
                else:
                    for slot, row in enumerate(self._missing):
                        labels[row] = int(fresh[slot])
                        service._store(version, self._keys[row], labels[row])
                    for row, label in self._cached_labels.items():
                        labels[row] = label
                        cached_mask[row] = True
        except BaseException as exc:
            if service._may_degrade(exc):
                service._note_vote_failure(exc)
                return self._fallback()
            service.metrics.incr("errors")
            raise
        if self._item is not None:
            service._note_vote_success()
        service.metrics.observe_request(
            time.perf_counter() - self._started_at, n_vectors=n
        )
        return ClassifyResult(
            labels=labels, version=int(version), cached=cached_mask
        )


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
        self.degrade = degrade
        self._batcher = MicroBatcher(
            self._classify_batch,
            max_batch=max_batch,
            n_workers=n_workers,
            max_queue_depth=max_queue_depth,
            shed_retry_after_s=shed_retry_after_s,
            on_batch=lambda n_requests, n_rows: self.metrics.observe_batch(
                n_rows
            ),
            on_queue_wait=self.metrics.observe_queue_wait,
            on_assembly=self.metrics.observe_assembly,
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
        ).set_function(lambda: self.cache.stats()["size"])
        self._degraded_total = obs_registry.counter(
            "repro_degraded_answers_total",
            "Queries answered from the nearest-centroid fallback path",
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
        cached_labels: Dict[int, int] = {}
        missing: List[int] = []
        for row, key in enumerate(keys):
            hit = self.cache.get((version, key))
            if hit is None:
                missing.append(row)
            else:
                cached_labels[row] = int(hit)
        self.metrics.incr("cache_hits", len(cached_labels))
        self.metrics.incr("cache_misses", len(missing))
        item = None
        degrade_now = False
        if missing:
            if (
                self._breaker is not None
                and self.degrade is not None
                and self.degrade.fallback_to_centroids
                and not self._breaker.allow()
            ):
                # Worker pool unhealthy: skip the batcher entirely and
                # answer from centroids while the breaker stays open.
                degrade_now = True
            else:
                try:
                    item = self._batcher.submit(features[missing])
                except ShedRequest:
                    self.metrics.incr("shed_requests")
                    raise
        return PendingClassify(
            self,
            features,
            keys,
            cached_labels,
            item,
            missing,
            version,
            started_at,
            degrade_now=degrade_now,
        )

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

    def _store(self, version: int, key: bytes, label: int) -> None:
        self.cache.put((version, key), int(label))

    def _degrade_labels(self, features: np.ndarray):
        """Nearest-centroid labels under a single pinned version."""
        with span("serve.degraded_vote", registry=self.metrics.registry,
                  rows=int(features.shape[0])):
            with self.registry.acquire() as (version, profile):
                return profile.nearest_centroids(features), version

    def _may_degrade(self, exc: BaseException) -> bool:
        """Whether this batch failure should fall back, not raise."""
        if self.degrade is None or not self.degrade.fallback_to_centroids:
            return False
        # Admission control stays fail-fast and malformed input fails
        # loudly; any other batch failure (a worker crash, a timeout, a
        # failing kernel) is answered from the nearest centroids.
        return isinstance(exc, Exception) and not isinstance(
            exc, (ShedRequest, ValueError, TypeError)
        )

    def _note_worker_crash(self, index: int, exc: BaseException) -> None:
        if self._breaker is not None:
            self._breaker.record_failure()

    def _note_vote_failure(self, exc: BaseException) -> None:
        self.metrics.incr("errors")
        if self._breaker is not None:
            self._breaker.record_failure()
        _log.warning(
            "degraded_answer", error_type=type(exc).__name__,
            error=str(exc),
        )

    def _note_vote_success(self) -> None:
        if self._breaker is not None:
            self._breaker.record_success()

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

    def metrics_text(self) -> str:
        """This node's full metric surface as Prometheus exposition text."""
        return self.metrics.prometheus_text()
