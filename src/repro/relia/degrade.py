"""Graceful-degradation policies for stream ingestion and serving.

The batch accumulators in ``repro.stream`` are strict by design: hours
must arrive in strictly increasing order, and a poisoned batch raises.
That strictness is what makes their numerics reproducible — but a live
feed re-delivers hours after lost acks, delivers late files out of
order, and occasionally emits garbage.  :class:`ResilientStreamingProfiler`
wraps any profiler exposing ``ingest(batch)`` (duck-typed — no import of
``repro.stream`` here) and absorbs exactly that mess:

* **out-of-order arrivals** — a small reorder window holds up to
  ``reorder_window`` batches and always releases the earliest hour
  first, so a batch delayed past its successor is folded in calendar
  order and the accumulators never see a backwards hour;
* **duplicate hours** — re-delivered hours are dropped on arrival
  (``repro_duplicate_hours_total``);
* **gaps** — missing hours are counted (``repro_stream_gap_hours_total``)
  and ingestion continues; the accumulators are gap-tolerant by
  construction (hours need only increase, not be contiguous);
* **poisoned batches** — an ingest that keeps failing after retry is
  *quarantined*: the batch goes to a bounded buffer for offline autopsy,
  the failure is logged with full context, and the stream moves on
  (``repro_quarantined_batches_total``).  Skipping is explicitly
  gap-semantics: the final profile equals a fault-free run over the
  non-quarantined hours.

:class:`ServeDegradePolicy` is the serving-side contract consumed by
``repro.serve.ProfileService``: when the worker pool is unhealthy (its
circuit breaker is open), answer from the frozen profile's cheap
nearest-centroid path instead of the full forest vote, and mark the
answer ``degraded=true`` so clients can tell a best-effort label from a
full-fidelity one.
"""

from __future__ import annotations

import heapq
import random
import threading
from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Tuple

import numpy as np

from repro.obs import get_logger, get_registry
from repro.relia.errors import RetryExhausted
from repro.relia.retry import RetryPolicy, retry_call

__all__ = [
    "QuarantinedBatch",
    "ResilientStreamingProfiler",
    "ServeDegradePolicy",
    "StreamDegradePolicy",
]

# Rate-limited: a fault storm can emit thousands of duplicate/gap/
# quarantine warnings per second; 200 lines/s keeps the JSON sink
# readable while repro_logs_suppressed_total records the overflow.
_log = get_logger("repro.relia.degrade", sample=200.0)


@dataclass(frozen=True)
class StreamDegradePolicy:
    """Tolerance knobs for :class:`ResilientStreamingProfiler`.

    Attributes:
        reorder_window: batches held back to re-sort late arrivals; a
            batch delayed by up to ``reorder_window - 1`` positions is
            still folded in calendar order.  1 disables reordering
            (every arrival is released immediately).
        max_quarantine: poisoned batches kept for autopsy; beyond this
            the oldest quarantined batch is evicted (counts persist).
        retry: retry policy for transient ingest failures (I/O errors
            from a flaky feed); None disables retry.
        step_hours: nominal feed period, for gap accounting.
    """

    reorder_window: int = 4
    max_quarantine: int = 64
    retry: Optional[RetryPolicy] = RetryPolicy(
        max_attempts=3, base_delay_s=0.001, max_delay_s=0.05
    )
    step_hours: int = 1

    def __post_init__(self) -> None:
        if self.reorder_window < 1:
            raise ValueError(
                f"reorder_window must be >= 1, got {self.reorder_window}"
            )
        if self.max_quarantine < 1:
            raise ValueError(
                f"max_quarantine must be >= 1, got {self.max_quarantine}"
            )
        if self.step_hours < 1:
            raise ValueError(
                f"step_hours must be >= 1, got {self.step_hours}"
            )


@dataclass(frozen=True)
class QuarantinedBatch:
    """One poisoned batch held out of the stream, with its autopsy note."""

    batch: object
    error_type: str
    error: str
    attempts: int


@dataclass(frozen=True)
class ServeDegradePolicy:
    """When and how ``ProfileService`` degrades to nearest-centroid answers.

    Passing a policy is the one switch: with it, the service answers
    from the frozen profile's nearest-centroid path (marked
    ``degraded=true``) while the worker pool's breaker is open, instead
    of raising.

    Attributes:
        failure_threshold: consecutive vote failures that open the
            breaker.
        reset_timeout_s: seconds the breaker stays open before probing
            the pool again.
    """

    failure_threshold: int = 3
    reset_timeout_s: float = 5.0

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {self.failure_threshold}"
            )
        if self.reset_timeout_s <= 0:
            raise ValueError(
                f"reset_timeout_s must be positive, got {self.reset_timeout_s}"
            )


class ResilientStreamingProfiler:
    """Degradation wrapper folding a messy feed into a strict profiler.

    Args:
        profiler: anything exposing ``ingest(batch)`` — normally a
            :class:`repro.stream.StreamingProfiler`.
        policy: tolerance knobs (defaults throughout).
        rng: jitter RNG handed to the retry machinery; pass a seeded
            ``random.Random`` for replayable chaos runs.

    Call :meth:`ingest` per arriving batch and :meth:`flush` at end of
    stream (or use the instance as a context manager).  Because of the
    reorder window, a given ``ingest`` call may fold zero or more
    batches; both methods return the inner profiler's results for the
    batches actually folded.

    Attribute access falls through to the wrapped profiler, so
    ``classify_current()``, ``checkpoint()``, ``summary()`` etc. work
    directly on the wrapper.
    """

    def __init__(
        self,
        profiler,
        policy: Optional[StreamDegradePolicy] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.profiler = profiler
        self.policy = policy if policy is not None else StreamDegradePolicy()
        self._rng = rng if rng is not None else random.Random()
        self._lock = threading.Lock()
        # Heap keyed by integer hour (datetime64[h] ticks); the tie-break
        # sequence number keeps heapq away from comparing batch objects.
        self._pending: List[Tuple[int, int, object]] = []
        self._seq = 0
        self._seen_hours: set = set()
        self._max_hour: Optional[int] = None
        self._last_folded_hour: Optional[int] = None
        self._quarantine: Deque[QuarantinedBatch] = deque(
            maxlen=self.policy.max_quarantine
        )
        registry = get_registry()
        self._quarantined_total = registry.counter(
            "repro_quarantined_batches_total",
            "Poisoned batches skipped-and-held by the degradation layer",
        )
        self._duplicates_total = registry.counter(
            "repro_duplicate_hours_total",
            "Re-delivered hours dropped by the degradation layer",
        )
        self._reordered_total = registry.counter(
            "repro_reordered_batches_total",
            "Out-of-order arrivals re-sorted by the reorder window",
        )
        self._gap_hours_total = registry.counter(
            "repro_stream_gap_hours_total",
            "Missing feed hours detected between folded batches",
        )
        # Good-event count of the stream-quarantine SLO: batches the
        # degradation layer actually folded into the strict profiler.
        self._folded_total = registry.counter(
            "repro_stream_batches_folded_total",
            "Batches folded into the wrapped profiler",
        )
        # Ingest-lag SLI: arrivals currently parked in the reorder
        # window waiting for earlier hours (scrape-time read).
        registry.gauge(
            "repro_stream_reorder_lag_batches",
            "Batches held in the reorder window awaiting earlier hours",
        ).set_function(lambda: float(self.pending_count))

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    @staticmethod
    def _hour_tick(batch) -> int:
        return int(np.datetime64(batch.hour, "h").astype(np.int64))

    def ingest(self, batch) -> List[object]:
        """Accept one arrival; fold whatever the reorder window releases.

        Returns:
            The inner profiler's per-batch results for batches folded by
            this call (empty while the window is still filling).
        """
        tick = self._hour_tick(batch)
        release: List[object] = []
        with self._lock:
            if tick in self._seen_hours:
                self._duplicates_total.inc()
                _log.warning("duplicate_hour_dropped", hour=str(batch.hour))
                return []
            self._seen_hours.add(tick)
            if self._max_hour is not None and tick < self._max_hour:
                self._reordered_total.inc()
                _log.warning(
                    "out_of_order_arrival", hour=str(batch.hour),
                    latest_hour_seen=str(
                        np.int64(self._max_hour).astype("datetime64[h]")
                    ),
                )
            else:
                self._max_hour = tick
            heapq.heappush(self._pending, (tick, self._seq, batch))
            self._seq += 1
            while len(self._pending) >= self.policy.reorder_window:
                release.append(heapq.heappop(self._pending)[2])
        return [self._fold(b) for b in release]

    def flush(self) -> List[object]:
        """Drain the reorder window in calendar order (end of stream)."""
        with self._lock:
            release = [heapq.heappop(self._pending)[2]
                       for _ in range(len(self._pending))]
        return [self._fold(b) for b in release]

    def _fold(self, batch) -> object:
        tick = self._hour_tick(batch)
        if self._last_folded_hour is not None:
            gap = (tick - self._last_folded_hour) // self.policy.step_hours - 1
            if gap > 0:
                self._gap_hours_total.inc(gap)
                _log.warning(
                    "feed_gap", hour=str(batch.hour), missing_hours=int(gap),
                )
        self._last_folded_hour = tick

        def attempt():
            return self.profiler.ingest(batch)

        try:
            if self.policy.retry is not None:
                result = retry_call(
                    attempt,
                    policy=self.policy.retry,
                    site="stream.ingest",
                    rng=self._rng,
                )
            else:
                result = attempt()
        except (RetryExhausted, ValueError, OSError) as exc:
            cause = exc.__cause__ if isinstance(exc, RetryExhausted) else exc
            attempts = (
                exc.attempts if isinstance(exc, RetryExhausted) else 1
            )
            entry = QuarantinedBatch(
                batch=batch,
                error_type=type(cause).__name__,
                error=str(cause),
                attempts=attempts,
            )
            with self._lock:
                self._quarantine.append(entry)
            self._quarantined_total.inc()
            _log.error(
                "batch_quarantined", hour=str(batch.hour),
                n_rows=int(batch.n_rows), error_type=entry.error_type,
                error=entry.error, attempts=attempts,
            )
            return None
        self._folded_total.inc()
        return result

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def quarantine(self) -> List[QuarantinedBatch]:
        """Poisoned batches currently held (oldest evicted past the cap)."""
        with self._lock:
            return list(self._quarantine)

    def quarantined_hours(self) -> List[np.datetime64]:
        """Hours of every batch currently in quarantine, sorted."""
        with self._lock:
            hours = [
                np.datetime64(entry.batch.hour, "h")
                for entry in self._quarantine
            ]
        return sorted(hours)

    @property
    def pending_count(self) -> int:
        """Batches currently held in the reorder window."""
        with self._lock:
            return len(self._pending)

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------

    def __getattr__(self, name: str):
        # Fall through to the wrapped profiler (classify_current,
        # checkpoint, occupancy, summary, totals, ...).
        return getattr(self.profiler, name)

    def __enter__(self) -> "ResilientStreamingProfiler":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.flush()
