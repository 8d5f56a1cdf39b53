"""LRU + TTL result cache keyed on quantized feature vectors.

Operators poll the same antennas on a cadence, so identical (or
float-noise-identical) RSCA vectors recur within minutes; caching the
vote per vector removes those from the classification path entirely.
Keys are built by :func:`quantize_keys` — each row rounded to a fixed
number of decimals and serialized to bytes — so two requests that differ
only below the quantization step share an entry.  Entries are evicted by
least-recent-use when the cache is full and by TTL when results must not
outlive a profile refresh cadence.

The cache itself is version-agnostic; callers namespace their keys with
the registry version (see :meth:`repro.serve.service.ProfileService`)
so a hot swap can never serve a stale vote.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import (
    Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple,
)

import numpy as np

#: Default quantization: six decimals is far below RSCA's meaningful
#: resolution (the index lives in [-1, 1]) yet absorbs float jitter.
DEFAULT_DECIMALS = 6


def quantize_keys(features: np.ndarray,
                  decimals: int = DEFAULT_DECIMALS) -> List[bytes]:
    """Stable bytes key of each row of a 2-D matrix, rounded to ``decimals``.

    One vectorized round per request, then one ``tobytes`` per row of
    the (C-contiguous) result.  Rounding collapses float jitter; adding
    ``0.0`` normalizes ``-0.0`` so the two zero encodings share a key.
    """
    quantized = np.round(np.asarray(features, dtype=float), int(decimals)) + 0.0
    return [row.tobytes() for row in quantized]


class ResultCache:
    """Thread-safe bounded mapping with LRU eviction and optional TTL.

    Reads and writes are per request: :meth:`get_many` looks up and
    :meth:`put_many` stores a whole request's keys under one lock
    acquisition each.  Hit and miss counts live on
    :class:`~repro.serve.metrics.ServeMetrics`, not here.

    Args:
        maxsize: entry capacity; ``0`` disables the cache entirely
            (every lookup misses, stores are no-ops).
        ttl_seconds: entry lifetime; None keeps entries until evicted.
        clock: monotonic time source, injectable for TTL tests.
    """

    def __init__(
        self,
        maxsize: int = 4096,
        ttl_seconds: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if maxsize < 0:
            raise ValueError(f"maxsize must be >= 0, got {maxsize}")
        if ttl_seconds is not None and ttl_seconds <= 0:
            raise ValueError(
                f"ttl_seconds must be positive or None, got {ttl_seconds}"
            )
        self.maxsize = int(maxsize)
        self.ttl_seconds = ttl_seconds
        self._clock = clock
        self._entries: "OrderedDict[Hashable, Tuple[object, Optional[float]]]" = (
            OrderedDict()
        )
        self._lock = threading.Lock()
        self._evictions = 0
        self._expirations = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get_many(self, keys: Sequence[Hashable]) -> List[Optional[object]]:
        """Value per key, None where missing or expired (touches LRU order)."""
        if not self.maxsize:
            return [None] * len(keys)
        values: List[Optional[object]] = []
        with self._lock:
            now = self._clock()
            for key in keys:
                entry = self._entries.get(key)
                if entry is None:
                    values.append(None)
                    continue
                value, expires_at = entry
                if expires_at is not None and now >= expires_at:
                    del self._entries[key]
                    self._expirations += 1
                    values.append(None)
                    continue
                self._entries.move_to_end(key)
                values.append(value)
        return values

    def put_many(self, keys: Sequence[Hashable],
                 values: Iterable[object]) -> None:
        """Insert/refresh each key; evicts least-recently-used on overflow."""
        if not self.maxsize:
            return
        expires_at = (
            self._clock() + self.ttl_seconds
            if self.ttl_seconds is not None
            else None
        )
        with self._lock:
            for key, value in zip(keys, values):
                if key in self._entries:
                    self._entries.move_to_end(key)
                self._entries[key] = (value, expires_at)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self._evictions += 1

    def stats(self) -> Dict[str, object]:
        """Current size, capacity, and eviction/expiration counts."""
        with self._lock:
            return {
                "size": len(self._entries),
                "maxsize": self.maxsize,
                "evictions": self._evictions,
                "expirations": self._expirations,
            }
