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
from typing import Callable, Dict, Hashable, List, Optional, Tuple

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

    Args:
        maxsize: entry capacity; ``0`` disables the cache entirely
            (every ``get`` misses, ``put`` is a no-op).
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
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._expirations = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def enabled(self) -> bool:
        """False when constructed with ``maxsize=0``."""
        return self.maxsize > 0

    def get(self, key: Hashable):
        """Value for ``key``, or None on miss/expiry (touches LRU order)."""
        if not self.enabled:
            with self._lock:
                self._misses += 1
            return None
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            value, expires_at = entry
            if expires_at is not None and self._clock() >= expires_at:
                del self._entries[key]
                self._expirations += 1
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return value

    def put(self, key: Hashable, value) -> None:
        """Insert/refresh ``key``; evicts least-recently-used on overflow."""
        if not self.enabled:
            return
        expires_at = (
            self._clock() + self.ttl_seconds
            if self.ttl_seconds is not None
            else None
        )
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = (value, expires_at)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self._evictions += 1

    def clear(self) -> None:
        """Drop every entry (stats are preserved)."""
        with self._lock:
            self._entries.clear()

    def stats(self) -> Dict[str, object]:
        """Hit/miss/eviction/expiration counters and current size."""
        with self._lock:
            hits, misses = self._hits, self._misses
            return {
                "size": len(self._entries),
                "maxsize": self.maxsize,
                "hits": hits,
                "misses": misses,
                "evictions": self._evictions,
                "expirations": self._expirations,
                "hit_rate": hits / (hits + misses) if hits + misses else None,
            }
