"""Tests for the LRU+TTL result cache and its quantized keys."""

import numpy as np
import pytest

from repro.serve.cache import ResultCache, quantize_keys


def _per_row_key(row, decimals=6):
    """Key of one row rounded on its own: the reference for the matrix form."""
    return (np.round(np.asarray(row, dtype=float).ravel(), decimals)
            + 0.0).tobytes()


class TestQuantizeKey:
    def test_identical_vectors_share_key(self):
        vector = np.array([0.1, -0.5, 0.9])
        first, second = quantize_keys(np.stack([vector, vector.copy()]))
        assert first == second

    def test_sub_quantum_jitter_collapses(self):
        base = np.array([0.123456, -0.654321])
        keys = quantize_keys(np.stack([base, base + 1e-9]), decimals=6)
        assert keys[0] == keys[1]

    def test_meaningful_difference_separates(self):
        keys = quantize_keys(np.array([[0.1, 0.2], [0.1, 0.3]]))
        assert keys[0] != keys[1]

    def test_negative_zero_normalized(self):
        # -1e-12 rounds to -0.0 before normalization.
        zero, negative, tiny = quantize_keys(np.array([[0.0], [-0.0],
                                                       [-1e-12]]))
        assert zero == negative == tiny

    def test_matches_per_row_keys_on_noncontiguous_slices(self):
        rng = np.random.default_rng(0)
        features = np.asfortranarray(rng.normal(size=(12, 7)))
        features[3, 2] = -0.0
        features[5, 1] = -1e-9
        missing = [0, 3, 5, 11]
        for matrix in (features[missing], features[::2, ::3]):
            assert quantize_keys(matrix) == [
                _per_row_key(row) for row in matrix
            ]


class TestResultCache:
    def test_put_get_roundtrip(self):
        cache = ResultCache(maxsize=4)
        cache.put_many([b"k"], [7])
        assert cache.get_many([b"k", b"absent"]) == [7, None]

    def test_lru_eviction_order(self):
        cache = ResultCache(maxsize=2)
        cache.put_many(["a", "b"], [1, 2])
        cache.get_many(["a"])   # refresh "a": now "b" is least recent
        cache.put_many(["c"], [3])
        assert cache.get_many(["a", "b", "c"]) == [1, None, 3]
        assert cache.stats()["evictions"] == 1

    def test_ttl_expiry_with_injected_clock(self):
        now = [0.0]
        cache = ResultCache(maxsize=4, ttl_seconds=10.0, clock=lambda: now[0])
        cache.put_many(["k"], [1])
        now[0] = 9.9
        assert cache.get_many(["k"]) == [1]
        now[0] = 10.1
        assert cache.get_many(["k"]) == [None]
        assert cache.stats()["expirations"] == 1

    def test_disabled_cache(self):
        cache = ResultCache(maxsize=0)
        cache.put_many(["k"], [1])
        assert cache.get_many(["k"]) == [None]
        assert len(cache) == 0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            ResultCache(maxsize=-1)
        with pytest.raises(ValueError):
            ResultCache(ttl_seconds=0.0)

    def test_put_refresh_updates_value(self):
        cache = ResultCache(maxsize=2)
        cache.put_many(["k"], [1])
        cache.put_many(["k"], [2])
        assert cache.get_many(["k"]) == [2]
        assert len(cache) == 1

    def test_stats_keep_size_and_bounds_only(self):
        cache = ResultCache(maxsize=4)
        cache.put_many(["k"], [1])
        assert cache.stats() == {"size": 1, "maxsize": 4, "evictions": 0,
                                 "expirations": 0}
