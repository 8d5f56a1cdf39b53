"""Tests for the versioned profile registry and its graceful drain."""

import threading

import numpy as np
import pytest

from repro.serve.registry import ProfileRegistry
from tests.conftest import build_frozen_profile


@pytest.fixture(scope="module")
def frozen_pair():
    """Two profiles that disagree on labels (cluster ids shifted)."""
    first, _ = build_frozen_profile(seed=0)
    second, _ = build_frozen_profile(seed=0, label_shift=10)
    return first, second


class TestInstallation:
    def test_acquire_before_load_raises(self):
        registry = ProfileRegistry()
        with pytest.raises(RuntimeError, match="no profile loaded"):
            with registry.acquire():
                pass

    def test_versions_increment(self, frozen_pair):
        first, second = frozen_pair
        registry = ProfileRegistry()
        assert registry.current_version() is None
        assert registry.load(first) == 1
        assert registry.load(second) == 2
        assert registry.current_version() == 2

    def test_load_rejects_non_profile(self):
        with pytest.raises(TypeError):
            ProfileRegistry().load(np.zeros(3))


class TestAcquireAndDrain:
    def test_acquire_pins_old_version_across_swap(self, frozen_pair):
        first, second = frozen_pair
        registry = ProfileRegistry()
        registry.load(first)
        with registry.acquire() as (version, profile):
            registry.load(second)
            # The pinned pair must stay the old version.
            assert version == 1
            assert np.array_equal(profile.labels, first.labels)
        assert registry.current_version() == 2

    def test_drain_waits_for_in_flight_reader(self, frozen_pair):
        first, second = frozen_pair
        registry = ProfileRegistry()
        registry.load(first)

        holding = threading.Event()
        release = threading.Event()

        def reader():
            with registry.acquire():
                holding.set()
                release.wait(5.0)

        thread = threading.Thread(target=reader)
        thread.start()
        assert holding.wait(5.0)
        registry.load(second)
        assert registry.drain(1, timeout=0.05) is False  # still held
        release.set()
        assert registry.drain(1, timeout=5.0) is True
        thread.join(5.0)

    def test_drain_of_unknown_version_is_immediate(self, frozen_pair):
        first, _ = frozen_pair
        registry = ProfileRegistry()
        registry.load(first)
        registry.load(first)
        assert registry.drain(1, timeout=0.01) is True
        assert registry.drain(999, timeout=0.01) is True

    def test_drain_of_current_version_rejected(self, frozen_pair):
        first, _ = frozen_pair
        registry = ProfileRegistry()
        registry.load(first)
        with pytest.raises(ValueError, match="still current"):
            registry.drain(1)

    def test_load_with_drain_timeout_blocks_until_released(self, frozen_pair):
        first, second = frozen_pair
        registry = ProfileRegistry()
        registry.load(first)
        with registry.acquire():
            # Reader in flight: the swap itself must not deadlock, the
            # drain wait simply times out.
            version = registry.load(second, drain_timeout=0.05)
        assert version == 2


class TestClusterSummaries:
    def test_summary_shape_and_occupancy(self, frozen_pair):
        first, _ = frozen_pair
        registry = ProfileRegistry()
        registry.load(first)
        summary = registry.cluster_summaries()
        assert summary["version"] == 1
        assert summary["n_clusters"] == first.n_clusters
        assert summary["n_antennas"] == first.labels.size
        assert len(summary["clusters"]) == first.n_clusters
        total_occupancy = sum(c["occupancy"] for c in summary["clusters"])
        assert total_occupancy == first.labels.size
        shares = [c["share"] for c in summary["clusters"]]
        assert sum(shares) == pytest.approx(1.0)
        for entry in summary["clusters"]:
            assert len(entry["centroid"]) == len(first.service_names)
        row = int(np.flatnonzero(first.clusters ==
                                 summary["clusters"][0]["cluster"])[0])
        assert summary["clusters"][0]["centroid"] == pytest.approx(
            list(first.centroids[row])
        )
