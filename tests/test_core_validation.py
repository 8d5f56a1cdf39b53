"""Tests for the cluster validity indices (silhouette, Dunn, DB)."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cluster import Dendrogram, linkage, pairwise_distances
from repro.core.validation import (
    davies_bouldin_index,
    dunn_index,
    scan_k,
    silhouette_samples,
    silhouette_score,
)

scipy_hierarchy = pytest.importorskip("scipy.cluster.hierarchy")


@pytest.fixture()
def blobs(rng):
    centers = np.array([[0.0, 0.0], [8.0, 0.0], [0.0, 8.0]])
    x = np.vstack([
        center + rng.normal(scale=0.4, size=(20, 2)) for center in centers
    ])
    labels = np.repeat([0, 1, 2], 20)
    return x, labels


class TestSilhouette:
    def test_well_separated_near_one(self, blobs):
        x, labels = blobs
        assert silhouette_score(x, labels) > 0.85

    def test_random_labels_near_zero(self, blobs, rng):
        x, _ = blobs
        random_labels = rng.integers(0, 3, size=x.shape[0])
        assert abs(silhouette_score(x, random_labels)) < 0.25

    def test_bounds(self, blobs, rng):
        x, labels = blobs
        samples = silhouette_samples(x, labels)
        assert np.all(samples >= -1.0) and np.all(samples <= 1.0)

    def test_two_point_exact(self):
        # Two singleton clusters: silhouette 0 by convention.
        x = np.array([[0.0], [1.0]])
        assert silhouette_score(x, [0, 1]) == pytest.approx(0.0)

    def test_hand_computed(self):
        # Clusters {0,1} and {2}; sample 0: a = 1, b = 4 -> (4-1)/4 = 0.75.
        x = np.array([[0.0], [1.0], [4.0]])
        samples = silhouette_samples(x, [0, 0, 1])
        assert samples[0] == pytest.approx(0.75)
        # sample 1: a = 1, b = 3 -> 2/3; sample 2: singleton -> 0.
        assert samples[1] == pytest.approx(2.0 / 3.0)
        assert samples[2] == pytest.approx(0.0)

    def test_precomputed_distances_equivalent(self, blobs):
        from repro.core.cluster import pairwise_distances

        x, labels = blobs
        direct = silhouette_score(x, labels)
        reused = silhouette_score(x, labels, pairwise_distances(x))
        assert direct == pytest.approx(reused)

    def test_single_cluster_rejected(self, blobs):
        x, _ = blobs
        with pytest.raises(ValueError, match="two clusters"):
            silhouette_score(x, np.zeros(x.shape[0], dtype=int))

    def test_label_length_mismatch_rejected(self, blobs):
        x, labels = blobs
        with pytest.raises(ValueError, match="labels"):
            silhouette_score(x, labels[:-1])


class TestDunn:
    def test_separated_blobs_high(self, blobs):
        x, labels = blobs
        assert dunn_index(x, labels) > 1.0

    def test_mixed_labels_low(self, blobs, rng):
        x, labels = blobs
        shuffled = labels.copy()
        rng.shuffle(shuffled)
        assert dunn_index(x, shuffled) < dunn_index(x, labels)

    def test_hand_computed(self):
        # Clusters {0, 1} and {10}: separation 9, diameter 1 -> Dunn 9.
        x = np.array([[0.0], [1.0], [10.0]])
        assert dunn_index(x, [0, 0, 1]) == pytest.approx(9.0)

    def test_all_singletons_infinite(self):
        x = np.array([[0.0], [5.0], [9.0]])
        assert dunn_index(x, [0, 1, 2]) == np.inf


class TestDaviesBouldin:
    def test_separated_blobs_low(self, blobs):
        x, labels = blobs
        assert davies_bouldin_index(x, labels) < 0.3

    def test_worse_partition_higher(self, blobs, rng):
        x, labels = blobs
        shuffled = labels.copy()
        rng.shuffle(shuffled)
        assert davies_bouldin_index(x, shuffled) > davies_bouldin_index(x, labels)


class TestScanK:
    def test_detects_true_k(self, rng):
        centers = 10.0 * np.eye(5, 4)  # five well-separated fixed centers
        x = np.vstack([
            center + rng.normal(scale=0.3, size=(15, 4)) for center in centers
        ])
        dendrogram = Dendrogram(linkage(x, "ward"))
        result = scan_k(x, dendrogram, ks=range(2, 10))
        assert result.best_k("silhouette") == 5

    def test_as_dict(self, rng):
        x = rng.normal(size=(30, 3))
        dendrogram = Dendrogram(linkage(x, "ward"))
        result = scan_k(x, dendrogram, ks=range(2, 5),
                        include_davies_bouldin=True)
        table = result.as_dict()
        assert set(table) == {2, 3, 4}
        assert set(table[2]) == {"silhouette", "dunn", "davies_bouldin"}

    def test_drop_after(self, rng):
        x = rng.normal(size=(30, 3))
        dendrogram = Dendrogram(linkage(x, "ward"))
        result = scan_k(x, dendrogram, ks=range(2, 6))
        drops = result.drop_after("silhouette")
        for k, drop in drops.items():
            idx = result.ks.index(k)
            assert drop == pytest.approx(
                result.silhouette[idx] - result.silhouette[idx + 1]
            )

    def test_unknown_metric_rejected(self, rng):
        x = rng.normal(size=(20, 2))
        dendrogram = Dendrogram(linkage(x, "ward"))
        result = scan_k(x, dendrogram, ks=range(2, 4))
        with pytest.raises(ValueError, match="metric"):
            result.drop_after("cohesion")


def _brute_silhouettes(points, labels):
    """Rousseeuw's definition, pure Python, O(N^2)."""
    def dist(i, j):
        return math.sqrt(sum((a - b) ** 2 for a, b in zip(points[i], points[j])))

    out = []
    for i, own in enumerate(labels):
        mates = [j for j, lab in enumerate(labels) if lab == own and j != i]
        if not mates:
            out.append(0.0)
            continue
        a = sum(dist(i, j) for j in mates) / len(mates)
        b = min(
            sum(dist(i, j) for j, lab in enumerate(labels) if lab == other)
            / sum(1 for lab in labels if lab == other)
            for other in set(labels) - {own}
        )
        out.append((b - a) / max(a, b) if max(a, b) > 0 else 0.0)
    return out


def _brute_dunn(points, labels):
    """Min single-linkage separation over max complete diameter."""
    def dist(i, j):
        return math.sqrt(sum((a - b) ** 2 for a, b in zip(points[i], points[j])))

    n = len(labels)
    separation = min(dist(i, j) for i in range(n) for j in range(n)
                     if labels[i] != labels[j])
    diameter = max(dist(i, j) for i in range(n) for j in range(n)
                   if labels[i] == labels[j])
    if diameter == 0.0:
        return math.inf if separation > 0 else 0.0
    return separation / diameter


class TestBruteForceOracle:
    @given(seed=st.integers(0, 2**32 - 1),
           n=st.integers(3, 25),
           n_labels=st.integers(2, 5))
    @settings(max_examples=40, deadline=None)
    def test_indices_match_brute_force(self, seed, n, n_labels):
        gen = np.random.default_rng(seed)
        x = gen.normal(size=(n, 3))
        labels = gen.integers(0, n_labels, size=n)
        labels[:2] = [0, 1]  # at least two clusters
        np.testing.assert_allclose(
            silhouette_samples(x, labels),
            _brute_silhouettes(x.tolist(), labels.tolist()),
            rtol=0, atol=1e-12,
        )
        assert dunn_index(x, labels) == pytest.approx(
            _brute_dunn(x.tolist(), labels.tolist()), rel=1e-12)


class TestScanKMatchesPerK:
    @staticmethod
    def _check(x, ks):
        dendrogram = Dendrogram(linkage(x, "ward"))
        result = scan_k(x, dendrogram, ks=ks)
        assert result.ks == list(ks)
        for k, sil, dunn in zip(result.ks, result.silhouette, result.dunn):
            labels = dendrogram.cut(k)
            assert dunn == dunn_index(x, labels), k
            assert abs(sil - silhouette_score(x, labels)) <= 1e-12, k
        return dendrogram

    def test_non_contiguous_ks(self, rng):
        x = rng.normal(size=(60, 4))
        self._check(x, [9, 2, 5, 13])

    def test_k_two_only(self, rng):
        self._check(rng.normal(size=(25, 3)), [2])

    def test_singleton_clusters(self, rng):
        # Far outliers stay singletons down to small k.
        x = np.vstack([rng.normal(size=(30, 2)), [[40.0, 40.0], [-40.0, 35.0]]])
        dendrogram = self._check(x, [2, 3, 4, 8])
        assert np.min(np.bincount(dendrogram.cut(3))) == 1

    def test_every_k_up_to_n(self, rng):
        x = rng.normal(size=(12, 2))
        self._check(x, range(2, 12))

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 40),
           ks=st.lists(st.integers(2, 40), min_size=1, max_size=5))
    @settings(max_examples=30, deadline=None)
    def test_random_scans(self, seed, n, ks):
        x = np.random.default_rng(seed).normal(size=(n, 3))
        self._check(x, [k for k in ks if k < n] or [2])

    def test_dunn_bits_independent_of_cut_order(self):
        # Found by test_random_scans: distances of rows grouped by the k = 5
        # cut differed in the last bit from those grouped by the k = 4 cut.
        self._check(np.random.default_rng(36).normal(size=(28, 3)), [4, 5])

    def test_k_one_rejected(self, rng):
        x = rng.normal(size=(10, 2))
        with pytest.raises(ValueError, match="two clusters"):
            scan_k(x, Dendrogram(linkage(x, "ward")), ks=[1, 3])


class TestScanKAtPaperScale:
    def test_matches_per_k_indices_without_a_dense_matrix(self, full_profile):
        x = full_profile.features
        dendrogram = full_profile.clustering.dendrogram_
        ks = range(2, 16)
        tracemalloc.start()
        try:
            result = scan_k(x, dendrogram, ks=ks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # One dense 4,762 x 4,762 float64 matrix alone is 181 MB.
        assert peak < 64 * 2**20, peak
        for k, labels in dendrogram.cuts(ks).items():
            i = result.ks.index(k)
            assert result.dunn[i] == dunn_index(x, labels), k
            assert abs(result.silhouette[i] - silhouette_score(x, labels)) <= 1e-12, k


class TestPrecomputedDistances:
    @pytest.mark.parametrize("index", [silhouette_samples, silhouette_score,
                                       dunn_index])
    def test_wrong_shape_rejected(self, blobs, index):
        x, labels = blobs
        distances = pairwise_distances(x)
        for bad in (distances[:-1], distances[:, :-1], distances[0],
                    np.zeros((x.shape[0] + 1, x.shape[0] + 1))):
            with pytest.raises(ValueError) as info:
                index(x, labels, distances=bad)
            message = str(info.value)
            assert f"{x.shape[0]} x {x.shape[0]}" in message
            assert str(bad.shape) in message
