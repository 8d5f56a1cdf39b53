"""Tests for partition-agreement metrics and the k-means baseline."""

import numpy as np
import pytest

from repro.core.compare import KMeans, adjusted_rand_index


class TestAdjustedRandIndex:
    def test_identical_is_one(self):
        labels = [0, 0, 1, 1, 2, 2]
        assert adjusted_rand_index(labels, labels) == pytest.approx(1.0)

    def test_permutation_invariant(self):
        a = [0, 0, 1, 1, 2, 2]
        b = [2, 2, 0, 0, 1, 1]
        assert adjusted_rand_index(a, b) == pytest.approx(1.0)

    def test_independent_near_zero(self, rng):
        a = rng.integers(0, 4, size=2000)
        b = rng.integers(0, 4, size=2000)
        assert abs(adjusted_rand_index(a, b)) < 0.05

    def test_partial_agreement_between(self, rng):
        a = np.repeat([0, 1], 50)
        b = a.copy()
        flip = rng.choice(100, size=20, replace=False)
        b[flip] = 1 - b[flip]
        value = adjusted_rand_index(a, b)
        assert 0.1 < value < 0.9

    def test_hand_computed_zero_case(self):
        # sum_cells=1, rows=2, cols=3, total=6 -> expected=1, max=2.5,
        # ARI = (1-1)/(2.5-1) = 0.
        value = adjusted_rand_index([0, 0, 1, 1], [0, 0, 0, 1])
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_hand_computed_partial(self):
        # a=[0,0,1,1,1], b=[0,0,1,1,2]: cells=2, rows=4, cols=2,
        # total=10 -> expected=0.8, max=3, ARI = 1.2/2.2.
        value = adjusted_rand_index([0, 0, 1, 1, 1], [0, 0, 1, 1, 2])
        assert value == pytest.approx(1.2 / 2.2, abs=1e-9)

    def test_single_cluster_each(self):
        assert adjusted_rand_index([0, 0], [1, 1]) == pytest.approx(1.0)

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="equal length"):
            adjusted_rand_index([0, 1], [0, 1, 2])
        with pytest.raises(ValueError, match="non-empty"):
            adjusted_rand_index([], [])


class TestKMeans:
    @pytest.fixture()
    def blobs(self, rng):
        centers = np.array([[0, 0], [12, 0], [0, 12], [12, 12]], dtype=float)
        x = np.vstack([
            c + rng.normal(scale=0.5, size=(25, 2)) for c in centers
        ])
        truth = np.repeat(np.arange(4), 25)
        return x, truth

    def test_recovers_blobs(self, blobs):
        x, truth = blobs
        labels = KMeans(n_clusters=4, random_state=0).fit_predict(x)
        assert adjusted_rand_index(labels, truth) == pytest.approx(1.0)

    def test_inertia_decreases_with_k(self, blobs):
        x, _ = blobs
        inertias = []
        for k in (2, 4, 8):
            model = KMeans(n_clusters=k, random_state=0).fit(x)
            inertias.append(model.inertia_)
        assert inertias[0] > inertias[1] > inertias[2]

    def test_deterministic(self, blobs):
        x, _ = blobs
        a = KMeans(n_clusters=4, random_state=1).fit_predict(x)
        b = KMeans(n_clusters=4, random_state=1).fit_predict(x)
        np.testing.assert_array_equal(a, b)

    def test_predict_new_points(self, blobs):
        x, truth = blobs
        model = KMeans(n_clusters=4, random_state=0).fit(x)
        assigned = model.predict(x[:10])
        np.testing.assert_array_equal(assigned, model.labels_[:10])

    def test_predict_unfitted_raises(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            KMeans().predict(np.ones((2, 2)))

    def test_more_clusters_than_samples_rejected(self):
        with pytest.raises(ValueError, match="at least as many samples"):
            KMeans(n_clusters=5).fit(np.ones((3, 2)))

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="n_clusters"):
            KMeans(n_clusters=0)
        with pytest.raises(ValueError, match="n_init"):
            KMeans(n_init=0)
        with pytest.raises(ValueError, match="max_iter"):
            KMeans(max_iter=0)

    def test_duplicate_points(self):
        x = np.array([[0.0, 0.0]] * 10 + [[5.0, 5.0]] * 10)
        labels = KMeans(n_clusters=2, random_state=0).fit_predict(x)
        assert len(set(labels[:10].tolist())) == 1
        assert labels[0] != labels[10]
