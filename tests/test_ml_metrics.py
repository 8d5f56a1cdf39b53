"""Tests for classification metrics and the stratified split."""

import numpy as np
import pytest

from repro.ml.metrics import accuracy, train_test_split


class TestAccuracy:
    def test_perfect(self):
        assert accuracy([1, 2, 3], [1, 2, 3]) == 1.0

    def test_half(self):
        assert accuracy([1, 1, 0, 0], [1, 0, 0, 1]) == 0.5

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            accuracy([1, 2], [1])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            accuracy([], [])


class TestSplit:
    def test_sizes(self, rng):
        x = rng.normal(size=(100, 3))
        y = rng.integers(0, 2, size=100)
        x_tr, x_te, y_tr, y_te = train_test_split(x, y, test_fraction=0.25)
        assert x_tr.shape[0] + x_te.shape[0] == 100
        assert abs(x_te.shape[0] - 25) <= 2

    def test_stratification(self, rng):
        x = rng.normal(size=(100, 2))
        y = np.array([0] * 80 + [1] * 20)
        _, _, y_tr, y_te = train_test_split(x, y, test_fraction=0.25,
                                            random_state=1)
        assert np.sum(y_te == 1) == 5
        assert np.sum(y_te == 0) == 20

    def test_singleton_class_stays_in_train(self, rng):
        x = rng.normal(size=(10, 2))
        y = np.array([0] * 9 + [1])
        _, _, y_tr, y_te = train_test_split(x, y, test_fraction=0.3)
        assert 1 in y_tr

    def test_deterministic(self, rng):
        x = rng.normal(size=(50, 2))
        y = rng.integers(0, 3, size=50)
        a = train_test_split(x, y, random_state=5)
        b = train_test_split(x, y, random_state=5)
        np.testing.assert_array_equal(a[1], b[1])

    def test_bad_fraction(self, rng):
        x = rng.normal(size=(10, 2))
        y = np.zeros(10)
        with pytest.raises(ValueError, match="test_fraction"):
            train_test_split(x, y, test_fraction=0.0)

    def test_length_mismatch(self, rng):
        with pytest.raises(ValueError, match="sample count"):
            train_test_split(rng.normal(size=(10, 2)), np.zeros(9))
