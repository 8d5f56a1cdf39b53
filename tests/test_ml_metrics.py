"""Tests for classification metrics and the stratified split."""

import numpy as np
import pytest

from repro.ml.metrics import (
    accuracy,
    confusion_matrix,
    f1_scores,
    train_test_split,
)


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


class TestConfusionMatrix:
    def test_hand_computed(self):
        matrix = confusion_matrix([0, 0, 1, 1], [0, 1, 1, 1])
        np.testing.assert_array_equal(matrix, [[1, 1], [0, 2]])

    def test_diagonal_sums_to_correct(self):
        y_true = [0, 1, 2, 2, 1]
        y_pred = [0, 1, 1, 2, 0]
        matrix = confusion_matrix(y_true, y_pred)
        assert np.trace(matrix) == 3

    def test_explicit_labels_order(self):
        matrix = confusion_matrix([1, 0], [1, 0], labels=[1, 0])
        np.testing.assert_array_equal(matrix, [[1, 0], [0, 1]])

    def test_rows_sum_to_class_counts(self):
        y_true = np.array([0, 0, 0, 1, 1, 2])
        y_pred = np.array([0, 1, 2, 1, 1, 2])
        matrix = confusion_matrix(y_true, y_pred)
        np.testing.assert_array_equal(matrix.sum(axis=1), [3, 2, 1])


class TestF1:
    def test_perfect_f1(self):
        np.testing.assert_allclose(f1_scores([0, 1], [0, 1]), [1.0, 1.0])

    def test_hand_computed(self):
        # Class 0: precision 1/2, recall 1/1 -> F1 = 2/3.
        scores = f1_scores([0, 1, 1], [0, 0, 1])
        assert scores[0] == pytest.approx(2.0 / 3.0)

    def test_absent_prediction_zero(self):
        scores = f1_scores([0, 1], [0, 0])
        assert scores[1] == 0.0


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
