"""Tests for exact Shapley enumeration (paper Eq. 4)."""

import numpy as np
import pytest

from repro.explain.shapley import coalition_value_fn, exact_shapley
from repro.ml.tree import DecisionTreeClassifier
from tests.treeshap_oracle import (
    exact_tree_shapley,
    tree_conditional_expectation,
)


class TestCoalitionValue:
    def test_empty_coalition_is_background_mean(self, rng):
        background = rng.normal(size=(50, 3))
        model = lambda rows: rows[:, 0]
        value = coalition_value_fn(model, np.array([9.0, 0.0, 0.0]), background)
        assert value(()) == pytest.approx(background[:, 0].mean())

    def test_full_coalition_is_model_at_x(self, rng):
        background = rng.normal(size=(50, 3))
        model = lambda rows: rows[:, 0] + 2 * rows[:, 2]
        x = np.array([1.0, 5.0, -1.0])
        value = coalition_value_fn(model, x, background)
        assert value((0, 1, 2)) == pytest.approx(-1.0)

    def test_feature_count_mismatch(self, rng):
        with pytest.raises(ValueError, match="features"):
            coalition_value_fn(lambda r: r[:, 0], np.ones(4),
                               rng.normal(size=(5, 3)))


class TestExactShapley:
    def test_linear_model_recovers_coefficients(self, rng):
        # For f(x) = w.x the Shapley value of feature i is
        # w_i * (x_i - E[background_i]).
        weights = np.array([2.0, -1.0, 0.5])
        model = lambda rows: rows @ weights
        background = rng.normal(size=(100, 3))
        x = np.array([1.0, 2.0, 3.0])
        phi = exact_shapley(model, x, background)
        expected = weights * (x - background.mean(axis=0))
        np.testing.assert_allclose(phi, expected, atol=1e-9)

    def test_local_accuracy(self, rng):
        model = lambda rows: np.sin(rows[:, 0]) + rows[:, 1] * rows[:, 2]
        background = rng.normal(size=(30, 3))
        x = rng.normal(size=3)
        phi = exact_shapley(model, x, background)
        f_x = model(x[None, :])[0]
        base = model(background).mean()
        assert phi.sum() == pytest.approx(f_x - base, abs=1e-9)

    def test_symmetry(self, rng):
        # Features 0 and 1 enter symmetrically; equal inputs get equal phi.
        model = lambda rows: rows[:, 0] + rows[:, 1]
        background = np.zeros((10, 2))
        phi = exact_shapley(model, np.array([3.0, 3.0]), background)
        assert phi[0] == pytest.approx(phi[1])

    def test_dummy_feature_zero(self, rng):
        model = lambda rows: rows[:, 0] * 2.0
        background = rng.normal(size=(40, 3))
        phi = exact_shapley(model, np.array([1.0, 9.0, -9.0]), background)
        assert phi[1] == pytest.approx(0.0, abs=1e-9)
        assert phi[2] == pytest.approx(0.0, abs=1e-9)

    def test_too_many_features_guarded(self, rng):
        with pytest.raises(ValueError, match="enumeration"):
            exact_shapley(lambda r: r[:, 0], np.ones(20),
                          rng.normal(size=(5, 20)))


class TestTreeConditionalExpectation:
    @pytest.fixture()
    def fitted_tree(self, rng):
        x = rng.uniform(-1, 1, size=(200, 3))
        y = np.where(x[:, 0] > 0, 1, np.where(x[:, 1] > 0.3, 1, 0))
        return DecisionTreeClassifier(max_depth=4).fit(x, y), x

    def test_all_features_fixed_equals_prediction(self, fitted_tree):
        tree_model, x = fitted_tree
        for row in range(5):
            expected = tree_model.predict_proba(x[row:row + 1])[0, 1]
            value = tree_conditional_expectation(
                tree_model.tree_, x[row], [0, 1, 2], class_index=1
            )
            assert value == pytest.approx(expected)

    def test_no_features_fixed_equals_weighted_root(self, fitted_tree):
        tree_model, x = fitted_tree
        structure = tree_model.tree_
        leaves = np.flatnonzero(structure.children_left == -1)
        weights = structure.n_node_samples[leaves] / structure.n_node_samples[0]
        expected = float(weights @ structure.value[leaves, 1])
        value = tree_conditional_expectation(structure, x[0], [], class_index=1)
        assert value == pytest.approx(expected)

    def test_exact_tree_shapley_local_accuracy(self, fitted_tree):
        tree_model, x = fitted_tree
        phi = exact_tree_shapley(tree_model, x[0], class_index=1)
        full = tree_conditional_expectation(
            tree_model.tree_, x[0], [0, 1, 2], class_index=1
        )
        empty = tree_conditional_expectation(
            tree_model.tree_, x[0], [], class_index=1
        )
        assert phi.sum() == pytest.approx(full - empty, abs=1e-10)
