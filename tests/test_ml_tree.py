"""Tests for the from-scratch CART decision tree."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.tree import LEAF, DecisionTreeClassifier, column_ranks, packed_argsort
from repro.utils.rng import derive_seed

from tests.cart_oracle import assert_matches_oracle


@pytest.fixture()
def xor_free_data(rng):
    # Axis-separable three-class problem a greedy CART must solve exactly.
    x = rng.uniform(-1, 1, size=(300, 4))
    y = np.where(x[:, 0] > 0, 2, np.where(x[:, 1] > 0, 1, 0))
    return x, y


class TestFit:
    def test_pure_leaves_on_separable_data(self, xor_free_data):
        x, y = xor_free_data
        tree = DecisionTreeClassifier().fit(x, y)
        assert np.all(tree.predict(x) == y)

    def test_max_depth_respected(self, xor_free_data):
        x, y = xor_free_data
        tree = DecisionTreeClassifier(max_depth=2).fit(x, y)
        assert tree.tree_.max_depth() <= 2

    def test_min_samples_leaf_respected(self, xor_free_data):
        x, y = xor_free_data
        tree = DecisionTreeClassifier(min_samples_leaf=20).fit(x, y)
        leaves = tree.tree_.children_left == LEAF
        assert np.all(tree.tree_.n_node_samples[leaves] >= 20)

    def test_single_class_is_single_leaf(self, rng):
        x = rng.normal(size=(30, 3))
        tree = DecisionTreeClassifier().fit(x, np.zeros(30, dtype=int))
        assert tree.tree_.n_nodes == 1

    def test_constant_features_single_leaf(self):
        x = np.ones((20, 3))
        y = np.array([0, 1] * 10)
        tree = DecisionTreeClassifier().fit(x, y)
        assert tree.tree_.n_nodes == 1
        np.testing.assert_allclose(tree.predict_proba(x)[0], [0.5, 0.5])

    def test_string_labels_supported(self, rng):
        x = rng.normal(size=(40, 2))
        y = np.where(x[:, 0] > 0, "high", "low")
        tree = DecisionTreeClassifier().fit(x, y)
        assert set(tree.predict(x)) <= {"high", "low"}
        assert np.all(tree.predict(x) == y)

    def test_value_rows_are_distributions(self, xor_free_data):
        x, y = xor_free_data
        tree = DecisionTreeClassifier(max_depth=3).fit(x, y)
        np.testing.assert_allclose(tree.tree_.value.sum(axis=1), 1.0)

    def test_children_sample_counts_add_up(self, xor_free_data):
        x, y = xor_free_data
        tree = DecisionTreeClassifier(max_depth=5).fit(x, y)
        structure = tree.tree_
        for node in range(structure.n_nodes):
            if not structure.is_leaf(node):
                left = structure.children_left[node]
                right = structure.children_right[node]
                assert (
                    structure.n_node_samples[node]
                    == structure.n_node_samples[left]
                    + structure.n_node_samples[right]
                )

    def test_max_features_subsampling_changes_tree(self, xor_free_data):
        x, y = xor_free_data
        full = DecisionTreeClassifier(random_state=0).fit(x, y)
        sub = DecisionTreeClassifier(max_features=1, random_state=0).fit(x, y)
        assert full.tree_.n_nodes != sub.tree_.n_nodes or not np.array_equal(
            full.tree_.feature, sub.tree_.feature
        )

    def test_deterministic_given_seed(self, xor_free_data):
        x, y = xor_free_data
        a = DecisionTreeClassifier(max_features="sqrt", random_state=7).fit(x, y)
        b = DecisionTreeClassifier(max_features="sqrt", random_state=7).fit(x, y)
        np.testing.assert_array_equal(a.tree_.feature, b.tree_.feature)
        np.testing.assert_array_equal(a.tree_.threshold, b.tree_.threshold)


class TestMatchesOracle:
    """The level-wise grower equals the depth-first oracle node for node."""

    @given(seed=st.integers(0, 2**32 - 1),
           n_rows=st.integers(1, 40),
           n_features=st.integers(1, 5),
           n_classes=st.integers(1, 4),
           levels=st.integers(1, 6),
           constant_first=st.booleans(),
           weighted=st.booleans(),
           max_depth=st.sampled_from([None, 1, 2, 4]),
           min_samples_leaf=st.integers(1, 3),
           min_samples_split=st.integers(2, 7),
           max_features=st.sampled_from([None, "sqrt", 1, 2, 3]))
    @settings(max_examples=200, deadline=None)
    def test_hypothesis_inputs(self, seed, n_rows, n_features, n_classes,
                               levels, constant_first, weighted, max_depth,
                               min_samples_leaf, min_samples_split,
                               max_features):
        gen = np.random.default_rng(seed)
        # Few distinct values per column make ties within every node.
        x = gen.integers(0, levels, size=(n_rows, n_features)) / levels
        if constant_first:
            x[:, 0] = 0.5
        y = gen.integers(0, n_classes, size=n_rows) * 3 + 1
        if isinstance(max_features, int):
            max_features = min(max_features, n_features)
        tree = DecisionTreeClassifier(
            max_depth=max_depth, min_samples_leaf=min_samples_leaf,
            min_samples_split=min_samples_split, max_features=max_features,
            random_state=seed,
        )
        if weighted:
            # Bootstrap-like counts: zeros, repeats, and a class that may
            # vanish entirely.
            weights = gen.integers(0, 4, size=n_rows)
            weights[gen.integers(n_rows)] += 1
            classes, codes = np.unique(y, return_inverse=True)
            tree._fit_weighted(x, column_ranks(x), codes, classes, weights)
            assert_matches_oracle(tree, np.repeat(x, weights, axis=0),
                                  np.repeat(y, weights))
        else:
            tree.fit(x, y)
            assert_matches_oracle(tree, x, y)

    def test_unbounded_depth_on_continuous_features(self, rng):
        x = rng.normal(size=(400, 12))
        y = rng.integers(0, 5, size=400)
        tree = DecisionTreeClassifier(max_features="sqrt", random_state=5)
        tree.fit(x, y)
        assert tree.tree_.max_depth() > 6
        assert_matches_oracle(tree, x, y)

    def test_every_tree_of_the_paper_fit(self, full_profile):
        forest = full_profile.surrogate
        x, y = full_profile.features, full_profile.labels
        n = x.shape[0]
        assert len(forest.trees_) == 100
        for t, tree in enumerate(forest.trees_):
            draw = np.random.default_rng(derive_seed(forest.random_state, "tree", t))
            weights = np.bincount(draw.integers(0, n, size=n), minlength=n)
            assert_matches_oracle(tree, np.repeat(x, weights, axis=0),
                                  np.repeat(y, weights))


class TestPredict:
    def test_predict_proba_shape(self, xor_free_data):
        x, y = xor_free_data
        tree = DecisionTreeClassifier(max_depth=4).fit(x, y)
        proba = tree.predict_proba(x[:10])
        assert proba.shape == (10, 3)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            DecisionTreeClassifier().predict(np.ones((1, 2)))

    def test_feature_count_mismatch_rejected(self, xor_free_data):
        x, y = xor_free_data
        tree = DecisionTreeClassifier(max_depth=2).fit(x, y)
        with pytest.raises(ValueError, match="features"):
            tree.predict(np.ones((1, 7)))

    def test_threshold_routing_boundary(self):
        # Split at 0.5: value exactly at the threshold goes left (<=).
        x = np.array([[0.0], [1.0]] * 10)
        y = np.array([0, 1] * 10)
        tree = DecisionTreeClassifier().fit(x, y)
        assert tree.predict(np.array([[0.5]]))[0] == 0


class TestValidation:
    def test_bad_params(self):
        with pytest.raises(ValueError, match="max_depth"):
            DecisionTreeClassifier(max_depth=0)
        with pytest.raises(ValueError, match="min_samples_split"):
            DecisionTreeClassifier(min_samples_split=1)
        with pytest.raises(ValueError, match="min_samples_leaf"):
            DecisionTreeClassifier(min_samples_leaf=0)

    def test_bad_max_features(self, rng):
        x = rng.normal(size=(10, 3))
        y = np.array([0, 1] * 5)
        with pytest.raises(ValueError, match="max_features"):
            DecisionTreeClassifier(max_features=10).fit(x, y)
        with pytest.raises(ValueError, match="max_features"):
            DecisionTreeClassifier(max_features="log2").fit(x, y)

    def test_label_shape_mismatch(self, rng):
        with pytest.raises(ValueError, match="one label per row"):
            DecisionTreeClassifier().fit(rng.normal(size=(10, 2)), np.zeros(9))


class TestPackedArgsort:
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 4096),
           high=st.sampled_from([1, 2, 7, 4096, 2**40]))
    @settings(max_examples=60, deadline=None)
    def test_sorted_keys_and_a_sorting_permutation(self, seed, size, high):
        # Small ``high`` makes most keys ties.
        key = np.random.default_rng(seed).integers(0, high, size=size)
        ordered, order = packed_argsort(key)
        assert np.array_equal(np.sort(order), np.arange(size))
        assert np.array_equal(key[order], ordered)
        assert np.array_equal(ordered, np.sort(key))
        # Ties keep their index order.
        assert np.array_equal(order, np.argsort(key, kind="stable"))

    @given(size=st.integers(2, 4096))
    @settings(max_examples=30, deadline=None)
    def test_raises_once_key_and_index_bits_exceed_63(self, size):
        shift = (size - 1).bit_length()
        widest = np.zeros(size, dtype=np.int64)
        widest[-1] = 2 ** (63 - shift) - 1
        ordered, order = packed_argsort(widest)
        assert ordered[-1] == widest[-1] and order[-1] == size - 1
        widest[-1] += 1
        with pytest.raises(ValueError, match="63 bits"):
            packed_argsort(widest)
