"""Tests for TreeSHAP against exact enumeration and the recursive oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.explain.treeshap import TreeExplainer
from repro.ml.forest import RandomForestClassifier
from repro.ml.tree import DecisionTreeClassifier
from tests.treeshap_oracle import (
    exact_tree_shapley,
    recursive_shap_values,
    recursive_tree_shap_values,
)

#: Per-leaf and recursive TreeSHAP sum the same terms in another order.
ORACLE_TOL = 1e-12


def tree_shap_values(tree_model, x):
    """``(phi, base)`` of one row for one tree: phi is (M, n_classes)."""
    explainer = TreeExplainer(tree_model)
    phi = explainer.shap_values(np.asarray(x, dtype=float)[None, :])[0]
    return phi, explainer.expected_value


@pytest.fixture()
def fitted_tree(rng):
    x = rng.uniform(-1, 1, size=(300, 5))
    y = (
        (x[:, 0] > 0).astype(int)
        + (x[:, 2] > 0.4).astype(int)
    )
    return DecisionTreeClassifier(max_depth=5, random_state=0).fit(x, y), x


@pytest.fixture()
def fitted_forest(rng):
    x = rng.uniform(-1, 1, size=(250, 4))
    y = np.where(x[:, 0] + x[:, 1] > 0, 1, 0)
    forest = RandomForestClassifier(n_estimators=12, max_depth=5,
                                    random_state=0).fit(x, y)
    return forest, x


class TestTreeShapValues:
    def test_matches_exact_enumeration(self, fitted_tree):
        tree_model, x = fitted_tree
        for row in range(8):
            phi, _ = tree_shap_values(tree_model, x[row])
            for class_index in range(len(tree_model.classes_)):
                exact = exact_tree_shapley(tree_model, x[row], class_index)
                np.testing.assert_allclose(
                    phi[:, class_index], exact, atol=1e-10,
                    err_msg=f"row {row} class {class_index}",
                )

    def test_local_accuracy(self, fitted_tree):
        tree_model, x = fitted_tree
        for row in range(5):
            phi, base = tree_shap_values(tree_model, x[row])
            prediction = tree_model.predict_proba(x[row:row + 1])[0]
            np.testing.assert_allclose(
                base + phi.sum(axis=0), prediction, atol=1e-10
            )

    def test_repeated_split_feature(self, rng):
        # Trees splitting the same feature twice exercise the UNWIND path.
        x = rng.uniform(0, 1, size=(400, 2))
        y = ((x[:, 0] > 0.25) & (x[:, 0] < 0.75)).astype(int)
        tree_model = DecisionTreeClassifier(max_depth=4).fit(x, y)
        # Confirm the tree really reuses feature 0.
        splits = tree_model.tree_.feature[tree_model.tree_.feature >= 0]
        assert np.sum(splits == 0) >= 2
        for row in range(6):
            phi, _ = tree_shap_values(tree_model, x[row])
            exact = exact_tree_shapley(tree_model, x[row], 1)
            np.testing.assert_allclose(phi[:, 1], exact, atol=1e-10)

    def test_single_leaf_tree(self, rng):
        x = rng.normal(size=(20, 3))
        tree_model = DecisionTreeClassifier().fit(x, np.zeros(20, dtype=int))
        phi, base = tree_shap_values(tree_model, x[0])
        np.testing.assert_allclose(phi, 0.0)
        np.testing.assert_allclose(base, [1.0])

    def test_unused_feature_gets_zero(self, fitted_tree):
        tree_model, x = fitted_tree
        used = set(tree_model.tree_.feature[tree_model.tree_.feature >= 0].tolist())
        unused = [f for f in range(5) if f not in used]
        if not unused:
            pytest.skip("tree used every feature")
        phi, _ = tree_shap_values(tree_model, x[0])
        for feature in unused:
            np.testing.assert_allclose(phi[feature], 0.0, atol=1e-12)


class TestTreeExplainer:
    def test_forest_local_accuracy(self, fitted_forest):
        forest, x = fitted_forest
        explainer = TreeExplainer(forest)
        values = explainer.shap_values(x[:20])
        proba = forest.predict_proba(x[:20])
        np.testing.assert_allclose(
            explainer.expected_value[None, :] + values.sum(axis=1),
            proba, atol=1e-8,
        )

    def test_single_tree_explainer(self, fitted_tree):
        tree_model, x = fitted_tree
        explainer = TreeExplainer(tree_model)
        values = explainer.shap_values(x[:3])
        assert values.shape == (3, 5, len(tree_model.classes_))

    def test_shap_values_for_class(self, fitted_forest):
        forest, x = fitted_forest
        explainer = TreeExplainer(forest)
        all_values = explainer.shap_values(x[:5])
        one = explainer.shap_values_for_class(x[:5], 1)
        np.testing.assert_allclose(one, all_values[:, :, 1])

    def test_unknown_class_rejected(self, fitted_forest):
        forest, x = fitted_forest
        explainer = TreeExplainer(forest)
        with pytest.raises(ValueError, match="unknown class"):
            explainer.shap_values_for_class(x[:2], 99)

    def test_informative_feature_dominates(self, fitted_forest):
        forest, x = fitted_forest
        explainer = TreeExplainer(forest)
        values = explainer.shap_values(x[:40])
        importance = np.abs(values[:, :, 1]).mean(axis=0)
        # Features 0 and 1 define the label; 2 and 3 are noise.
        assert min(importance[0], importance[1]) > max(importance[2], importance[3])

    def test_unfitted_model_rejected(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            TreeExplainer(DecisionTreeClassifier())
        with pytest.raises(RuntimeError, match="not fitted"):
            TreeExplainer(RandomForestClassifier())

    def test_wrong_model_type_rejected(self):
        with pytest.raises(TypeError, match="TreeExplainer supports"):
            TreeExplainer(object())

    def test_feature_count_checked(self, fitted_forest):
        forest, x = fitted_forest
        explainer = TreeExplainer(forest)
        with pytest.raises(ValueError, match="features"):
            explainer.shap_values(np.ones((1, 9)))


def _trees_of(model):
    return model.trees_ if isinstance(model, RandomForestClassifier) else [model]


def _assert_matches_oracle(model, x):
    explainer = TreeExplainer(model)
    expected = recursive_shap_values(_trees_of(model), explainer.classes_, x)
    np.testing.assert_allclose(explainer.shap_values(x), expected,
                               rtol=0, atol=ORACLE_TOL)


class TestRecursiveOracle:
    """The per-leaf evaluation against the recursive Algorithm 2."""

    @given(seed=st.integers(0, 2**32 - 1),
           n_rows=st.integers(10, 120),
           n_features=st.integers(1, 6),
           n_labels=st.integers(1, 5),
           max_depth=st.integers(1, 8),
           levels=st.integers(2, 12),
           forest=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_random_models(self, seed, n_rows, n_features, n_labels,
                           max_depth, levels, forest):
        gen = np.random.default_rng(seed)
        # Few distinct values per feature: ties, and trees that split the
        # same feature repeatedly on one path.
        x = gen.integers(0, levels, size=(n_rows, n_features)) / levels
        y = gen.integers(0, n_labels, size=n_rows)
        if forest:
            model = RandomForestClassifier(n_estimators=4, max_depth=max_depth,
                                           random_state=seed)
        else:
            model = DecisionTreeClassifier(max_depth=max_depth,
                                           random_state=seed)
        model.fit(x, y)
        queries = np.vstack([x[:6], gen.uniform(-0.1, 1.1, (3, n_features))])
        _assert_matches_oracle(model, queries)

    @pytest.mark.parametrize("max_depth", range(1, 9))
    def test_depths(self, rng, max_depth):
        x = rng.uniform(-1, 1, size=(400, 6))
        y = (x[:, 0] + x[:, 1] * x[:, 2] > 0).astype(int) + (x[:, 3] > 0.5)
        model = DecisionTreeClassifier(max_depth=max_depth).fit(x, y)
        assert model.tree_.max_depth() == max_depth
        _assert_matches_oracle(model, x[:10])

    def test_repeated_split_features(self, rng):
        x = rng.uniform(0, 1, size=(500, 2))
        y = ((x[:, 0] > 0.2) & (x[:, 0] < 0.4)).astype(int) + (x[:, 0] > 0.7)
        model = DecisionTreeClassifier(max_depth=8).fit(x, y)
        tree = model.tree_
        # Some root-to-leaf path splits feature 0 at least three times.
        uses = {0: 0}
        for node in range(tree.n_nodes):
            if tree.is_leaf(node):
                continue
            for child in (tree.children_left[node], tree.children_right[node]):
                uses[child] = uses[node] + int(tree.feature[node] == 0)
        assert max(uses.values()) >= 3
        _assert_matches_oracle(model, np.vstack([x[:10], [[0.3, 0.5]]]))

    def test_single_leaf_trees(self, rng):
        x = rng.normal(size=(30, 3))
        model = DecisionTreeClassifier().fit(x, np.full(30, 4))
        assert model.tree_.n_nodes == 1
        _assert_matches_oracle(model, x[:4])
        forest = RandomForestClassifier(n_estimators=3, random_state=0)
        forest.fit(x, np.full(30, 4))
        _assert_matches_oracle(forest, x[:4])
        assert np.all(TreeExplainer(forest).shap_values(x[:4]) == 0.0)

    def test_bootstrap_trees_missing_a_class(self, rng):
        x = rng.uniform(-1, 1, size=(60, 4))
        y = (x[:, 0] > 0).astype(int)
        y[:2] = 2  # rare class: most bootstrap samples miss it
        forest = RandomForestClassifier(n_estimators=20, max_depth=5,
                                        random_state=3).fit(x, y)
        assert any(tree.classes_.size < forest.classes_.size
                   for tree in forest.trees_)
        _assert_matches_oracle(forest, x[:10])

    def test_tree_shap_values_wrapper(self, fitted_tree):
        tree_model, x = fitted_tree
        for row in range(4):
            phi, base = tree_shap_values(tree_model, x[row])
            expected_phi, expected_base = recursive_tree_shap_values(
                tree_model.tree_, x[row])
            np.testing.assert_allclose(phi, expected_phi, rtol=0,
                                       atol=ORACLE_TOL)
            np.testing.assert_array_equal(base, expected_base)

    def test_rows_span_several_chunks(self, fitted_forest, monkeypatch):
        import repro.explain.treeshap as treeshap

        forest, x = fitted_forest
        whole = TreeExplainer(forest).shap_values(x[:30])
        monkeypatch.setattr(treeshap, "_CHUNK_ELEMENTS", 1)
        np.testing.assert_allclose(
            TreeExplainer(forest).shap_values(x[:30]), whole,
            rtol=0, atol=ORACLE_TOL)

    def test_paper_scale_forest(self, full_profile):
        # Two antennas per cluster of the 100-tree, depth-6 surrogate.
        rows = np.concatenate([np.flatnonzero(full_profile.labels == c)[:2]
                               for c in np.unique(full_profile.labels)])
        assert rows.size >= 18
        _assert_matches_oracle(full_profile.surrogate,
                               full_profile.features[rows])
