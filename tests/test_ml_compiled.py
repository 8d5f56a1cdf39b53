"""Tests for the array-compiled forest and the fused serving kernel.

The contract under test is **bit-identity**: every float the compiled
kernel produces must equal — to the last bit, ``np.array_equal``, no
tolerances — what the object forest produces, across direct calls,
``.npz`` round-trips, and randomly fitted forests (hypothesis).
"""

import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.compiled import (
    CompiledForest,
    FusedProfileKernel,
    compile_forest,
    compile_tree,
)
from repro.ml.forest import RandomForestClassifier
from repro.ml.tree import LEAF, DecisionTreeClassifier
from repro.relia.errors import CheckpointCorrupt
from repro.stream.checkpoint import load_state, save_state
from repro.stream.frozen import FrozenProfile

from tests.compiled_oracle import compiled_equivalent, full_vote
from tests.conftest import build_frozen_profile


def fitted_forest(seed=0, n=200, m=8, n_labels=5, n_estimators=12,
                  max_depth=6, spread=3):
    """A small fitted forest on random data with non-contiguous labels."""
    gen = np.random.default_rng(seed)
    x = gen.normal(size=(n, m))
    y = gen.integers(0, n_labels, size=n) * spread + 1
    forest = RandomForestClassifier(
        n_estimators=n_estimators, max_depth=max_depth, random_state=seed
    )
    return forest.fit(x, y), gen.normal(size=(97, m))


class TestCompileTree:
    def test_unfitted_tree_raises(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            compile_tree(DecisionTreeClassifier())

    def test_leaves_self_loop(self):
        forest, _ = fitted_forest()
        compiled = forest.trees_[0].compile()
        leaves = np.flatnonzero(compiled.feature == LEAF)
        assert leaves.size > 0
        assert np.array_equal(compiled.left[leaves], leaves)
        assert np.array_equal(compiled.right[leaves], leaves)

    def test_class_space_expansion_is_exact(self):
        forest, _ = fitted_forest()
        tree = forest.trees_[0]
        compiled = tree.compile(forest.classes_)
        cols = np.searchsorted(forest.classes_, tree.classes_)
        assert np.array_equal(compiled.values[:, cols], tree.tree_.value)
        off_cols = np.setdiff1d(
            np.arange(forest.classes_.size), cols
        )
        assert not compiled.values[:, off_cols].any()

    def test_foreign_class_space_rejected(self):
        forest, _ = fitted_forest()
        tree = forest.trees_[0]
        with pytest.raises(ValueError, match="absent from the target"):
            compile_tree(tree, classes=np.array([999, 1000]))


class TestCompiledForest:
    def test_unfitted_forest_raises(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            compile_forest(RandomForestClassifier())

    def test_stacking_shapes(self):
        forest, _ = fitted_forest()
        compiled = forest.compile()
        total = sum(t.tree_.n_nodes for t in forest.trees_)
        assert compiled.n_nodes == total
        assert compiled.n_trees == len(forest.trees_)
        assert np.all(np.diff(compiled.roots) > 0)
        assert compiled.values.shape == (total, forest.classes_.size)

    def test_leaf_indices_match_object_traversal(self):
        forest, queries = fitted_forest()
        compiled = forest.compile()
        leaves = compiled.leaf_indices(queries)
        for t, tree in enumerate(forest.trees_):
            object_leaves = tree.decision_path_leaf(queries)
            assert np.array_equal(
                leaves[:, t] - compiled.roots[t], object_leaves
            )

    def test_bit_identical_proba_and_labels(self):
        forest, queries = fitted_forest()
        compiled = forest.compile()
        assert np.array_equal(
            compiled.predict_proba(queries), forest.predict_proba(queries)
        )
        assert np.array_equal(compiled.predict(queries), forest.predict(queries))

    def test_empty_batch_rejected_like_object_forest(self):
        forest, queries = fitted_forest()
        compiled = forest.compile()
        empty = queries[:0]
        with pytest.raises(ValueError, match="non-empty"):
            forest.predict_proba(empty)
        with pytest.raises(ValueError, match="non-empty"):
            compiled.predict_proba(empty)

    def test_feature_count_mismatch_raises(self):
        forest, queries = fitted_forest()
        compiled = forest.compile()
        with pytest.raises(ValueError, match="features"):
            compiled.predict_proba(queries[:, :-1])

    def test_nan_rejected_like_object_forest(self):
        forest, queries = fitted_forest()
        compiled = forest.compile()
        poisoned = queries.copy()
        poisoned[::3, 0] = np.nan
        with pytest.raises(ValueError):
            forest.predict_proba(poisoned)
        with pytest.raises(ValueError):
            compiled.predict_proba(poisoned)

    def test_compiled_equivalent_detects_tampering(self):
        forest, queries = fitted_forest()
        compiled = forest.compile()
        ok, detail = compiled_equivalent(forest, compiled, queries)
        assert ok and detail == "bit-identical"
        tampered = dataclasses.replace(compiled, values=compiled.values * 1.01)
        ok, detail = compiled_equivalent(forest, tampered, queries)
        assert not ok
        assert "differs" in detail


class TestFusedProfileKernel:
    def test_vote_bit_identical_to_profile(self, tiny_frozen, rng):
        frozen, _totals = tiny_frozen
        kernel = frozen.kernel()
        queries = frozen.features + rng.normal(0, 1e-3, frozen.features.shape)
        assert np.array_equal(kernel.vote(queries), frozen.vote(queries))

    @pytest.mark.parametrize("n_rows", [1, 31, 32, 33, 400])
    def test_blocked_centroid_distances_bit_identical(self, tiny_frozen, rng,
                                                       n_rows):
        # Block edges at 32 rows: one short, exact, one over, and many.
        frozen, _totals = tiny_frozen
        kernel = frozen.kernel()
        picks = rng.integers(0, frozen.features.shape[0], n_rows)
        queries = frozen.features[picks] + rng.normal(0, 0.5, (n_rows, frozen.features.shape[1]))
        expected = np.linalg.norm(queries[:, None, :] - frozen.centroids[None], axis=2)
        assert np.array_equal(kernel._centroid_distances(queries), expected)
        assert np.array_equal(kernel.nearest_centroids(queries),
                              frozen.nearest_centroids(queries))

    def test_rsca_and_fused_volume_path(self, tiny_frozen, rng):
        frozen, _totals = tiny_frozen
        kernel = frozen.kernel()
        volumes = rng.lognormal(1.0, 1.0, size=(40, len(frozen.service_names)))
        assert np.array_equal(
            kernel.rsca_of_volumes(volumes), frozen.rsca_of_volumes(volumes)
        )
        assert np.array_equal(
            kernel.vote_volumes(volumes),
            frozen.vote(frozen.rsca_of_volumes(volumes)),
        )

    def test_volume_queries_need_service_totals(self, tiny_frozen):
        frozen, _totals = tiny_frozen
        kernel = FusedProfileKernel(
            frozen.compiled_forest(), frozen.clusters, frozen.centroids
        )
        with pytest.raises(ValueError, match="service_totals"):
            kernel.rsca_of_volumes(np.ones((2, len(frozen.service_names))))

    def test_overflowing_row_totals_rejected(self, tiny_frozen):
        frozen, _totals = tiny_frozen
        row = np.full((1, len(frozen.service_names)), 1e308)
        for transform in (frozen.rsca_of_volumes,
                          frozen.kernel().rsca_of_volumes):
            with pytest.raises(ValueError, match="overflow"):
                transform(row)

    def test_shape_mismatches_raise(self, tiny_frozen):
        frozen, _totals = tiny_frozen
        with pytest.raises(ValueError, match="clusters"):
            FusedProfileKernel(
                frozen.compiled_forest(), frozen.clusters[:-1], frozen.centroids
            )
        kernel = frozen.kernel()
        with pytest.raises(ValueError, match="features"):
            kernel.vote(frozen.features[:, :-1])
        with pytest.raises(ValueError, match="columns"):
            kernel.rsca_of_volumes(np.ones((2, 3)))

    def test_describe(self, tiny_frozen):
        frozen, _totals = tiny_frozen
        shape = frozen.kernel().describe()
        assert shape["n_trees"] == 10
        assert shape["n_clusters"] == 4
        assert shape["volume_queries"] is True



def stump_kernel(leaf_values, forest_classes, clusters, centroids):
    """A kernel on hand-built stumps: feature 0 <= 0 goes left, else right.

    ``leaf_values`` is ``(trees, 2, classes)``: each tree's left and right
    leaf distribution in the forest's class space.
    """
    leaf_values = np.asarray(leaf_values, dtype=float)
    n_trees, _, n_classes = leaf_values.shape
    roots = np.arange(n_trees) * 3
    values = np.concatenate(
        [np.zeros((n_trees, 1, n_classes)), leaf_values], axis=1
    ).reshape(-1, n_classes)
    forest = CompiledForest(
        classes=np.asarray(forest_classes),
        n_features=2,
        feature=np.tile([0, LEAF, LEAF], n_trees),
        threshold=np.zeros(3 * n_trees),
        left=np.stack([roots + 1, roots + 1, roots + 2], axis=1).ravel(),
        right=np.stack([roots + 2, roots + 1, roots + 2], axis=1).ravel(),
        values=values,
        roots=roots,
        max_depth=1,
    )
    return FusedProfileKernel(forest, np.asarray(clusters),
                              np.asarray(centroids, dtype=float))


#: Three clusters, one per column, around the stumps' split at feature 0.
CENTROIDS_3 = [[-1.0, 0.0], [0.5, 1.0], [1.0, -1.0]]


class TestVoteScreen:
    """The nearest-centroid screen against the vote that runs every tree."""

    def test_pure_class_overrides_only_higher_columns(self):
        # Every tree says cluster 2 with probability 1.0, so a row nearest
        # cluster 3 ties 1.0 against 1.0 and the lower column (2) wins,
        # while a row nearest cluster 1 keeps 1 (it is the first maximum).
        kernel = stump_kernel([[[0, 1, 0], [0, 1, 0]]] * 3, [1, 2, 3],
                              [1, 2, 3], CENTROIDS_3)
        queries = np.asarray(CENTROIDS_3)
        assert kernel.vote(queries).tolist() == [1, 2, 2]
        assert np.array_equal(kernel.vote(queries), full_vote(kernel, queries))

    def test_nearest_cluster_absent_from_forest(self):
        centroids = CENTROIDS_3 + [[2.0, 2.0]]
        queries = np.asarray(centroids)
        # Cluster 4 has no forest column: its score is exactly 1.0, so a
        # pure lower class takes the tie (the forest's last column, which
        # a screen must not read as cluster 4's) ...
        pure = stump_kernel([[[0, 0, 1], [0, 0, 1]]] * 2, [1, 2, 3],
                            [1, 2, 3, 4], centroids)
        assert pure.vote(queries).tolist() == [1, 2, 3, 3]
        assert np.array_equal(pure.vote(queries), full_vote(pure, queries))
        # ... and a split forest leaves the nearest centroid's vote standing.
        split = stump_kernel([[[0.5, 0.5, 0], [0, 0.5, 0.5]]] * 2, [1, 2, 3],
                             [1, 2, 3, 4], centroids)
        assert split.vote(queries).tolist() == [1, 2, 3, 4]
        assert np.array_equal(split.vote(queries), full_vote(split, queries))

    def test_leaf_value_above_one_is_not_screened(self):
        # Cluster 2 scores 2.0 against the nearest cluster 3's 1.5: a
        # screen trusting tree 0's positive weight for 3 would answer 3.
        kernel = stump_kernel([[[0, 2.0, 0.5], [0, 2.0, 0.5]]], [1, 2, 3],
                              [1, 2, 3], CENTROIDS_3)
        queries = np.asarray(CENTROIDS_3)
        assert kernel.vote(queries).tolist() == [2, 2, 2]
        assert np.array_equal(kernel.vote(queries), full_vote(kernel, queries))

    @pytest.mark.parametrize("v_min, nearest_wins", [(1e-17, False),
                                                     (1e-15, True)])
    def test_tiny_leaf_weight(self, v_min, nearest_wins):
        # 1.0 + 1e-17 rounds to 1.0, a tie that cluster 1 (pure at 1.0)
        # takes; 1.0 + 1e-15 does not, and the nearest cluster 3 wins.
        kernel = stump_kernel([[[1.0, 0, v_min], [1.0, 0, v_min]]], [1, 2, 3],
                              [1, 2, 3], CENTROIDS_3)
        queries = np.asarray(CENTROIDS_3[2:])
        assert kernel.vote(queries).tolist() == [3 if nearest_wins else 1]
        assert np.array_equal(kernel.vote(queries), full_vote(kernel, queries))

    @pytest.mark.parametrize("seed", range(40))
    def test_random_stump_forests_match_full_vote(self, seed):
        # Leaf values on a coarse grid make exact 1.0 ties common.
        gen = np.random.default_rng(seed)
        n_trees = int(gen.integers(1, 5))
        leaf_values = gen.choice([0.0, 0.25, 0.5, 1.0], size=(n_trees, 2, 3))
        clusters = np.sort(gen.choice(np.arange(1, 9), 4, replace=False))
        forest_classes = np.sort(gen.choice(clusters, 3, replace=False))
        centroids = gen.normal(size=(4, 2))
        kernel = stump_kernel(leaf_values, forest_classes, clusters, centroids)
        queries = np.vstack([centroids, gen.normal(0, 2, size=(60, 2))])
        assert np.array_equal(kernel.vote(queries), full_vote(kernel, queries))

    @pytest.mark.parametrize("sigma", [0.0, 0.01, 0.3, 1.0, 3.0])
    def test_seeded_rows_match_frozen_vote(self, tiny_frozen, sigma):
        frozen, _totals = tiny_frozen
        kernel = frozen.kernel()
        for seed in range(5):
            gen = np.random.default_rng(seed)
            picks = gen.integers(0, frozen.features.shape[0], 200)
            queries = frozen.features[picks] + gen.normal(
                0, sigma, (200, frozen.features.shape[1]))
            expected = frozen.vote(queries)
            assert np.array_equal(kernel.vote(queries), expected)
            assert np.array_equal(
                np.concatenate([kernel.vote(row[None]) for row in queries[:20]]),
                expected[:20],
            )

class TestFrozenProfileEmbedding:
    def test_save_embeds_compiled_arrays(self, tiny_frozen, tmp_path):
        frozen, _totals = tiny_frozen
        path = tmp_path / "frozen.npz"
        frozen.save(path)
        names = set(load_state(path))
        assert {"compiled_feature", "compiled_threshold", "compiled_left",
                "compiled_right", "compiled_values", "compiled_roots",
                "compiled_classes", "compiled_shape"} <= names

    def test_load_restores_the_verified_compiled_forest(
        self, tiny_frozen, tmp_path
    ):
        frozen, _totals = tiny_frozen
        path = tmp_path / "frozen.npz"
        frozen.save(path)
        loaded = FrozenProfile.load(path)
        assert loaded.compiled is not None
        queries = frozen.features[:50]
        assert np.array_equal(
            loaded.kernel().vote(queries), frozen.vote(queries)
        )

    def test_stale_compiled_arrays_are_rejected(self, tiny_frozen, tmp_path):
        # An archive whose kernel came from another forest (as one frozen
        # by a version that grew trees differently) must not load: the
        # served kernel would disagree with vote() and TreeSHAP.
        frozen, _totals = tiny_frozen
        path = tmp_path / "frozen.npz"
        frozen.save(path)
        other = copy.copy(frozen.surrogate)
        other.random_state += 1
        other.fit(frozen.features, frozen.labels)
        state = load_state(path)
        state.update(other.compile().to_arrays())
        stale = tmp_path / "stale.npz"
        save_state(stale, state)
        with pytest.raises(CheckpointCorrupt, match="re-freeze") as excinfo:
            FrozenProfile.load(stale)
        assert excinfo.value.path == str(stale)

    def test_archive_without_compiled_arrays_is_rejected(
        self, tiny_frozen, tmp_path
    ):
        # Without a stored kernel there is nothing to check the refit
        # against, so the archive fails the same stale-kernel check.
        frozen, _totals = tiny_frozen
        path = tmp_path / "frozen.npz"
        frozen.save(path)
        stripped = {
            name: value for name, value in load_state(path).items()
            if not name.startswith("compiled_")
        }
        legacy = tmp_path / "legacy.npz"
        save_state(legacy, stripped)
        with pytest.raises(CheckpointCorrupt, match="re-freeze"):
            FrozenProfile.load(legacy)


class TestPaperScale:
    def test_votes_bit_identical_at_paper_scale(self, full_dataset,
                                                full_profile, rng):
        frozen = full_profile.freeze(
            service_totals=full_dataset.totals.sum(axis=0)
        )
        # All 4,762 rows: the vote's last 256-row block is partial (154).
        queries = np.clip(
            frozen.features
            + rng.normal(0, 1e-4, size=frozen.features.shape),
            -1.0, 1.0,
        )
        kernel = frozen.kernel()
        assert np.array_equal(kernel.vote(queries), frozen.vote(queries))
        ok, detail = compiled_equivalent(
            frozen.surrogate, kernel.forest, queries
        )
        assert ok, detail


    def test_forest_runs_on_few_rows_at_paper_scale(self, full_dataset,
                                                    full_profile, rng,
                                                    monkeypatch):
        # The screen decides almost every row by its nearest centroid;
        # without it every row would reach the 100-tree vote.
        frozen = full_profile.freeze(
            service_totals=full_dataset.totals.sum(axis=0)
        )
        kernel = frozen.kernel()
        queries = np.clip(
            frozen.features
            + rng.normal(0, 1e-4, size=frozen.features.shape),
            -1.0, 1.0,
        )
        forest_rows = []
        predict_proba = CompiledForest.predict_proba

        def counting(forest, x):
            forest_rows.append(len(x))
            return predict_proba(forest, x)

        monkeypatch.setattr(CompiledForest, "predict_proba", counting)
        labels = kernel.vote(queries)
        monkeypatch.undo()
        assert sum(forest_rows) < 0.1 * len(queries)
        assert np.array_equal(labels, full_vote(kernel, queries))

seeds = st.integers(min_value=0, max_value=2**32 - 1)


class TestHypothesisBitIdentity:
    @given(seed=seeds,
           n_labels=st.integers(2, 6),
           max_depth=st.integers(2, 8),
           n_estimators=st.integers(1, 15))
    @settings(max_examples=25, deadline=None)
    def test_random_forests_bit_identical(self, seed, n_labels, max_depth,
                                          n_estimators):
        forest, queries = fitted_forest(
            seed=seed, n=120, m=6, n_labels=n_labels,
            n_estimators=n_estimators, max_depth=max_depth,
        )
        compiled = forest.compile()
        assert np.array_equal(
            compiled.predict_proba(queries), forest.predict_proba(queries)
        )
        assert np.array_equal(
            compiled.predict(queries), forest.predict(queries)
        )

    @given(seed=seeds, scale=st.floats(min_value=1e-3, max_value=1e3,
                                       allow_nan=False))
    @settings(max_examples=25, deadline=None)
    def test_nan_free_float_inputs(self, seed, scale):
        forest, _ = fitted_forest(seed=seed, n=100, m=5)
        compiled = forest.compile()
        gen = np.random.default_rng(seed + 1)
        queries = gen.normal(0.0, scale, size=(64, 5))
        assert np.array_equal(
            compiled.predict_proba(queries), forest.predict_proba(queries)
        )

    @given(seed=seeds)
    @settings(max_examples=15, deadline=None)
    def test_npz_roundtripped_checkpoints(self, seed, tmp_path_factory):
        frozen, _totals = build_frozen_profile(
            n_antennas=60, n_services=6, n_clusters=3, seed=seed % 1000
        )
        path = tmp_path_factory.mktemp("frozen") / f"f{seed % 1000}.npz"
        frozen.save(path)
        loaded = FrozenProfile.load(path)
        gen = np.random.default_rng(seed)
        queries = np.clip(
            frozen.features + gen.normal(0, 1e-3, frozen.features.shape),
            -1.0, 1.0,
        )
        assert np.array_equal(
            loaded.kernel().vote(queries), frozen.vote(queries)
        )
        assert np.array_equal(
            loaded.compiled.predict_proba(queries),
            frozen.surrogate.predict_proba(queries),
        )


class TestTraversal:
    """The flat-gather, packed-children descent against the object forest."""

    @given(seed=seeds,
           max_depth=st.sampled_from([1, None]),
           n_rows=st.sampled_from([1, 2, 3, 17, 64, 255, 256, 257, 600]),
           on_threshold=st.booleans(),
           order=st.sampled_from(["C", "F"]))
    @settings(max_examples=40, deadline=None)
    def test_leaves_and_proba_match_object_forest(self, seed, max_depth, n_rows,
                                                  on_threshold, order):
        forest, _ = fitted_forest(seed=seed, n=120, m=6, n_estimators=8,
                                  max_depth=max_depth)
        compiled = forest.compile()
        gen = np.random.default_rng(seed)
        queries = gen.normal(size=(n_rows, 6))
        if on_threshold:
            # A value equal to its node's threshold must go left.
            interior = np.flatnonzero(compiled.feature >= 0)
            picks = gen.choice(interior, size=n_rows)
            queries[np.arange(n_rows), compiled.feature[picks]] = (
                compiled.threshold[picks]
            )
        queries = np.asarray(queries, order=order)
        leaves = compiled.leaf_indices(queries)
        for t, tree in enumerate(forest.trees_):
            assert np.array_equal(leaves[:, t] - compiled.roots[t],
                                  tree.decision_path_leaf(queries))
        assert np.array_equal(compiled.predict_proba(queries),
                              forest.predict_proba(queries))
