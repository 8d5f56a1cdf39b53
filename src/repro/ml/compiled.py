"""Array-compiled forests: vectorized, bit-identical inference kernels.

The object-graph trees of :mod:`repro.ml.tree` are walked one row at a
time in Python.  They stay for training and as the oracle this module is
tested against; every inference path runs here instead: stream classify
and drift, serve batches, ``RandomForestClassifier.score`` and the
outdoor classification of Fig. 9.  A fitted
:class:`~repro.ml.forest.RandomForestClassifier` compiles into flat
numpy arrays and whole batches are evaluated with vectorized level-order
traversal:

* every tree's ``feature`` / ``threshold`` / child-index vectors are
  stacked forest-wide with per-tree node offsets, leaves marked by a
  ``feature`` of :data:`~repro.ml.tree.LEAF` and turned into self-loops;
* one ``(rows, trees)`` node-index matrix descends all trees over all
  rows simultaneously: per level, one gather from the flattened input
  (leaves read feature 0) and one step through a packed
  ``[left, right]`` child array, with no masking and no Python branch
  per (row, tree, level);
* leaf class distributions are pre-expanded into the forest's class
  space, and one reduction per block of rows sums them tree-by-tree in
  tree order, exactly like the object forest — the compiled
  probabilities are **bit-identical** to
  :meth:`RandomForestClassifier.predict_proba` (asserted in tests and
  by the benchmark's oracle checks).

:class:`FusedProfileKernel` extends the same idea across a whole query:
raw per-service volumes -> RSCA features -> forest + centroid vote in
one pass over contiguous arrays, reproducing
:meth:`repro.stream.frozen.FrozenProfile.vote` bit-for-bit.  In that
vote the nearest centroid decides; the forest only breaks an exact tie,
so the kernel runs it just on the rows where one is possible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

import numpy as np

from repro.core.rca import reference_rsca
from repro.ml.forest import RandomForestClassifier
from repro.ml.tree import LEAF, DecisionTreeClassifier
from repro.utils.checks import check_matrix

__all__ = [
    "CompiledTree",
    "CompiledForest",
    "FusedProfileKernel",
    "compile_tree",
    "compile_forest",
]

#: Rows per accumulation block in :meth:`CompiledForest.predict_proba`:
#: one block's ``(trees, rows, classes)`` gather stays cache-sized.
_VOTE_BLOCK_ROWS = 256

#: Rows per block in :meth:`FusedProfileKernel._centroid_distances`: one
#: ``(rows, K, M)`` difference block stays cache-sized.
_CENTROID_BLOCK_ROWS = 32


@dataclass(frozen=True)
class CompiledTree:
    """One tree's flat arrays, with leaf values in a target class space.

    Attributes:
        feature: per-node split feature index (:data:`LEAF` at leaves).
        threshold: per-node split threshold (0.0 at leaves).
        left: per-node left-child index; leaves self-loop.
        right: per-node right-child index; leaves self-loop.
        values: (n_nodes, n_classes) class distributions expanded into
            the *forest's* class space (zero outside the tree's own
            classes), so accumulating them reproduces the object
            forest's column-scattered vote bit-for-bit.
        max_depth: depth of the deepest leaf (root = 0).
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    values: np.ndarray
    max_depth: int

    @property
    def n_nodes(self) -> int:
        return int(self.feature.shape[0])


def compile_tree(
    tree: DecisionTreeClassifier, classes: Optional[np.ndarray] = None
) -> CompiledTree:
    """Flatten one fitted tree into traversal arrays.

    Args:
        tree: a fitted :class:`DecisionTreeClassifier`.
        classes: target class space for the leaf distributions; defaults
            to the tree's own ``classes_``.  Must be a sorted superset
            of the tree's classes (as produced by ``np.unique``).

    Raises:
        RuntimeError: when the tree is not fitted.
        ValueError: when the tree's classes are not all in ``classes``.
    """
    structure = tree.tree_
    if structure is None or tree.classes_ is None:
        raise RuntimeError("tree is not fitted; call fit() first")
    if classes is None:
        classes = tree.classes_
    classes = np.asarray(classes)
    cols = np.searchsorted(classes, tree.classes_)
    valid = (cols < classes.size) & (classes[np.clip(cols, 0, classes.size - 1)]
                                     == tree.classes_)
    if not np.all(valid):
        missing = tree.classes_[~valid]
        raise ValueError(
            f"tree classes {missing.tolist()} are absent from the target "
            f"class space {classes.tolist()}"
        )
    node_ids = np.arange(structure.n_nodes, dtype=np.int64)
    is_leaf = structure.children_left == LEAF
    left = np.where(is_leaf, node_ids, structure.children_left).astype(np.int64)
    right = np.where(is_leaf, node_ids, structure.children_right).astype(np.int64)
    values = np.zeros((structure.n_nodes, classes.size))
    values[:, cols] = structure.value
    return CompiledTree(
        feature=structure.feature.astype(np.int64),
        threshold=structure.threshold.astype(float),
        left=left,
        right=right,
        values=values,
        max_depth=structure.max_depth(),
    )


@dataclass(frozen=True)
class CompiledForest:
    """A whole forest as stacked flat arrays, ready for batch traversal.

    All per-node vectors are concatenated tree after tree; ``roots``
    holds each tree's node offset.  Child indices are absolute (offset
    already applied) and leaves self-loop, so the level-order descent is
    a chain of unconditional gathers.

    Attributes:
        classes: the forest's sorted class labels.
        n_features: feature count the forest was fitted on.
        feature: (total_nodes,) split feature per node, ``LEAF`` at leaves.
        threshold: (total_nodes,) split thresholds.
        left: (total_nodes,) absolute left-child index (self-loop at leaves).
        right: (total_nodes,) absolute right-child index (self-loop at leaves).
        values: (total_nodes, n_classes) class distributions in forest space.
        roots: (n_trees,) root node index of each tree.
        max_depth: deepest leaf across all trees.
    """

    classes: np.ndarray
    n_features: int
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    values: np.ndarray
    roots: np.ndarray
    max_depth: int
    # Traversal arrays derived once per forest, never serialized: the
    # feature each node reads (0 at leaves), and the two child slots of
    # node n packed at 2n (left) and 2n + 1 (right).
    _gather: np.ndarray = field(init=False, repr=False, compare=False)
    _children: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_gather", np.where(self.feature >= 0, self.feature, 0)
        )
        object.__setattr__(
            self, "_children", np.stack([self.left, self.right], axis=1).ravel()
        )

    @property
    def n_trees(self) -> int:
        return int(self.roots.shape[0])

    @property
    def n_classes(self) -> int:
        return int(self.classes.shape[0])

    @property
    def n_nodes(self) -> int:
        return int(self.feature.shape[0])

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------

    def _check_features(self, x) -> np.ndarray:
        x = check_matrix(x, "x")
        if x.shape[1] != self.n_features:
            raise ValueError(
                f"x has {x.shape[1]} features, the forest was fitted on "
                f"{self.n_features}"
            )
        return x

    def leaf_indices(self, x: np.ndarray, trees: slice = slice(None)) -> np.ndarray:
        """Absolute leaf node reached by every (row, tree) pair.

        Vectorized level-order descent: a ``(rows, trees)`` node matrix
        starts at the roots and takes one gathered step per tree level,
        reading ``x`` flat at ``row * n_features + gather[node]`` and
        stepping to ``children[2 * node + (value > threshold)]``.  Leaves
        gather feature 0 and self-loop through both child slots, so the
        ``max_depth`` steps need no masking and no early exit.  ``trees``
        selects the descended trees (all by default).
        """
        x = self._check_features(x)
        n_rows = x.shape[0]
        flat = x.ravel()
        offsets = (np.arange(n_rows, dtype=np.int64) * self.n_features)[:, None]
        node = np.repeat(self.roots[None, trees], n_rows, axis=0)
        for _ in range(self.max_depth):
            go_right = flat[offsets + self._gather[node]] > self.threshold[node]
            node = self._children[2 * node + go_right]
        return node

    def predict_proba(self, x) -> np.ndarray:
        """Mean class-probability estimate, bit-identical to the object forest.

        Leaf values are pre-expanded to the forest class space and
        gathered one block of rows at a time as a ``(trees, rows,
        classes)`` stack, summed over its leading axis.  numpy reduces a
        leading, non-contiguous axis by adding one tree slice at a time
        in tree order, so every float add matches
        :meth:`RandomForestClassifier.predict_proba` exactly.
        """
        leaves = self.leaf_indices(x).T
        n_rows = leaves.shape[1]
        proba = np.empty((n_rows, self.n_classes))
        for start in range(0, n_rows, _VOTE_BLOCK_ROWS):
            block = slice(start, start + _VOTE_BLOCK_ROWS)
            np.add.reduce(np.take(self.values, leaves[:, block], axis=0),
                          axis=0, out=proba[block])
        return proba / self.n_trees

    def predict(self, x) -> np.ndarray:
        """Majority-vote class prediction (ties break like the object forest)."""
        proba = self.predict_proba(x)
        return self.classes[np.argmax(proba, axis=1)]

    # ------------------------------------------------------------------
    # Serialization (``.npz`` embedding inside FrozenProfile artifacts)
    # ------------------------------------------------------------------

    def to_arrays(self, prefix: str = "compiled_") -> Dict[str, np.ndarray]:
        """Flat-array dict for embedding in a checkpoint archive (no pickling)."""
        return {
            f"{prefix}classes": self.classes,
            f"{prefix}feature": self.feature,
            f"{prefix}threshold": self.threshold,
            f"{prefix}left": self.left,
            f"{prefix}right": self.right,
            f"{prefix}values": self.values,
            f"{prefix}roots": self.roots,
            f"{prefix}shape": np.array(
                [self.n_features, self.max_depth], dtype=np.int64
            ),
        }


def compile_forest(forest: RandomForestClassifier) -> CompiledForest:
    """Stack a fitted forest's trees into one :class:`CompiledForest`.

    Raises:
        RuntimeError: when the forest is not fitted.
    """
    if not forest.trees_ or forest.classes_ is None:
        raise RuntimeError("forest is not fitted; call fit() first")
    classes = np.asarray(forest.classes_)
    compiled = [compile_tree(tree, classes) for tree in forest.trees_]
    roots = np.zeros(len(compiled), dtype=np.int64)
    offset = 0
    features = []
    thresholds = []
    lefts = []
    rights = []
    values = []
    for index, tree in enumerate(compiled):
        roots[index] = offset
        features.append(tree.feature)
        thresholds.append(tree.threshold)
        lefts.append(tree.left + offset)
        rights.append(tree.right + offset)
        values.append(tree.values)
        offset += tree.n_nodes
    n_features = forest.n_features_
    assert n_features is not None
    return CompiledForest(
        classes=classes,
        n_features=int(n_features),
        feature=np.concatenate(features),
        threshold=np.concatenate(thresholds),
        left=np.concatenate(lefts),
        right=np.concatenate(rights),
        values=np.ascontiguousarray(np.vstack(values)),
        roots=roots,
        max_depth=max(tree.max_depth for tree in compiled),
    )


class FusedProfileKernel:
    """One-pass inference kernel: volumes -> RSCA -> forest + centroid vote.

    Bundles everything a stream or serve batch needs — the compiled
    forest, the reference centroids/clusters, the column mapping from
    forest classes into cluster space, and the frozen service totals —
    so a raw-volume request is answered with one chain of
    contiguous-array operations and zero object-graph walks.  Every output is bit-identical to the
    corresponding :class:`~repro.stream.frozen.FrozenProfile` method
    (``vote``, ``rsca_of_volumes``), which the equivalence suite and the
    ``pipeline-paper`` benchmark's ``kernel_vote_bit_identical`` check
    both assert.

    The vote is ``argmax(proba + onehot(nearest))``, ties to the first
    column.  When every leaf value lies in [0, 1] and ``1.0 + v_min / T
    > 1.0`` (``v_min`` the smallest positive leaf value, ``T`` the tree
    count), checked once here, most rows are decided without the forest:

    * every score other than the nearest cluster's is some ``p_c <= 1``:
      float sums and the division by ``T`` are monotone, so ``T`` values
      in [0, 1] sum to at most ``T`` and divide to at most ``1.0``;
    * nearest in column 0: its score ``1.0 + p_0 >= 1.0`` is a first
      maximum, so column 0 wins;
    * the nearest cluster ``n`` is a forest class and tree 0's leaf gives
      it positive weight: then ``p_n >= v_min / T`` (adding non-negative
      terms never lowers a float sum), so ``1.0 + p_n > 1.0 >= p_c`` and
      ``n`` wins.

    Only the remaining rows (and every row when the precondition fails,
    or when a forest class is not a cluster) go through the full forest
    vote; there the forest can only break an exact tie at ``1.0``.

    Args:
        forest: the compiled surrogate forest.
        clusters: sorted distinct cluster labels of the reference
            partition (length K).
        centroids: K x M per-cluster mean RSCA rows.
        service_totals: optional length-M reference per-service totals;
            required for the raw-volume entry points.
    """

    def __init__(
        self,
        forest: CompiledForest,
        clusters: np.ndarray,
        centroids: np.ndarray,
        service_totals: Optional[np.ndarray] = None,
    ) -> None:
        self.forest = forest
        self.clusters = np.asarray(clusters)
        self.centroids = np.ascontiguousarray(centroids, dtype=float)
        self.service_totals = (
            None if service_totals is None
            else np.asarray(service_totals, dtype=float)
        )
        if self.centroids.shape[0] != self.clusters.shape[0]:
            raise ValueError(
                f"centroids have {self.centroids.shape[0]} rows, "
                f"clusters have {self.clusters.shape[0]} labels"
            )
        self.class_cols = np.searchsorted(self.clusters, self.forest.classes)
        # Forest column of each cluster column (-1: not a forest class).
        self._forest_cols = np.full(self.n_clusters, -1)
        leaf_values = forest.values[forest.feature == LEAF]
        positive = leaf_values[leaf_values > 0]
        self._screened = bool(
            self.n_clusters > 0
            and np.array_equal(np.take(self.clusters, self.class_cols, mode="clip"),
                               forest.classes)
            and forest.n_features == self.centroids.shape[1]
            and positive.size and np.all((leaf_values >= 0) & (leaf_values <= 1))
            and 1.0 + positive.min() / forest.n_trees > 1.0
        )
        if self._screened:
            self._forest_cols[self.class_cols] = np.arange(forest.n_classes)

    @property
    def n_clusters(self) -> int:
        return int(self.clusters.shape[0])

    def nearest_centroids(self, features: np.ndarray) -> np.ndarray:
        """Cluster of the closest centroid per row (same math as the profile)."""
        x = check_matrix(features, "features")
        if x.shape[1] != self.centroids.shape[1]:
            raise ValueError(
                f"features have {x.shape[1]} columns, centroids have "
                f"{self.centroids.shape[1]}"
            )
        return self.clusters[np.argmin(self._centroid_distances(x), axis=1)]

    def _centroid_distances(self, x: np.ndarray) -> np.ndarray:
        """N x K Euclidean distances from validated rows ``x`` to the centroids.

        Squares the differences in place, 32 rows at a time, and takes one
        square root at the end: the same floats as ``np.linalg.norm`` over
        the whole ``(N, K, M)`` difference, without its two temporaries.
        """
        distances = np.empty((x.shape[0], self.n_clusters))
        for start in range(0, x.shape[0], _CENTROID_BLOCK_ROWS):
            stop = start + _CENTROID_BLOCK_ROWS
            diff = x[start:stop, None, :] - self.centroids[None]
            np.multiply(diff, diff, out=diff)
            np.add.reduce(diff, axis=2, out=distances[start:stop])
        return np.sqrt(distances, out=distances)

    def vote(self, features: np.ndarray) -> np.ndarray:
        """Forest + nearest-centroid vote, bit-identical to ``FrozenProfile.vote``.

        Rows the class docstring's screen decides keep their nearest
        cluster; the rest take the full forest vote.
        """
        x = check_matrix(features, "features")
        cols = np.searchsorted(self.clusters, self.nearest_centroids(x))
        undecided = np.flatnonzero(cols > 0 if self._screened else cols >= 0)
        if self._screened and undecided.size:
            leaf = self.forest.leaf_indices(x[undecided], trees=slice(0, 1))[:, 0]
            forest_cols = self._forest_cols[cols[undecided]]
            weight = self.forest.values[leaf, forest_cols]
            undecided = undecided[(forest_cols < 0) | (weight <= 0)]
        if undecided.size:
            scores = np.zeros((undecided.size, self.n_clusters))
            proba = self.forest.predict_proba(x[undecided])
            scores[:, self.class_cols] += proba
            scores[np.arange(undecided.size), cols[undecided]] += 1.0
            cols[undecided] = np.argmax(scores, axis=1)
        return self.clusters[cols]

    def rsca_of_volumes(self, volumes: np.ndarray) -> np.ndarray:
        """RSCA of raw volumes against the frozen reference marginals.

        Identical arithmetic to
        :meth:`repro.stream.frozen.FrozenProfile.rsca_of_volumes` — the
        fusion is in the call chain (no object hops), not the math.
        """
        if self.service_totals is None:
            raise ValueError(
                "kernel was built without service_totals; raw-volume "
                "queries need a profile frozen with service_totals"
            )
        return reference_rsca(volumes, self.service_totals)

    def vote_volumes(self, volumes: np.ndarray) -> np.ndarray:
        """The fused raw-volume path: transform and vote in one call."""
        return self.vote(self.rsca_of_volumes(volumes))

    def describe(self) -> Dict[str, Any]:
        """Shape summary for logs and reports."""
        return {
            "n_trees": self.forest.n_trees,
            "n_nodes": self.forest.n_nodes,
            "n_classes": self.forest.n_classes,
            "n_features": self.forest.n_features,
            "n_clusters": self.n_clusters,
            "max_depth": self.forest.max_depth,
            "volume_queries": self.service_totals is not None,
        }

