"""CART decision-tree classifier, implemented from scratch.

Used as the base learner of the random-forest surrogate that the paper
trains on the clustering labels (Section 5.1.2).  A tree grows one depth
level per pass: every splittable node of the frontier is split at once, on
integer row weights (a bootstrap draw is a count per row, not repeated
rows), by the Gini criterion in scikit-learn's proxy form
``Σ_c lc²/nL + Σ_c rc²/nR``, whose sums are exact in int64.  The features a node
examines come from a keyed sampler: a pure function of the tree seed and the
node's path from the root, so a refit is identical in any process.  The two
orderings a level needs (by value within each node and feature, and by class
within that) are plain sorts of packed int64 keys, the entry index in the low
bits (:func:`packed_argsort`); a level whose keys and indices would need more
than 63 bits raises ``ValueError`` rather than fall back to ``argsort``.

The fitted tree exposes flat node arrays (``children_left``,
``children_right``, ``feature``, ``threshold``, ``value``,
``n_node_samples``) so the TreeSHAP algorithm in ``repro.explain.treeshap``
can walk it directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.utils.checks import check_matrix

#: Sentinel for leaf nodes in the flat arrays (mirrors sklearn).
LEAF = -1

#: splitmix64's increment (the 64-bit golden ratio).
_GAMMA = np.uint64(0x9E3779B97F4A7C15)


@dataclass
class TreeStructure:
    """Flat array representation of a fitted binary decision tree."""

    children_left: np.ndarray
    children_right: np.ndarray
    feature: np.ndarray
    threshold: np.ndarray
    value: np.ndarray  # (n_nodes, n_classes) class-probability vectors
    n_node_samples: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.children_left.shape[0]

    def is_leaf(self, node: int) -> bool:
        return self.children_left[node] == LEAF

    def max_depth(self) -> int:
        """Depth of the deepest leaf (root = depth 0)."""
        depth = 0
        stack: List[Tuple[int, int]] = [(0, 0)]
        while stack:
            node, d = stack.pop()
            depth = max(depth, d)
            if not self.is_leaf(node):
                stack.append((int(self.children_left[node]), d + 1))
                stack.append((int(self.children_right[node]), d + 1))
        return depth


def root_key(random_state: Optional[int]) -> np.ndarray:
    """Key of a tree's root node, shape ``(1,)``; fresh entropy for None."""
    return np.random.SeedSequence(random_state).generate_state(1, np.uint64)


def mix_keys(keys: np.ndarray, salts: Sequence[int]) -> np.ndarray:
    """``splitmix64(key + γ·salt)`` for every key × salt, wrapping in uint64.

    Salts 1 and 2 derive a node's left and right child keys; salts
    ``3 .. n_features + 2`` score its features (:func:`candidate_features`).
    """
    z = keys[:, None] + _GAMMA * np.asarray(salts, dtype=np.uint64)[None, :]
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def candidate_features(keys: np.ndarray, n_features: int, k: int) -> np.ndarray:
    """``(len(keys), k)`` features examined at each keyed node.

    All features in column order when ``k == n_features``; otherwise the
    ``k`` features of smallest score, in score order.
    """
    if k == n_features:
        return np.tile(np.arange(n_features), (keys.size, 1))
    scores = mix_keys(keys, np.arange(3, n_features + 3))
    return np.argsort(scores, axis=1)[:, :k]


def column_ranks(x: np.ndarray) -> np.ndarray:
    """Dense rank of every entry within its column (equal values tie)."""
    return np.column_stack([np.unique(col, return_inverse=True)[1] for col in x.T])


def packed_argsort(key: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(sorted key, order)`` of a non-negative int64 ``key`` in one sort.

    Each key is shifted left and its index put in the freed low bits, so a
    plain ``np.sort`` of the packed values orders by key, ties by index;
    the mask decodes ``order`` (a stable argsort) and the shift the sorted
    keys.  Raises ``ValueError`` when key and index bits exceed 63.
    """
    shift = int(key.size - 1).bit_length()
    if int(key.max(initial=0)).bit_length() + shift > 63:
        raise ValueError(
            f"keys up to {int(key.max())} and {key.size} indices exceed 63 bits"
        )
    packed = key << shift
    packed |= np.arange(key.size)
    packed.sort()
    return packed >> shift, packed & ((1 << shift) - 1)


def _prefix_in_pair(values: np.ndarray, head: np.ndarray) -> np.ndarray:
    """Sum of ``values`` over earlier entries of the pair starting at ``head``."""
    before = np.cumsum(values)
    before -= values
    return before - before[head]


def _level_splits(
    x: np.ndarray,
    ranks: np.ndarray,
    rows: np.ndarray,
    node: np.ndarray,
    y: np.ndarray,
    w: np.ndarray,
    counts: np.ndarray,
    candidates: np.ndarray,
    min_samples_leaf: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best Gini split of every node of a level, in one pass.

    Args:
        x, ranks: the training matrix and its :func:`column_ranks`.
        rows: index into ``x`` of every row held by the nodes.
        node, y, w: per row, its node (a row of ``counts``), class code
            and integer weight (> 0).
        counts: (S, C) int64 class weights per node.
        candidates: (S, k) features examined at each node.
        min_samples_leaf: least weight each child must hold.

    Returns:
        ``(split_nodes, feature, threshold)`` for the nodes that have a
        valid split, in node order.  The winner maximises the proxy;
        ties go to the earliest candidate slot, then the lowest boundary.
    """
    k = candidates.shape[1]
    n_classes = counts.shape[1]
    # One entry per (row, slot), grouped into "pairs" (node, slot) and
    # ordered by value within each pair: the key is the pair above the
    # value's rank bits, sorted packed with its index (packed_argsort, which
    # raises once key and index need more than 63 bits).  Ties in value
    # need no order: a boundary only falls between distinct values.
    rank_bits = int(ranks.shape[0] - 1).bit_length()
    pair = (node * k)[:, None] + np.arange(k)
    rank = ranks.ravel()[(rows * ranks.shape[1])[:, None] + candidates[node]]
    key, order = packed_argsort(((pair << rank_bits) | rank).ravel())
    pair = key >> rank_bits
    entry_row = order // k
    we = w[entry_row]
    ye = y[entry_row]
    entry_node = pair // k
    size = key.size
    pair_first = np.r_[True, pair[1:] != pair[:-1]]

    # Weight of the entry's own class already left of it in its pair: an
    # exclusive prefix sum within each (pair, class) group, whose running
    # total at the group's first entry is carried forward (weights are
    # positive, so the carried value only grows).
    grouped, by_class = packed_argsort(pair * n_classes + ye)
    class_w = we[by_class]
    before = np.cumsum(class_w) - class_w
    group_first = np.r_[True, grouped[1:] != grouped[:-1]]
    same_left = np.empty(size, dtype=np.int64)
    same_left[by_class] = before - np.maximum.accumulate(np.where(group_first, before, 0))

    # Per entry, the left child of the boundary just before it: its
    # weight, Σlc² and Σrc².  Moving one entry from the right child to the
    # left changes Σlc² by w(2l + w) and Σrc² by w(w - 2r), with r =
    # tot_c - l before the move; all three are exact int64 prefix sums.
    total = counts.ravel()[entry_node * n_classes + ye]
    pair_head = np.flatnonzero(pair_first)
    head = pair_head[pair]
    n_left = _prefix_in_pair(we, head)
    sq_left = _prefix_in_pair(we * (2 * same_left + we), head)
    sq_right = _prefix_in_pair(we * (we - 2 * (total - same_left)), head)
    n_right = counts.sum(axis=1)[entry_node] - n_left
    sq_right += (counts**2).sum(axis=1)[entry_node]
    valid = np.r_[False, key[1:] != key[:-1]] & ~pair_first
    valid &= (n_left >= min_samples_leaf) & (n_right >= min_samples_leaf)
    with np.errstate(divide="ignore", invalid="ignore"):
        proxy = np.where(valid, sq_left / n_left + sq_right / n_right, -np.inf)

    node_head = pair_head[::k]
    best = np.maximum.reduceat(proxy, node_head)
    win = np.minimum.reduceat(
        np.where(proxy == best[entry_node], np.arange(size), size), node_head
    )
    split_nodes = np.flatnonzero(best > -np.inf)
    win = win[split_nodes]
    feature = candidates[split_nodes, pair[win] % k]
    below = x[rows[entry_row[win - 1]], feature]
    above = x[rows[entry_row[win]], feature]
    return split_nodes, feature, 0.5 * (below + above)


def _restrict(
    rows: np.ndarray, node: np.ndarray, kept: np.ndarray, n_nodes: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The rows of the ``kept`` nodes, with those nodes renumbered ``0..``."""
    slot = np.full(n_nodes, -1)
    slot[kept] = np.arange(kept.size)
    held = slot[node] >= 0
    return rows[held], slot[node[held]]


class DecisionTreeClassifier:
    """Binary-split CART classifier with Gini impurity.

    Args:
        max_depth: maximum tree depth (None = grow until pure/exhausted).
        min_samples_split: minimum node size eligible for splitting.
        min_samples_leaf: minimum samples required in each child.
        max_features: number of features examined per split; ``"sqrt"``
            (the random-forest default), an int, or None for all features.
        random_state: seed of the keyed per-node feature sampler.
    """

    def __init__(
        self,
        max_depth: Optional[int] = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features=None,
        random_state: Optional[int] = None,
    ) -> None:
        if max_depth is not None and max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {max_depth}")
        if min_samples_split < 2:
            raise ValueError(f"min_samples_split must be >= 2, got {min_samples_split}")
        if min_samples_leaf < 1:
            raise ValueError(f"min_samples_leaf must be >= 1, got {min_samples_leaf}")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state
        self.tree_: Optional[TreeStructure] = None
        self.classes_: Optional[np.ndarray] = None
        self.n_features_: Optional[int] = None

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------

    def _resolve_max_features(self, n_features: int) -> int:
        if self.max_features is None:
            return n_features
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(n_features)))
        if isinstance(self.max_features, (int, np.integer)):
            if not 1 <= self.max_features <= n_features:
                raise ValueError(
                    f"max_features must be in [1, {n_features}], got {self.max_features}"
                )
            return int(self.max_features)
        raise ValueError(f"unsupported max_features {self.max_features!r}")

    def fit(self, x, y) -> "DecisionTreeClassifier":
        """Fit the tree on features ``x`` (N x M) and labels ``y`` (N)."""
        x = check_matrix(x, "x")
        y = np.asarray(y)
        if y.ndim != 1 or y.shape[0] != x.shape[0]:
            raise ValueError(
                f"y must be 1-D with one label per row of x; got {y.shape}"
            )
        classes, y_codes = np.unique(y, return_inverse=True)
        weights = np.ones(x.shape[0], dtype=np.int64)
        return self._fit_weighted(x, column_ranks(x), y_codes, classes, weights)

    def _fit_weighted(
        self,
        x: np.ndarray,
        ranks: np.ndarray,
        y_codes: np.ndarray,
        classes: np.ndarray,
        weights: np.ndarray,
    ) -> "DecisionTreeClassifier":
        """Grow the tree level by level on rows weighted by integer counts.

        ``ranks`` is :func:`column_ranks` of ``x`` and ``y_codes`` indexes
        ``classes``.  Zero-weight rows take no part, and classes they alone
        carry are dropped from ``classes_``.  Node sizes, ``min_samples_*``
        and ``n_node_samples`` count weight, so weight ``w`` on a row
        grows the tree that ``w`` copies of it would.
        """
        k = self._resolve_max_features(x.shape[1])
        present = np.bincount(y_codes, weights=weights, minlength=classes.size) > 0
        self.classes_ = classes[present]
        self.n_features_ = x.shape[1]
        n_classes = self.classes_.size
        y = (np.cumsum(present) - 1)[y_codes]

        parts: List[Tuple[np.ndarray, ...]] = []
        rows = np.flatnonzero(weights)
        node = np.zeros(rows.size, dtype=np.int64)
        keys = root_key(self.random_state)
        base = 0  # id of the level's first node
        while keys.size:
            width = keys.size
            counts = np.bincount(
                node * n_classes + y[rows], weights=weights[rows],
                minlength=width * n_classes,
            ).reshape(width, n_classes)
            sizes = counts.sum(axis=1)
            left = np.full(width, LEAF, dtype=np.int64)
            feature = np.full(width, LEAF, dtype=np.int64)
            threshold = np.zeros(width)
            parts.append((left, feature, threshold, counts / sizes[:, None], sizes))
            if self.max_depth is not None and len(parts) > self.max_depth:
                break
            splittable = np.flatnonzero(
                (sizes >= self.min_samples_split) & (np.count_nonzero(counts, axis=1) > 1)
            )
            if splittable.size == 0:
                break
            rows, node = _restrict(rows, node, splittable, width)
            split, split_feature, split_threshold = _level_splits(
                x, ranks, rows, node, y[rows], weights[rows],
                counts[splittable].astype(np.int64),
                candidate_features(keys[splittable], x.shape[1], k),
                self.min_samples_leaf,
            )
            if split.size == 0:
                break
            split_ids = splittable[split]
            left[split_ids] = base + width + 2 * np.arange(split.size)
            feature[split_ids] = split_feature
            threshold[split_ids] = split_threshold
            # Route rows by value, as prediction will: a midpoint can round
            # up to the upper boundary value.
            rows, node = _restrict(rows, node, split, splittable.size)
            goes_right = x[rows, split_feature[node]] > split_threshold[node]
            node = 2 * node + goes_right
            keys = mix_keys(keys[split_ids], (1, 2)).ravel()
            base += width

        left, feature, threshold, value, sizes = (np.concatenate(a) for a in zip(*parts))
        self.tree_ = TreeStructure(
            children_left=left,
            children_right=np.where(left == LEAF, LEAF, left + 1),
            feature=feature,
            threshold=threshold,
            value=value,
            n_node_samples=sizes.astype(np.int64),
        )
        return self

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------

    def _check_fitted(self) -> TreeStructure:
        if self.tree_ is None:
            raise RuntimeError("tree is not fitted; call fit() first")
        return self.tree_

    def decision_path_leaf(self, x: np.ndarray) -> np.ndarray:
        """Leaf node index reached by each row of ``x``."""
        tree = self._check_fitted()
        x = check_matrix(x, "x")
        if x.shape[1] != self.n_features_:
            raise ValueError(
                f"x has {x.shape[1]} features, the tree was fitted on "
                f"{self.n_features_}"
            )
        leaves = np.zeros(x.shape[0], dtype=np.int64)
        for i in range(x.shape[0]):
            node = 0
            while not tree.is_leaf(node):
                if x[i, tree.feature[node]] <= tree.threshold[node]:
                    node = int(tree.children_left[node])
                else:
                    node = int(tree.children_right[node])
            leaves[i] = node
        return leaves

    def predict_proba(self, x) -> np.ndarray:
        """Class-probability estimates (leaf class frequencies)."""
        tree = self._check_fitted()
        leaves = self.decision_path_leaf(np.asarray(x, dtype=float))
        return tree.value[leaves]

    def predict(self, x) -> np.ndarray:
        """Predicted class labels."""
        self._check_fitted()
        assert self.classes_ is not None
        proba = self.predict_proba(x)
        return self.classes_[np.argmax(proba, axis=1)]

    def compile(self, classes: Optional[np.ndarray] = None):
        """Export the fitted tree as a :class:`repro.ml.compiled.CompiledTree`.

        Args:
            classes: optional target class space (a sorted superset of
                this tree's classes) for the leaf distributions; used by
                :func:`repro.ml.compiled.compile_forest` to align every
                tree to the forest's classes.
        """
        from repro.ml.compiled import compile_tree

        return compile_tree(self, classes)
