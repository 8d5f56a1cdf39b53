"""Reference CART: the depth-first grower, kept as a test oracle.

``repro.ml.tree`` grows a whole depth level per pass on integer row
weights and scores boundaries with int64 segmented sums.  This grower
visits one node at a time, on repeated rows (a row of weight ``w`` is
``w`` copies), sorting each candidate feature and counting classes with a
one-hot cumulative sum.  It shares only what defines the tree: the keyed
candidate sampler and the Gini proxy ``Σlc²/nL + Σrc²/nR`` with its tie
rule (earliest candidate slot, then lowest boundary).  Trees are compared
node for node by path from the root, since the two growers number nodes
in different orders.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.ml.tree import (
    LEAF,
    DecisionTreeClassifier,
    TreeStructure,
    candidate_features,
    mix_keys,
    root_key,
)

NodeRecord = Tuple[int, float, bytes, int]


def _best_split(
    x: np.ndarray,
    y_codes: np.ndarray,
    sample_idx: np.ndarray,
    candidates: np.ndarray,
    n_classes: int,
    min_samples_leaf: int,
) -> Optional[Tuple[int, float]]:
    """Proxy-maximising ``(feature, threshold)`` of one node, or None."""
    node_y = y_codes[sample_idx]
    total = np.bincount(node_y, minlength=n_classes)
    best: Optional[Tuple[float, int, float]] = None
    for feat in candidates:
        values = x[sample_idx, feat]
        order = np.argsort(values, kind="stable")
        sorted_values = values[order]
        change = np.flatnonzero(np.diff(sorted_values)) + 1
        if change.size == 0:
            continue
        onehot = np.zeros((order.size, n_classes), dtype=np.int64)
        onehot[np.arange(order.size), node_y[order]] = 1
        left = np.cumsum(onehot, axis=0)[change - 1]
        n_left = change
        n_right = order.size - change
        proxy = (left**2).sum(axis=1) / n_left + (
            (total - left) ** 2
        ).sum(axis=1) / n_right
        valid = (n_left >= min_samples_leaf) & (n_right >= min_samples_leaf)
        proxy = np.where(valid, proxy, -np.inf)
        pos = int(np.argmax(proxy))
        if not valid[pos]:
            continue
        if best is None or proxy[pos] > best[0]:
            boundary = change[pos]
            threshold = 0.5 * (sorted_values[boundary - 1] + sorted_values[boundary])
            best = (float(proxy[pos]), int(feat), float(threshold))
    return None if best is None else best[1:]


def oracle_fit(
    model: DecisionTreeClassifier, x: np.ndarray, y: np.ndarray
) -> Tuple[np.ndarray, TreeStructure]:
    """Grow ``model``'s tree on ``(x, y)`` depth-first; ``(classes, tree)``.

    ``model`` supplies the hyper-parameters and the sampler seed; it is
    not fitted.
    """
    classes, y_codes = np.unique(y, return_inverse=True)
    n_classes = classes.size
    k = model._resolve_max_features(x.shape[1])
    nodes: List[List[object]] = []

    def new_node(sample_idx: np.ndarray) -> int:
        counts = np.bincount(y_codes[sample_idx], minlength=n_classes).astype(float)
        nodes.append([LEAF, LEAF, LEAF, 0.0, counts / counts.sum(), sample_idx.size])
        return len(nodes) - 1

    root_idx = np.arange(x.shape[0])
    stack = [(new_node(root_idx), root_idx, 0, root_key(model.random_state))]
    while stack:
        node_id, sample_idx, depth, key = stack.pop()
        node_y = y_codes[sample_idx]
        if (
            sample_idx.size < model.min_samples_split
            or (model.max_depth is not None and depth >= model.max_depth)
            or np.all(node_y == node_y[0])
        ):
            continue
        split = _best_split(
            x, y_codes, sample_idx, candidate_features(key, x.shape[1], k)[0],
            n_classes, model.min_samples_leaf,
        )
        if split is None:
            continue
        feat, threshold = split
        left_mask = x[sample_idx, feat] <= threshold
        left_key, right_key = mix_keys(key, (1, 2))[0]
        left_id = new_node(sample_idx[left_mask])
        right_id = new_node(sample_idx[~left_mask])
        nodes[node_id][:4] = [left_id, right_id, feat, threshold]
        stack.append((left_id, sample_idx[left_mask], depth + 1, left_key[None]))
        stack.append((right_id, sample_idx[~left_mask], depth + 1, right_key[None]))

    left, right, feature, threshold, value, sizes = zip(*nodes)
    return classes, TreeStructure(
        children_left=np.array(left, dtype=np.int64),
        children_right=np.array(right, dtype=np.int64),
        feature=np.array(feature, dtype=np.int64),
        threshold=np.array(threshold, dtype=float),
        value=np.vstack(value),
        n_node_samples=np.array(sizes, dtype=np.int64),
    )


def by_path(tree: TreeStructure) -> Dict[Tuple[int, ...], NodeRecord]:
    """Every node keyed by its path of sides (0 left, 1 right) from the root."""
    records: Dict[Tuple[int, ...], NodeRecord] = {}
    stack: List[Tuple[int, Tuple[int, ...]]] = [(0, ())]
    while stack:
        node, path = stack.pop()
        records[path] = (
            int(tree.feature[node]),
            float(tree.threshold[node]),
            tree.value[node].tobytes(),
            int(tree.n_node_samples[node]),
        )
        if not tree.is_leaf(node):
            stack.append((int(tree.children_left[node]), path + (0,)))
            stack.append((int(tree.children_right[node]), path + (1,)))
    return records


def assert_matches_oracle(
    fitted: DecisionTreeClassifier, x: np.ndarray, y: np.ndarray
) -> None:
    """``fitted`` equals the oracle's tree on ``(x, y)``, node for node."""
    classes, expected = oracle_fit(fitted, x, y)
    assert fitted.tree_ is not None and fitted.classes_ is not None
    np.testing.assert_array_equal(fitted.classes_, classes)
    assert by_path(fitted.tree_) == by_path(expected)
