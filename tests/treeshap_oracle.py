"""Reference TreeSHAP: the recursive path algorithm and brute force,
kept as test oracles.

This is Algorithm 2 of Lundberg et al. ("From local explanations to
global understanding with explainable AI for trees", Nature MI 2020),
walking one instance down one tree with the EXTEND / UNWIND subset-weight
updates.  ``repro.explain.treeshap`` computes the same values per leaf
and vectorized; the differential tests compare the two.
:func:`exact_tree_shapley` enumerates every coalition of the
path-dependent value function (:func:`tree_conditional_expectation`)
instead, the ground truth for small feature counts.
"""

from __future__ import annotations

from itertools import combinations
from math import factorial
from typing import Sequence, Tuple

import numpy as np

from repro.explain.treeshap import _expected_value
from repro.ml.tree import DecisionTreeClassifier, TreeStructure


class _Path:
    """The unique-feature path state of the TreeSHAP recursion."""

    __slots__ = ("feature", "zero", "one", "weight")

    def __init__(self, capacity: int) -> None:
        self.feature = np.empty(capacity, dtype=np.int64)
        self.zero = np.empty(capacity)
        self.one = np.empty(capacity)
        self.weight = np.empty(capacity)

    def copy_from(self, other: "_Path", length: int) -> None:
        self.feature[:length] = other.feature[:length]
        self.zero[:length] = other.zero[:length]
        self.one[:length] = other.one[:length]
        self.weight[:length] = other.weight[:length]


def _extend(path: _Path, depth: int, pz: float, po: float, pi: int) -> None:
    """Append a path element and update subset weights (EXTEND)."""
    path.feature[depth] = pi
    path.zero[depth] = pz
    path.one[depth] = po
    path.weight[depth] = 1.0 if depth == 0 else 0.0
    for i in range(depth - 1, -1, -1):
        path.weight[i + 1] += po * path.weight[i] * (i + 1) / (depth + 1)
        path.weight[i] = pz * path.weight[i] * (depth - i) / (depth + 1)


def _unwind(path: _Path, depth: int, index: int) -> None:
    """Remove path element ``index``, restoring pre-extend weights (UNWIND)."""
    one = path.one[index]
    zero = path.zero[index]
    next_one = path.weight[depth]
    for i in range(depth - 1, -1, -1):
        if one != 0:
            tmp = path.weight[i]
            path.weight[i] = next_one * (depth + 1) / ((i + 1) * one)
            next_one = tmp - path.weight[i] * zero * (depth - i) / (depth + 1)
        else:
            path.weight[i] = path.weight[i] * (depth + 1) / (zero * (depth - i))
    for i in range(index, depth):
        path.feature[i] = path.feature[i + 1]
        path.zero[i] = path.zero[i + 1]
        path.one[i] = path.one[i + 1]


def _unwound_sum(path: _Path, depth: int, index: int) -> float:
    """Sum of weights if element ``index`` were unwound (no mutation)."""
    one = path.one[index]
    zero = path.zero[index]
    next_one = path.weight[depth]
    total = 0.0
    if one != 0:
        for i in range(depth - 1, -1, -1):
            tmp = next_one * (depth + 1) / ((i + 1) * one)
            total += tmp
            next_one = path.weight[i] - tmp * zero * (depth - i) / (depth + 1)
    else:
        for i in range(depth - 1, -1, -1):
            total += path.weight[i] * (depth + 1) / (zero * (depth - i))
    return total


def recursive_tree_shap_values(
    tree: TreeStructure, x: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """TreeSHAP attributions of one instance for one tree.

    Args:
        tree: fitted tree structure (all classes).
        x: instance vector (length M).

    Returns:
        ``(phi, base)`` where ``phi`` has shape (M, n_classes) and ``base``
        (n_classes,) is the tree's expected output; local accuracy gives
        ``base + phi.sum(axis=0) == tree prediction at x`` per class.
    """
    x = np.asarray(x, dtype=float).ravel()
    n_classes = tree.value.shape[1]
    phi = np.zeros((x.size, n_classes))

    max_depth = tree.max_depth() + 2
    paths = [_Path(max_depth + 1) for _ in range(max_depth + 1)]

    def recurse(
        node: int, depth: int, level: int, pz: float, po: float, pi: int
    ) -> None:
        path = paths[level]
        if level > 0:
            path.copy_from(paths[level - 1], depth)
        _extend(path, depth, pz, po, pi)
        if tree.is_leaf(node):
            leaf_value = tree.value[node]
            for i in range(1, depth + 1):
                w = _unwound_sum(path, depth, i)
                feat = int(path.feature[i])
                phi[feat] += w * (path.one[i] - path.zero[i]) * leaf_value
            return
        feature = int(tree.feature[node])
        left = int(tree.children_left[node])
        right = int(tree.children_right[node])
        if x[feature] <= tree.threshold[node]:
            hot, cold = left, right
        else:
            hot, cold = right, left
        node_weight = float(tree.n_node_samples[node])
        hot_zero = tree.n_node_samples[hot] / node_weight
        cold_zero = tree.n_node_samples[cold] / node_weight
        incoming_zero = 1.0
        incoming_one = 1.0
        new_depth = depth
        found = -1
        for idx in range(depth + 1):
            if path.feature[idx] == feature:
                found = idx
                break
        if found >= 0:
            incoming_zero = float(path.zero[found])
            incoming_one = float(path.one[found])
            _unwind(path, depth, found)
            new_depth = depth - 1
        recurse(hot, new_depth + 1, level + 1,
                hot_zero * incoming_zero, incoming_one, feature)
        recurse(cold, new_depth + 1, level + 1,
                cold_zero * incoming_zero, 0.0, feature)

    recurse(0, 0, 0, 1.0, 1.0, -1)

    base = _expected_value(tree)
    return phi, base


def recursive_shap_values(trees, classes, x: np.ndarray) -> np.ndarray:
    """Row-by-row, tree-by-tree recursive SHAP of an ensemble.

    ``trees`` are fitted :class:`~repro.ml.tree.DecisionTreeClassifier`
    models voting in the class space ``classes``; the result, shape
    ``(rows, features, classes)``, is their mean attribution, as
    :meth:`repro.explain.treeshap.TreeExplainer.shap_values` reports it.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    out = np.zeros((x.shape[0], x.shape[1], len(classes)))
    for tree_model in trees:
        cols = np.searchsorted(classes, tree_model.classes_)
        for row in range(x.shape[0]):
            phi, _ = recursive_tree_shap_values(tree_model.tree_, x[row])
            out[row][:, cols] += phi
    return out / len(trees)


def tree_conditional_expectation(
    tree: TreeStructure,
    x: np.ndarray,
    fixed_features: Sequence[int],
    class_index: int,
) -> float:
    """Expected leaf value of a tree with only some features observed.

    Features in ``fixed_features`` route deterministically by ``x``; at
    splits on any other feature the expectation branches to both children
    weighted by training-sample proportions.  This is the *path-dependent*
    value function that TreeSHAP attributes exactly.
    """
    x = np.asarray(x, dtype=float).ravel()
    fixed = set(int(f) for f in fixed_features)

    def walk(node: int) -> float:
        if tree.is_leaf(node):
            return float(tree.value[node, class_index])
        feature = int(tree.feature[node])
        left = int(tree.children_left[node])
        right = int(tree.children_right[node])
        if feature in fixed:
            child = left if x[feature] <= tree.threshold[node] else right
            return walk(child)
        n_left = tree.n_node_samples[left]
        n_right = tree.n_node_samples[right]
        total = n_left + n_right
        return (n_left * walk(left) + n_right * walk(right)) / total

    return walk(0)


def exact_tree_shapley(
    tree_model: DecisionTreeClassifier,
    x: np.ndarray,
    class_index: int,
    max_features: int = 16,
) -> np.ndarray:
    """Exact Shapley values under a tree's path-dependent value function.

    Brute-force counterpart of TreeSHAP.
    """
    if tree_model.tree_ is None:
        raise RuntimeError("tree is not fitted; call fit() first")
    x = np.asarray(x, dtype=float).ravel()
    m = x.size
    if m > max_features:
        raise ValueError(
            f"exact enumeration over {m} features requires 2^{m} evaluations"
        )
    tree = tree_model.tree_
    values = {}
    features = list(range(m))
    for size in range(m + 1):
        for subset in combinations(features, size):
            mask = 0
            for f in subset:
                mask |= 1 << f
            values[mask] = tree_conditional_expectation(tree, x, subset, class_index)
    phi = np.zeros(m)
    fact = [factorial(i) for i in range(m + 1)]
    for i in features:
        others = [f for f in features if f != i]
        for size in range(m):
            weight = fact[size] * fact[m - size - 1] / fact[m]
            for subset in combinations(others, size):
                mask = 0
                for f in subset:
                    mask |= 1 << f
                phi[i] += weight * (values[mask | (1 << i)] - values[mask])
    return phi
