"""TreeSHAP: exact Shapley values for tree ensembles in polynomial time.

Computes the path-dependent TreeSHAP values of Lundberg et al. ("From
local explanations to global understanding with explainable AI for
trees", Nature MI 2020) — the Shapley values of each tree's
path-dependent conditional expectation — per leaf instead of by the
paper's per-row recursion (its Algorithm 2), as in
GPUTreeShap (Mitchell, Frank & Holmes, PeerJ CS 2022) and Fast TreeSHAP
(Yang, arXiv:2109.09847).  Each leaf's path is compiled once into its
unique features ``U``, each with a zero fraction ``z_j`` (the product of
the cover ratios of the path's splits on ``j``) and the interval
``(lo_j, hi_j]`` those splits allow.  An instance's one fraction ``o_j``
is 1 when ``x_j`` lies in the interval, else 0, and the leaf's output
``v`` adds to feature ``i``::

    v * (o_i - z_i) * sum_s w_s [t^s] prod_{j != i} (z_j + t o_j),
    w_s = s! (|U| - s - 1)! / |U|!

The product is built once per (row, leaf) and each factor divided back
out: array arithmetic over rows x leaves x path slots, all classes at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from typing import Sequence, Tuple, Union

import numpy as np

from repro.ml.forest import RandomForestClassifier
from repro.ml.tree import LEAF, DecisionTreeClassifier, TreeStructure
from repro.utils.checks import check_matrix

#: Upper bound on rows x leaves x path slots held in memory per chunk.
_CHUNK_ELEMENTS = 1 << 20


@dataclass(frozen=True)
class _LeafPaths:
    """Every leaf's compiled path as (leaves, slots) arrays.

    A padded slot has zero fraction 1, the empty interval ``(inf, inf]``
    and no weight, so its factor ``z + t * o`` is 1.  ``order`` lists the
    real slots (flat indices) by feature, ``bounds[f]:bounds[f + 1]`` of
    it being feature ``f``'s; ``values`` are their leaves' outputs.
    """

    feature: np.ndarray
    zero: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    weight: np.ndarray  # w_s for s = slot index
    order: np.ndarray
    bounds: np.ndarray
    values: np.ndarray


def _compile_paths(
    trees: Sequence[Tuple[TreeStructure, np.ndarray]],
    n_classes: int,
    n_features: int,
) -> _LeafPaths:
    """Compile every leaf of ``(tree, class columns)`` pairs into arrays."""
    leaves = []  # (output in the target class space, {feature: (z, lo, hi)})
    for tree, cols in trees:
        stack = [(0, {})]
        while stack:
            node, conditions = stack.pop()
            if tree.children_left[node] == LEAF:
                value = np.zeros(n_classes)
                value[cols] = tree.value[node]
                leaves.append((value, conditions))
                continue
            feature, threshold = int(tree.feature[node]), float(tree.threshold[node])
            zero, lo, hi = conditions.get(feature, (1.0, -np.inf, np.inf))
            for child, interval in (
                (tree.children_left[node], (lo, min(hi, threshold))),
                (tree.children_right[node], (max(lo, threshold), hi)),
            ):
                ratio = tree.n_node_samples[child] / float(tree.n_node_samples[node])
                stack.append((child, {**conditions,
                                      feature: (ratio * zero, *interval)}))
    sizes = np.array([len(conditions) for _, conditions in leaves])
    shape = (len(leaves), max(1, int(sizes.max())))
    feature = np.zeros(shape, dtype=np.int64)
    zero, weight = np.ones(shape), np.zeros(shape)
    lower, upper = np.full(shape, np.inf), np.full(shape, np.inf)
    for row, (_, conditions) in enumerate(leaves):
        size = len(conditions)
        for slot, (feat, (z, lo, hi)) in enumerate(conditions.items()):
            feature[row, slot], zero[row, slot] = feat, z
            lower[row, slot], upper[row, slot] = lo, hi
            weight[row, slot] = (factorial(slot) * factorial(size - slot - 1)
                                 / factorial(size))
    real = np.flatnonzero(np.arange(shape[1]) < sizes[:, None])
    order = real[np.argsort(feature.ravel()[real], kind="stable")]
    values = np.array([value for value, _ in leaves])
    return _LeafPaths(
        feature, zero, lower, upper, weight, order,
        bounds=np.searchsorted(feature.ravel()[order], np.arange(n_features + 1)),
        values=values[order // shape[1]],
    )


def _shap(paths: _LeafPaths, x: np.ndarray) -> np.ndarray:
    """Summed leaf contributions, shape ``(rows, features, classes)``."""
    n_leaves, n_slots = paths.feature.shape
    z, w, bounds = paths.zero, paths.weight, paths.bounds
    out = np.zeros((x.shape[0], bounds.size - 1, paths.values.shape[1]))
    chunk = max(1, _CHUNK_ELEMENTS // (n_leaves * (n_slots + 1)))
    for start in range(0, x.shape[0], chunk):
        xf = x[start:start + chunk][:, paths.feature]
        one = ((xf > paths.lower) & (xf <= paths.upper)).astype(float)
        # Coefficients of prod_j (z_j + t * o_j), lowest degree first.
        poly = np.zeros(one.shape[:2] + (n_slots + 1,))
        poly[..., 0] = 1.0
        for j in range(n_slots):
            poly[..., 1:j + 2] = (poly[..., 1:j + 2] * z[:, j, None]
                                  + poly[..., :j + 1] * one[..., j, None])
            poly[..., 0] *= z[:, j]
        # Divide factor i back out and weight the quotient's coefficients.
        # o_i = 0: the factor is the constant z_i.
        cold = np.einsum("rls,ls->rl", poly[..., :n_slots], w)[..., None] / z
        # o_i = 1: synthetic division by (z_i + t), from the top degree down.
        quotient = np.repeat(poly[..., n_slots, None], n_slots, axis=2)
        hot = w[:, n_slots - 1, None] * quotient
        for s in range(n_slots - 1, 0, -1):
            quotient = poly[..., s, None] - z * quotient
            hot += w[:, s - 1, None] * quotient
        contrib = ((one - z) * np.where(one > 0, hot, cold)).reshape(
            one.shape[0], -1)[:, paths.order]
        for f in np.flatnonzero(np.diff(bounds)):
            a, b = bounds[f], bounds[f + 1]
            out[start:start + chunk, f] = contrib[:, a:b] @ paths.values[a:b]
    return out


def _expected_value(tree: TreeStructure) -> np.ndarray:
    """Training-weighted expected output vector of a tree."""
    leaves = np.flatnonzero(tree.children_left == LEAF)
    weights = tree.n_node_samples[leaves] / float(tree.n_node_samples[0])
    return weights @ tree.value[leaves]


class TreeExplainer:
    """SHAP explainer for the library's tree and forest classifiers.

    Every leaf path of the model is compiled once, at construction; each
    :meth:`shap_values` call is then vectorized over rows and leaves.

    >>> explainer = TreeExplainer(forest)          # doctest: +SKIP
    >>> phi = explainer.shap_values(features)      # (n, M, n_classes)
    """

    def __init__(
        self, model: Union[DecisionTreeClassifier, RandomForestClassifier]
    ) -> None:
        if isinstance(model, DecisionTreeClassifier):
            if model.tree_ is None:
                raise RuntimeError("tree is not fitted; call fit() first")
            self._trees = [model]
        elif isinstance(model, RandomForestClassifier):
            if not model.trees_:
                raise RuntimeError("forest is not fitted; call fit() first")
            self._trees = list(model.trees_)
        else:
            raise TypeError(
                f"TreeExplainer supports the repro.ml tree/forest models, "
                f"got {type(model).__name__}"
            )
        self.model = model
        self.classes_ = np.asarray(model.classes_)
        self.n_features_ = model.n_features_
        self._paths = _compile_paths(
            [(tree_model.tree_, np.searchsorted(self.classes_, tree_model.classes_))
             for tree_model in self._trees],
            self.classes_.size, self.n_features_,
        )

    @property
    def expected_value(self) -> np.ndarray:
        """Ensemble base values per class (mean of tree expectations)."""
        base = np.zeros(self.classes_.size)
        for tree_model in self._trees:
            cols = np.searchsorted(self.classes_, tree_model.classes_)
            base[cols] += _expected_value(tree_model.tree_)
        return base / len(self._trees)

    def shap_values(self, x: np.ndarray) -> np.ndarray:
        """SHAP values for every row of ``x``.

        Returns an array of shape ``(n_samples, n_features, n_classes)``;
        for each class, row sums plus the class base value equal the
        ensemble's predicted probability (local accuracy).
        """
        x = check_matrix(x, "x")
        if x.shape[1] != self.n_features_:
            raise ValueError(
                f"x has {x.shape[1]} features, the model was fitted on "
                f"{self.n_features_}"
            )
        return _shap(self._paths, x) / len(self._trees)

    def shap_values_for_class(self, x: np.ndarray, class_label) -> np.ndarray:
        """SHAP values for a single output class, shape (n_samples, M)."""
        matches = np.flatnonzero(self.classes_ == class_label)
        if matches.size == 0:
            raise ValueError(
                f"unknown class {class_label!r}; classes are {self.classes_.tolist()}"
            )
        return self.shap_values(x)[:, :, matches[0]]
