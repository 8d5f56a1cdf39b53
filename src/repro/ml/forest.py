"""Random-forest classifier built on the from-scratch CART trees.

The paper trains "a random forest classifier with 100 trees to infer the
antenna cluster based on the mobile service RSCA" and explains it with
TreeSHAP (Section 5.1.2).  This implementation provides bootstrap
aggregation, per-split feature subsampling, out-of-bag accuracy, and
access to the individual fitted trees for the TreeSHAP walker.

A bootstrap draw reaches its tree as integer row weights, not a copied
matrix, and all trees share one per-column rank table of the training data.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.ml.tree import DecisionTreeClassifier, column_ranks
from repro.utils.checks import check_matrix
from repro.utils.rng import derive_seed


class RandomForestClassifier:
    """Bagged ensemble of CART trees with feature subsampling.

    Args:
        n_estimators: number of trees (the paper uses 100).
        max_depth: per-tree depth cap (None = unbounded).
        min_samples_leaf: minimum samples per leaf.
        max_features: features examined per split (default ``"sqrt"``).
        bootstrap: draw each tree's training set with replacement.
        random_state: master seed; per-tree seeds derive deterministically.
    """

    def __init__(
        self,
        n_estimators: int = 100,
        max_depth: Optional[int] = None,
        min_samples_leaf: int = 1,
        max_features="sqrt",
        bootstrap: bool = True,
        random_state: Optional[int] = 0,
    ) -> None:
        if n_estimators < 1:
            raise ValueError(f"n_estimators must be >= 1, got {n_estimators}")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.random_state = 0 if random_state is None else int(random_state)
        self.trees_: List[DecisionTreeClassifier] = []
        self.classes_: Optional[np.ndarray] = None
        self.n_features_: Optional[int] = None
        self.oob_score_: Optional[float] = None

    def fit(self, x, y, compute_oob: bool = False) -> "RandomForestClassifier":
        """Fit the ensemble; optionally compute the out-of-bag accuracy."""
        x = check_matrix(x, "x")
        y = np.asarray(y)
        if y.ndim != 1 or y.shape[0] != x.shape[0]:
            raise ValueError(
                f"y must be 1-D with one label per row of x; got {y.shape}"
            )
        self.classes_, y_codes = np.unique(y, return_inverse=True)
        self.n_features_ = x.shape[1]
        n = x.shape[0]
        ranks = column_ranks(x)
        self.trees_ = []
        oob_votes = (
            np.zeros((n, self.classes_.size)) if compute_oob and self.bootstrap else None
        )
        for t in range(self.n_estimators):
            seed = derive_seed(self.random_state, "tree", t)
            if self.bootstrap:
                rng = np.random.default_rng(seed)
                weights = np.bincount(rng.integers(0, n, size=n), minlength=n)
            else:
                weights = np.ones(n, dtype=np.int64)
            tree = DecisionTreeClassifier(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                random_state=seed,
            )
            # A bootstrap draw can miss a class; the tree then drops it
            # from its classes_, and votes map tree classes into the
            # forest's class space (see predict_proba).
            tree._fit_weighted(x, ranks, y_codes, self.classes_, weights)
            self.trees_.append(tree)
            if oob_votes is not None:
                out_of_bag = weights == 0
                if np.any(out_of_bag):
                    proba = tree.predict_proba(x[out_of_bag])
                    cols = np.searchsorted(self.classes_, tree.classes_)
                    oob_votes[np.ix_(np.flatnonzero(out_of_bag), cols)] += proba
        if oob_votes is not None:
            voted = oob_votes.sum(axis=1) > 0
            if np.any(voted):
                predictions = self.classes_[np.argmax(oob_votes[voted], axis=1)]
                self.oob_score_ = float(np.mean(predictions == y[voted]))
        return self

    def _check_fitted(self) -> None:
        if not self.trees_:
            raise RuntimeError("forest is not fitted; call fit() first")

    def predict_proba(self, x) -> np.ndarray:
        """Mean class-probability estimate over all trees."""
        self._check_fitted()
        assert self.classes_ is not None
        x = check_matrix(x, "x")
        proba = np.zeros((x.shape[0], self.classes_.size))
        for tree in self.trees_:
            tree_proba = tree.predict_proba(x)
            cols = np.searchsorted(self.classes_, tree.classes_)
            proba[:, cols] += tree_proba
        return proba / len(self.trees_)

    def predict(self, x) -> np.ndarray:
        """Majority-vote class prediction."""
        self._check_fitted()
        assert self.classes_ is not None
        proba = self.predict_proba(x)
        return self.classes_[np.argmax(proba, axis=1)]

    def compile(self):
        """Export the fitted ensemble as a flat-array compiled forest.

        Returns a :class:`repro.ml.compiled.CompiledForest` whose batch
        ``predict``/``predict_proba`` are bit-identical to this object's
        but evaluate whole micro-batches with vectorized level-order
        traversal instead of per-row Python loops.
        """
        from repro.ml.compiled import compile_forest

        return compile_forest(self)

    def score(self, x, y) -> float:
        """Mean accuracy of ``predict`` on the given data.

        Evaluated through :meth:`compile`, whose votes are bit-identical
        to :meth:`predict` and vectorized over rows.
        """
        y = np.asarray(y)
        return float(np.mean(self.compile().predict(x) == y))
