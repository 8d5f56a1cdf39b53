"""Bit-exact oracles for the compiled forest and the fused vote.

``compiled_equivalent`` compares a compiled forest with the object forest
it came from; ``full_vote`` is the fused kernel's vote without its
nearest-centroid screen: every row takes the forest's probabilities plus
one vote for its nearest centroid, argmax ties to the first column.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.ml.compiled import CompiledForest, FusedProfileKernel
from repro.ml.forest import RandomForestClassifier


def compiled_equivalent(
    forest: RandomForestClassifier,
    compiled: CompiledForest,
    x: np.ndarray,
) -> Tuple[bool, str]:
    """``(ok, detail)``: do both forests give the same probability bits and labels?"""
    object_proba = forest.predict_proba(x)
    compiled_proba = compiled.predict_proba(x)
    if not np.array_equal(object_proba, compiled_proba):
        delta = float(np.max(np.abs(object_proba - compiled_proba)))
        return False, f"predict_proba differs (max abs delta {delta:.3e})"
    if not np.array_equal(forest.predict(x), compiled.predict(x)):
        return False, "predict labels differ"
    return True, "bit-identical"


def full_vote(kernel: FusedProfileKernel, x: np.ndarray) -> np.ndarray:
    """The kernel's vote with the whole forest run on every row."""
    scores = np.zeros((x.shape[0], kernel.n_clusters))
    scores[:, kernel.class_cols] += kernel.forest.predict_proba(x)
    nearest_cols = np.searchsorted(kernel.clusters, kernel.nearest_centroids(x))
    scores[np.arange(x.shape[0]), nearest_cols] += 1.0
    return kernel.clusters[np.argmax(scores, axis=1)]
