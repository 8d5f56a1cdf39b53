"""Partition-agreement metrics and the k-means baseline.

The reproduction needs to quantify how well a clustering recovers the
generator's latent archetypes, and the ablation benchmarks compare the
paper's agglomerative/Ward choice against the classical k-means baseline.
Both are implemented from scratch here: the adjusted Rand index and
Lloyd's algorithm with k-means++ seeding.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.utils.checks import check_matrix


def _contingency(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Contingency counts between two label vectors."""
    a_labels, a_codes = np.unique(a, return_inverse=True)
    b_labels, b_codes = np.unique(b, return_inverse=True)
    table = np.zeros((a_labels.size, b_labels.size), dtype=np.int64)
    np.add.at(table, (a_codes, b_codes), 1)
    return table


def _validate_pair(labels_a, labels_b) -> Tuple[np.ndarray, np.ndarray]:
    a = np.asarray(labels_a)
    b = np.asarray(labels_b)
    if a.ndim != 1 or b.ndim != 1 or a.shape != b.shape:
        raise ValueError(
            f"label vectors must be 1-D and equal length, got {a.shape} "
            f"and {b.shape}"
        )
    if a.size == 0:
        raise ValueError("label vectors must be non-empty")
    return a, b


def adjusted_rand_index(labels_a, labels_b) -> float:
    """Adjusted Rand index between two partitions (1 = identical).

    Chance-corrected: independent random partitions score ~0.
    """
    a, b = _validate_pair(labels_a, labels_b)
    table = _contingency(a, b)
    n = a.size

    def comb2(x):
        return x * (x - 1) / 2.0

    sum_cells = comb2(table.astype(float)).sum()
    sum_rows = comb2(table.sum(axis=1).astype(float)).sum()
    sum_cols = comb2(table.sum(axis=0).astype(float)).sum()
    total = comb2(float(n))
    expected = sum_rows * sum_cols / total if total > 0 else 0.0
    max_index = 0.5 * (sum_rows + sum_cols)
    if max_index == expected:
        return 1.0
    return float((sum_cells - expected) / (max_index - expected))


class KMeans:
    """Lloyd's algorithm with k-means++ seeding (baseline clusterer).

    Args:
        n_clusters: number of centroids.
        n_init: independent restarts; the best inertia wins.
        max_iter: Lloyd iterations per restart.
        tol: relative centroid-shift convergence threshold.
        random_state: seed for k-means++ and restarts.
    """

    def __init__(
        self,
        n_clusters: int = 9,
        n_init: int = 10,
        max_iter: int = 300,
        tol: float = 1e-6,
        random_state: int = 0,
    ) -> None:
        if n_clusters < 1:
            raise ValueError(f"n_clusters must be >= 1, got {n_clusters}")
        if n_init < 1:
            raise ValueError(f"n_init must be >= 1, got {n_init}")
        if max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {max_iter}")
        self.n_clusters = n_clusters
        self.n_init = n_init
        self.max_iter = max_iter
        self.tol = tol
        self.random_state = random_state
        self.cluster_centers_: Optional[np.ndarray] = None
        self.labels_: Optional[np.ndarray] = None
        self.inertia_: Optional[float] = None

    def _plus_plus_init(
        self, x: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        n = x.shape[0]
        centers = np.empty((self.n_clusters, x.shape[1]))
        centers[0] = x[int(rng.integers(n))]
        closest = np.sum((x - centers[0]) ** 2, axis=1)
        for c in range(1, self.n_clusters):
            total = closest.sum()
            if total == 0:
                centers[c] = x[int(rng.integers(n))]
                continue
            probs = closest / total
            centers[c] = x[int(rng.choice(n, p=probs))]
            distance = np.sum((x - centers[c]) ** 2, axis=1)
            np.minimum(closest, distance, out=closest)
        return centers

    def _lloyd(
        self, x: np.ndarray, centers: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, float]:
        for _ in range(self.max_iter):
            distances = (
                np.sum(x ** 2, axis=1)[:, None]
                - 2.0 * x @ centers.T
                + np.sum(centers ** 2, axis=1)[None, :]
            )
            labels = np.argmin(distances, axis=1)
            new_centers = centers.copy()
            for c in range(self.n_clusters):
                members = x[labels == c]
                if members.shape[0]:
                    new_centers[c] = members.mean(axis=0)
            shift = float(np.linalg.norm(new_centers - centers))
            centers = new_centers
            if shift <= self.tol * max(1.0, float(np.linalg.norm(centers))):
                break
        distances = (
            np.sum(x ** 2, axis=1)[:, None]
            - 2.0 * x @ centers.T
            + np.sum(centers ** 2, axis=1)[None, :]
        )
        labels = np.argmin(distances, axis=1)
        inertia = float(np.maximum(distances[np.arange(x.shape[0]), labels],
                                   0.0).sum())
        return centers, labels, inertia

    def fit(self, features) -> "KMeans":
        """Run ``n_init`` seeded restarts, keeping the lowest inertia."""
        x = check_matrix(features, "features")
        if x.shape[0] < self.n_clusters:
            raise ValueError(
                f"{self.n_clusters} clusters need at least as many samples, "
                f"got {x.shape[0]}"
            )
        best = None
        for restart in range(self.n_init):
            rng = np.random.default_rng(
                np.random.SeedSequence([self.random_state, restart])
            )
            centers = self._plus_plus_init(x, rng)
            centers, labels, inertia = self._lloyd(x, centers)
            if best is None or inertia < best[2]:
                best = (centers, labels, inertia)
        self.cluster_centers_, self.labels_, self.inertia_ = best
        return self

    def fit_predict(self, features) -> np.ndarray:
        """Fit and return the cluster labels."""
        return self.fit(features).labels_

    def predict(self, features) -> np.ndarray:
        """Assign new samples to the nearest fitted centroid."""
        if self.cluster_centers_ is None:
            raise RuntimeError("k-means is not fitted; call fit() first")
        x = check_matrix(features, "features")
        distances = (
            np.sum(x ** 2, axis=1)[:, None]
            - 2.0 * x @ self.cluster_centers_.T
            + np.sum(self.cluster_centers_ ** 2, axis=1)[None, :]
        )
        return np.argmin(distances, axis=1)
