"""Cluster validity indices (paper Section 4.2.1, Fig. 2).

The paper selects the number of clusters k by scanning the Silhouette
score [Rousseeuw 1987] and the Dunn index [Dunn 1973] over candidate k and
looking for high values followed by an abrupt drop (observed at k = 6 and
k = 9).  Both indices are implemented from scratch here, plus the
Davies-Bouldin index as an extension, and a :func:`scan_k` helper that
evaluates a linkage across a k range.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.cluster import CHUNK_ROWS, Dendrogram, distance_chunks
from repro.utils.checks import check_matrix


def _validate_labels(features: np.ndarray, labels) -> Tuple[np.ndarray, np.ndarray]:
    x = check_matrix(features, "features")
    lab = np.asarray(labels, dtype=int)
    if lab.ndim != 1 or lab.shape[0] != x.shape[0]:
        raise ValueError(
            f"labels must be 1-D with one entry per row of features; "
            f"got {lab.shape} for {x.shape[0]} rows"
        )
    if np.unique(lab).size < 2:
        raise ValueError("validity indices need at least two clusters")
    return x, lab


def _distance_row_chunks(
    x: np.ndarray, distances: Optional[np.ndarray]
) -> Iterator[Tuple[int, np.ndarray]]:
    """Row chunks of the distance matrix of ``x``, rows and columns in
    ``x``'s own order: computed by :func:`repro.core.cluster.distance_chunks`,
    or sliced from a given N x N ``distances`` after checking its shape.

    The order is never permuted by labels: BLAS rounds a pair's product
    differently at different positions, so distances of ``x[order]`` would
    change by an ulp with the labelling, and two partitions of one ``x``
    would disagree on the same pair.
    """
    if distances is None:
        return distance_chunks(x)
    dist = np.asarray(distances, dtype=float)
    n = x.shape[0]
    if dist.shape != (n, n):
        raise ValueError(
            f"distances must be {n} x {n} to match features of shape "
            f"{x.shape}; got shape {dist.shape}"
        )
    return ((start, dist[start:start + CHUNK_ROWS])
            for start in range(0, n, CHUNK_ROWS))


def _onehot(codes: np.ndarray, k: int) -> np.ndarray:
    """N x k indicator of each code; ``m @ _onehot`` sums columns by code."""
    onehot = np.zeros((codes.size, k))
    onehot[np.arange(codes.size), codes] = 1.0
    return onehot


def _cluster_reductions(
    x: np.ndarray,
    codes: np.ndarray,
    counts: np.ndarray,
    distances: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One chunked pass over the distances, rows and columns grouped by
    cluster, with no N x N matrix held unless ``distances`` is given.

    Returns ``(order, sums, block_min, block_max)``: the stable order that
    groups the samples by code; every sample's summed distance to every
    cluster (N x k, rows in ``order``); and the k x k minimum and maximum
    of every cluster-by-cluster block.  Block ``[a, b]`` reduces rows in
    cluster ``a`` and columns in cluster ``b``: the off-diagonal minima
    are single-linkage separations, the diagonal maxima complete-linkage
    diameters.
    """
    order = np.argsort(codes, kind="stable")
    n, k = codes.size, counts.size
    starts = np.r_[0, np.cumsum(counts[:-1])].astype(np.intp)
    onehot = _onehot(codes, k)
    sums = np.empty((n, k))
    to_min = np.empty((n, k))
    to_max = np.empty((n, k))
    grouped = np.empty((min(CHUNK_ROWS, n), n))
    for start, block in _distance_row_chunks(x, distances):
        rows = slice(start, start + block.shape[0])
        np.matmul(block, onehot, out=sums[rows])
        # Columns grouped by code, so each cluster is one reduceat span.
        cols = np.take(block, order, axis=1, out=grouped[: block.shape[0]],
                       mode="clip")
        to_min[rows] = np.minimum.reduceat(cols, starts, axis=1)
        to_max[rows] = np.maximum.reduceat(cols, starts, axis=1)
    return (order, sums[order], np.minimum.reduceat(to_min[order], starts, axis=0),
            np.maximum.reduceat(to_max[order], starts, axis=0))


def _silhouettes(sums: np.ndarray, counts: np.ndarray,
                 codes: np.ndarray) -> np.ndarray:
    """Per-sample silhouettes from summed distances to every cluster."""
    rows = np.arange(codes.size)
    size = counts[codes]
    # Within-cluster mean excludes the sample itself.
    with np.errstate(divide="ignore", invalid="ignore"):
        a = sums[rows, codes] / (size - 1.0)
    means = sums / counts
    means[rows, codes] = np.inf
    b = means.min(axis=1)
    denom = np.maximum(a, b)
    # Singleton clusters get silhouette 0 by convention.
    scored = (size > 1) & (denom > 0)
    out = np.zeros(codes.size)
    out[scored] = (b[scored] - a[scored]) / denom[scored]
    return out


def _dunn(block_min: np.ndarray, block_max: np.ndarray,
          counts: np.ndarray) -> float:
    """Dunn index from the block extremes of :func:`_cluster_reductions`."""
    diameters = np.where(counts > 1, np.diag(block_max), 0.0)
    max_diameter = max(0.0, float(diameters.max()))
    min_separation = float(block_min[np.triu_indices(counts.size, 1)].min())
    if max_diameter == 0.0:
        return np.inf if min_separation > 0 else 0.0
    return min_separation / max_diameter


def _codes(lab: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Labels as 0..k-1 codes (sorted label order) plus cluster sizes."""
    _, codes = np.unique(lab, return_inverse=True)
    codes = codes.ravel()
    return codes, np.bincount(codes).astype(float)


def silhouette_samples(
    features: np.ndarray,
    labels,
    distances: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Per-sample silhouette coefficients ``(b - a) / max(a, b)``.

    ``a`` is the mean distance to the sample's own cluster, ``b`` the
    smallest mean distance to another cluster.  Singleton clusters get a
    silhouette of 0 by convention.

    Args:
        features: N x M matrix.
        labels: N cluster labels.
        distances: optional precomputed N x N distance matrix.

    Raises:
        ValueError: on fewer than two clusters, mismatched labels, or a
            ``distances`` matrix that is not N x N.
    """
    x, lab = _validate_labels(features, labels)
    codes, counts = _codes(lab)
    order, sums, _, _ = _cluster_reductions(x, codes, counts, distances)
    out = np.empty(codes.size)
    out[order] = _silhouettes(sums, counts, codes[order])
    return out


def silhouette_score(
    features: np.ndarray,
    labels,
    distances: Optional[np.ndarray] = None,
) -> float:
    """Mean silhouette coefficient over all samples (cohesion/separation)."""
    return float(silhouette_samples(features, labels, distances).mean())


def dunn_index(
    features: np.ndarray,
    labels,
    distances: Optional[np.ndarray] = None,
) -> float:
    """Dunn index: min inter-cluster distance / max intra-cluster diameter.

    Higher is better — compact (small diameters) and well-separated (large
    inter-cluster gaps) partitions score high.  Uses single-linkage
    inter-cluster distance and complete diameter, the classical definition.
    """
    x, lab = _validate_labels(features, labels)
    codes, counts = _codes(lab)
    _, _, block_min, block_max = _cluster_reductions(x, codes, counts, distances)
    return _dunn(block_min, block_max, counts)


def davies_bouldin_index(features: np.ndarray, labels) -> float:
    """Davies-Bouldin index (lower is better); extension beyond the paper."""
    x, lab = _validate_labels(features, labels)
    unique = np.unique(lab)
    centroids = np.vstack([x[lab == cluster].mean(axis=0) for cluster in unique])
    scatters = np.array([
        float(np.linalg.norm(x[lab == cluster] - centroids[i], axis=1).mean())
        for i, cluster in enumerate(unique)
    ])
    k = unique.size
    worst = np.zeros(k)
    for i in range(k):
        ratios = [
            (scatters[i] + scatters[j])
            / max(float(np.linalg.norm(centroids[i] - centroids[j])), 1e-12)
            for j in range(k) if j != i
        ]
        worst[i] = max(ratios)
    return float(worst.mean())


@dataclass
class KScanResult:
    """Validity indices over a range of candidate cluster counts (Fig. 2)."""

    ks: List[int]
    silhouette: List[float]
    dunn: List[float]
    davies_bouldin: List[float] = field(default_factory=list)

    def as_dict(self) -> Dict[int, Dict[str, float]]:
        """Per-k index values, keyed by k."""
        out: Dict[int, Dict[str, float]] = {}
        for i, k in enumerate(self.ks):
            row = {"silhouette": self.silhouette[i], "dunn": self.dunn[i]}
            if self.davies_bouldin:
                row["davies_bouldin"] = self.davies_bouldin[i]
            out[k] = row
        return out

    def drop_after(self, metric: str = "silhouette") -> Dict[int, float]:
        """Magnitude of the drop from k to k+1 for each scanned k.

        The paper's stopping criterion looks for "a high value ... followed
        by an abrupt drop"; this quantifies the drop so k = 6 and k = 9 can
        be identified programmatically.
        """
        series = {"silhouette": self.silhouette, "dunn": self.dunn,
                  "davies_bouldin": self.davies_bouldin}.get(metric)
        if series is None or not series:
            raise ValueError(f"unknown or empty metric {metric!r}")
        drops: Dict[int, float] = {}
        for i in range(len(self.ks) - 1):
            if self.ks[i + 1] == self.ks[i] + 1:
                drops[self.ks[i]] = series[i] - series[i + 1]
        return drops

    def local_peaks(self, metric: str = "silhouette") -> List[int]:
        """Candidate ks: local maxima of the index followed by a drop.

        This is the paper's stopping criterion ("a high value ... followed
        by an abrupt drop"); for the paper's data it flags k = 6 and k = 9.
        """
        series = {"silhouette": self.silhouette, "dunn": self.dunn,
                  "davies_bouldin": self.davies_bouldin}.get(metric)
        if series is None or not series:
            raise ValueError(f"unknown or empty metric {metric!r}")
        peaks = []
        for i in range(len(self.ks) - 1):
            rising = i == 0 or series[i] >= series[i - 1]
            dropping = series[i] > series[i + 1]
            if rising and dropping:
                peaks.append(self.ks[i])
        return peaks

    def best_k(self, metric: str = "silhouette") -> int:
        """The k whose high-value-then-drop signature is strongest.

        Among the local peaks of the index, returns the one followed by
        the steepest drop; falls back to the largest raw drop when the
        index is monotone.
        """
        drops = self.drop_after(metric)
        peaks = [k for k in self.local_peaks(metric) if k in drops]
        if peaks:
            return max(peaks, key=drops.get)
        return max(drops, key=drops.get)


def scan_k(
    features: np.ndarray,
    dendrogram: Dendrogram,
    ks: Sequence[int] = range(2, 16),
    include_davies_bouldin: bool = False,
) -> KScanResult:
    """Evaluate validity indices for flat cuts of one dendrogram.

    Cuts of one dendrogram nest: every cluster of a coarse cut is a union
    of clusters of the finest cut.  The scan therefore makes one chunked
    pass over the distances, rows and columns grouped by finest-cut
    cluster, reducing each chunk to per-sample cluster sums and per-block
    minima/maxima; every coarser k merges those columns and blocks.  No
    N x N matrix is held (each chunk is 512 rows), and the pass is
    O(N^2) however many ks are scanned.  Dunn values are exactly
    :func:`dunn_index`'s; silhouettes agree with :func:`silhouette_score`
    to floating-point summation order.
    """
    x = check_matrix(features, "features")
    result = KScanResult(ks=[], silhouette=[], dunn=[], davies_bouldin=[])
    ks = [int(k) for k in ks]
    if not ks:
        return result
    cuts = dendrogram.cuts(ks)
    fine, fine_counts = _codes(cuts[max(ks)])
    order, fine_sums, fine_min, fine_max = _cluster_reductions(x, fine, fine_counts)
    first_of_fine = np.unique(fine, return_index=True)[1]
    for k in ks:
        _, lab = _validate_labels(x, cuts[k])
        codes, counts = _codes(lab)
        merge = codes[first_of_fine]  # coarse cluster of each fine cluster
        block_min = np.full((counts.size, counts.size), np.inf)
        block_max = np.full((counts.size, counts.size), -np.inf)
        pairs = (merge[:, None], merge[None, :])
        np.minimum.at(block_min, pairs, fine_min)
        np.maximum.at(block_max, pairs, fine_max)
        result.ks.append(k)
        result.silhouette.append(
            float(_silhouettes(fine_sums @ _onehot(merge, counts.size),
                               counts, codes[order]).mean())
        )
        result.dunn.append(_dunn(block_min, block_max, counts))
        if include_davies_bouldin:
            result.davies_bouldin.append(davies_bouldin_index(x, lab))
    return result
