"""Agglomerative hierarchical clustering, implemented from scratch.

The paper clusters antennas with bottom-up agglomerative clustering under
Ward's minimum-variance criterion (Section 4.2.1).  This module implements
the nearest-neighbour-chain algorithm — O(N^2) time, exact for *reducible*
linkage criteria (Ward, single, complete, average) — producing a
scipy-compatible linkage matrix, flat cluster cuts, and a navigable
dendrogram tree (Fig. 3).

The chain touches the N x N distance matrix only along rows.  A
``penalty`` vector (0 for active clusters, +inf for merged-away ones)
masks dead columns, so a nearest-neighbour lookup is one add and one
``argmin`` over a contiguous row, and the Lance–Williams update rewrites
the surviving row whole.  Columns are never written: a merge log records
which row each merge rewrote, and a row is brought current from it — by
copying in the entries of the rows rewritten since it was last read —
just before it is read.  Every value read is the one a column write
would have left, so the linkage equals the textbook chain's bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.utils.checks import check_matrix

#: Supported linkage criteria.
LINKAGES = ("ward", "single", "complete", "average")


#: Rows of the distance matrix computed per chunk, bounding temporaries.
CHUNK_ROWS = 512


def distance_chunks(
    x: np.ndarray,
    squared: bool = False,
    chunk_size: int = CHUNK_ROWS,
    out: Optional[np.ndarray] = None,
) -> Iterator[Tuple[int, np.ndarray]]:
    """Yield ``(start, block)`` over the row chunks of ``x``'s distances.

    ``block`` holds the Euclidean distances of rows ``start:start +
    len(block)`` to every row, as ``(|a|^2 + |b|^2) - 2ab`` in that order,
    clamped at zero, with each row's distance to itself exactly zero (and
    squared when ``squared``).  This is the one distance formula: every
    caller gets the same bits for the same pair of rows.  With ``out``
    (N x N) each block is a view of its rows; otherwise all blocks share
    one buffer, overwritten at the next step.

    Raises:
        ValueError: when ``4 * max(|x|^2)``, the bound on every term of
            the formula, overflows float: the distances would be inf or
            NaN.
    """
    n = x.shape[0]
    sq_norms = np.einsum("ij,ij->i", x, x)
    if not np.isfinite(4.0 * sq_norms.max(initial=0.0)):
        raise ValueError(
            "features are too large for float64 distances: "
            "4 * max squared row norm overflows"
        )
    products = np.empty((min(chunk_size, n), n))
    scratch = np.empty_like(products) if out is None else None
    for start in range(0, n, chunk_size):
        stop = min(start + chunk_size, n)
        block = scratch[: stop - start] if out is None else out[start:stop]
        twice = products[: stop - start]
        np.matmul(x[start:stop], x.T, out=twice)
        twice *= 2.0
        np.add(sq_norms[start:stop, None], sq_norms[None, :], out=block)
        block -= twice
        np.maximum(block, 0.0, out=block)
        block[np.arange(stop - start), np.arange(start, stop)] = 0.0
        if not squared:
            np.sqrt(block, out=block)
        yield start, block


def pairwise_distances(
    features: np.ndarray, squared: bool = False, chunk_size: int = CHUNK_ROWS
) -> np.ndarray:
    """Dense Euclidean distance matrix, written chunk by chunk in place.

    Args:
        features: N x M feature matrix.
        squared: return squared distances (used internally by Ward).
        chunk_size: rows per chunk, bounding peak temporary memory.

    Returns:
        N x N symmetric matrix with a zero diagonal, the blocks of
        :func:`distance_chunks`.
    """
    x = check_matrix(features, "features")
    out = np.empty((x.shape[0], x.shape[0]))
    for _ in distance_chunks(x, squared, chunk_size, out):
        pass
    return out


def _lance_williams_update(
    method: str,
    dist_a: np.ndarray,
    dist_b: np.ndarray,
    dist_ab: float,
    size_a: float,
    size_b: float,
    sizes: np.ndarray,
    work: np.ndarray,
) -> None:
    """Overwrite ``dist_a`` with the distance from the merged cluster
    (a u b) to every other cluster.

    For ``ward`` the inputs and output are *squared* Euclidean distances;
    for the other criteria they are plain distances.  ``work`` holds two
    scratch rows.  Each term is computed in the order of the textbook
    formula, so the result is the same float as the formula evaluated with
    temporaries.
    """
    left, right = work
    if method == "ward":
        # ((size_a + sizes) * dist_a + (size_b + sizes) * dist_b
        #  - sizes * dist_ab) / (size_a + size_b + sizes)
        np.add(size_a, sizes, out=left)
        left *= dist_a
        np.add(size_b, sizes, out=right)
        right *= dist_b
        left += right
        np.multiply(sizes, dist_ab, out=right)
        left -= right
        np.add(size_a + size_b, sizes, out=right)
        np.divide(left, right, out=dist_a)
    elif method == "single":
        np.minimum(dist_a, dist_b, out=dist_a)
    elif method == "complete":
        np.maximum(dist_a, dist_b, out=dist_a)
    elif method == "average":
        np.multiply(size_a, dist_a, out=left)
        np.multiply(size_b, dist_b, out=right)
        left += right
        np.divide(left, size_a + size_b, out=dist_a)
    else:
        raise ValueError(f"unknown linkage method {method!r}; expected one of {LINKAGES}")


def _nn_chain_merges(
    dist: np.ndarray, method: str
) -> List[Tuple[int, int, float]]:
    """Run the nearest-neighbour chain, returning raw merges.

    ``dist`` is consumed destructively.  Returned tuples are
    ``(slot_a, slot_b, height)`` where slots are original point indices of
    cluster representatives; heights are in the method's working metric
    (squared distances for ward).

    A merge writes only the surviving row ``a``, so the pair ``(c, a)`` is
    current in row ``a`` and stale in row ``c``.  ``log[t]`` is the row
    merge ``t`` wrote, ``stamp[r]`` the last merge that wrote row ``r``
    (-1 when none did or ``r`` was merged away) and ``fresh[c]`` the
    number of merges row ``c`` has caught up with.  Just before a row is
    read, ``bring_current`` copies in the entries of the active rows
    written since, so every value read is the float a column write would
    have left there.
    """
    n = dist.shape[0]
    np.fill_diagonal(dist, np.inf)
    sizes = np.ones(n)
    penalty = np.zeros(n)  # +inf masks merged-away columns
    log = np.empty(n - 1, dtype=np.intp)
    steps = np.arange(n - 1)
    stamp = np.full(n, -1, dtype=np.intp)
    fresh = np.zeros(n, dtype=np.intp)
    work = np.empty((2, n))
    row = work[0]
    merges: List[Tuple[int, int, float]] = []
    chain: List[int] = []
    lowest = 0

    def bring_current(c: int, t: int) -> None:
        since = fresh[c]
        if since < t:
            written = log[since:t]
            written = written[stamp[written] == steps[since:t]]
            dist[c, written] = dist[written, c]
            fresh[c] = t

    for t in range(n - 1):
        if not chain:
            while penalty[lowest]:
                lowest += 1
            chain.append(lowest)
        while True:
            a = chain[-1]
            bring_current(a, t)
            np.add(dist[a], penalty, out=row)
            b = int(row.argmin())
            if len(chain) >= 2 and b == chain[-2]:
                break
            chain.append(b)
        chain.pop()
        chain.pop()
        bring_current(b, t)
        height = dist[a, b]
        # Merge b into a's slot.  Columns a, b and the merged-away ones
        # come out finite or +inf (never NaN: the one subtraction is of a
        # finite sizes * height), and the diagonal and penalty mask them.
        _lance_williams_update(
            method, dist[a], dist[b], height, sizes[a], sizes[b], sizes, work
        )
        dist[a, a] = np.inf
        sizes[a] = sizes[a] + sizes[b]
        penalty[b] = np.inf
        log[t] = a
        stamp[a] = t
        stamp[b] = -1
        fresh[a] = t + 1
        merges.append((a, b, float(height)))
    return merges


def _label_merges(
    merges: Sequence[Tuple[int, int, float]], n: int, method: str
) -> np.ndarray:
    """Sort raw merges by height and produce a scipy-style linkage matrix.

    Rows are ``[id_a, id_b, height, size]``; ids < n are leaves and
    id ``n + t`` is the cluster created by row ``t``.  Ward heights are
    converted from the squared working metric back to Euclidean units.
    """
    order = np.argsort([m[2] for m in merges], kind="stable")
    parent = np.arange(2 * n - 1)

    def find(node: int) -> int:
        root = node
        while parent[root] != root:
            root = parent[root]
        while parent[node] != root:
            parent[node], node = root, parent[node]
        return root

    linkage_matrix = np.empty((n - 1, 4))
    cluster_id = np.arange(n)  # representative slot -> current cluster id
    sizes = np.ones(2 * n - 1)
    for t, merge_idx in enumerate(order):
        slot_a, slot_b, height = merges[merge_idx]
        id_a = find(slot_a)
        id_b = find(slot_b)
        new_id = n + t
        lo, hi = (id_a, id_b) if id_a < id_b else (id_b, id_a)
        value = np.sqrt(height) if method == "ward" else height
        sizes[new_id] = sizes[id_a] + sizes[id_b]
        linkage_matrix[t] = (lo, hi, value, sizes[new_id])
        parent[id_a] = new_id
        parent[id_b] = new_id
    return linkage_matrix


def linkage(features: np.ndarray, method: str = "ward") -> np.ndarray:
    """Agglomerative linkage of row vectors under Euclidean distance.

    Args:
        features: N x M matrix; each row is one observation (for the paper,
            one antenna's RSCA vector).
        method: one of ``"ward"``, ``"single"``, ``"complete"``,
            ``"average"``.

    Returns:
        (N-1) x 4 linkage matrix ``[id_a, id_b, height, size]`` with the
        same conventions as ``scipy.cluster.hierarchy.linkage``.
    """
    if method not in LINKAGES:
        raise ValueError(f"unknown linkage method {method!r}; expected one of {LINKAGES}")
    x = check_matrix(features, "features")
    n = x.shape[0]
    if n < 2:
        raise ValueError("clustering needs at least two observations")
    dist = pairwise_distances(x, squared=(method == "ward"))
    merges = _nn_chain_merges(dist, method)
    return _label_merges(merges, n, method)


def threshold_for_k(linkage_matrix: np.ndarray, n_clusters: int) -> float:
    """Distance threshold separating exactly ``n_clusters`` flat clusters.

    Cutting the dendrogram at any height in the half-open interval
    ``[h, h_next)`` — where this function returns the midpoint — yields
    ``n_clusters`` clusters (the horizontal lines of Fig. 3).
    """
    z = np.asarray(linkage_matrix, dtype=float)
    n = z.shape[0] + 1
    if not 1 <= n_clusters <= n:
        raise ValueError(f"n_clusters must be in [1, {n}], got {n_clusters}")
    if n_clusters == 1:
        return float(z[-1, 2] * 1.05)
    if n_clusters == n:
        return float(z[0, 2] / 2.0)
    lower = z[n - n_clusters - 1, 2]
    upper = z[n - n_clusters, 2]
    return float((lower + upper) / 2.0)


@dataclass
class DendrogramNode:
    """One node of the dendrogram tree."""

    node_id: int
    height: float
    left: Optional["DendrogramNode"] = None
    right: Optional["DendrogramNode"] = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None and self.right is None

    def leaves(self) -> List[int]:
        """Original observation indices under this node, left-to-right.

        Walks an explicit stack, so a chained (single-linkage) tree of any
        depth stays clear of Python's recursion limit.
        """
        found, stack = [], [self]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                found.append(node.node_id)
            else:
                stack += (node.right, node.left)
        return found

    def count(self) -> int:
        """Number of observations under this node."""
        return len(self.leaves())


class Dendrogram:
    """Navigable merge tree over a linkage matrix (paper Fig. 3).

    Supports flat cuts, per-cut distance thresholds, and the grouping view
    the paper uses ("three large groups of clusters, each split into three
    sub-clusters").
    """

    def __init__(self, linkage_matrix: np.ndarray) -> None:
        z = np.asarray(linkage_matrix, dtype=float)
        if z.ndim != 2 or z.shape[1] != 4:
            raise ValueError(f"linkage matrix must be (N-1) x 4, got {z.shape}")
        self.linkage_matrix = z
        self.n_leaves = z.shape[0] + 1

    @cached_property
    def root(self) -> DendrogramNode:
        """Top of the node tree, built on first access: the flat cuts work
        on the linkage matrix and never need the 2N - 1 nodes."""
        z = self.linkage_matrix
        nodes = [DendrogramNode(i, 0.0) for i in range(self.n_leaves)]
        for t in range(z.shape[0]):
            nodes.append(DendrogramNode(
                self.n_leaves + t,
                float(z[t, 2]),
                left=nodes[int(z[t, 0])],
                right=nodes[int(z[t, 1])],
            ))
        return nodes[-1]

    def cuts(self, ks: Iterable[int]) -> Dict[int, np.ndarray]:
        """Flat labels for every k in ``ks``, in one sweep over the merges.

        Each leaf climbs to its root among the first N - k merges by pointer
        jumping; labels are 0..k-1 in order of first appearance (align with
        :func:`repro.utils.align_labels` for paper numbering).
        """
        n = self.n_leaves
        ks = [int(k) for k in ks]
        for k in ks:
            if not 1 <= k <= n:
                raise ValueError(f"n_clusters must be in [1, {n}], got {k}")
        nodes = np.arange(2 * n - 1)
        parent = nodes.copy()
        parent[self.linkage_matrix[:, :2].astype(np.intp).ravel()] = np.repeat(nodes[n:], 2)
        # Merge row t creates node N + t; cutting at k keeps rows t < N - k.
        roots = np.where(parent < 2 * n - np.array(ks, dtype=np.intp)[:, None], parent, nodes)
        jumped = np.take_along_axis(roots, roots, axis=1)
        while not np.array_equal(jumped, roots):
            roots, jumped = jumped, np.take_along_axis(jumped, jumped, axis=1)
        out: Dict[int, np.ndarray] = {}
        for k, leaf_roots in zip(ks, roots[:, :n]):
            _, first, codes = np.unique(leaf_roots, return_index=True, return_inverse=True)
            out[k] = np.argsort(np.argsort(first))[codes]
        return out

    def cut(self, n_clusters: int) -> np.ndarray:
        """Flat labels for ``n_clusters`` clusters (see :meth:`cuts`)."""
        return self.cuts([n_clusters])[n_clusters]

    def threshold_for(self, n_clusters: int) -> float:
        """Cut height yielding ``n_clusters`` clusters."""
        return threshold_for_k(self.linkage_matrix, n_clusters)

    def nodes_at(self, n_clusters: int) -> List[DendrogramNode]:
        """The subtree roots forming the ``n_clusters``-cluster partition."""
        if not 1 <= n_clusters <= self.n_leaves:
            raise ValueError(
                f"n_clusters must be in [1, {self.n_leaves}], got {n_clusters}"
            )
        frontier = [self.root]
        while len(frontier) < n_clusters:
            # Split the frontier node with the greatest merge height.
            splittable = [node for node in frontier if not node.is_leaf]
            node = max(splittable, key=lambda nd: nd.height)
            frontier.remove(node)
            frontier.extend([node.left, node.right])
        return frontier

    def group_of_clusters(
        self, n_clusters: int, n_groups: int
    ) -> Dict[int, int]:
        """Map fine-cut labels to coarse-cut labels.

        For the paper's structure, ``group_of_clusters(9, 3)`` reports which
        of the three dendrogram branches (orange/green/red) each of the nine
        clusters belongs to.
        """
        cuts = self.cuts([n_clusters, n_groups])
        fine, coarse = cuts[n_clusters], cuts[n_groups]
        mapping: Dict[int, int] = {}
        for fine_label in np.unique(fine):
            members = np.flatnonzero(fine == fine_label)
            coarse_labels = np.unique(coarse[members])
            if coarse_labels.size != 1:
                raise RuntimeError(
                    "hierarchy violation: a fine cluster spans coarse groups"
                )
            mapping[int(fine_label)] = int(coarse_labels[0])
        return mapping


class AgglomerativeClustering:
    """Scikit-learn-style front door for the hierarchical clustering.

    >>> model = AgglomerativeClustering(n_clusters=9, linkage="ward")
    >>> labels = model.fit_predict(features)          # doctest: +SKIP
    """

    def __init__(self, n_clusters: int = 9, linkage: str = "ward") -> None:
        if n_clusters < 1:
            raise ValueError(f"n_clusters must be >= 1, got {n_clusters}")
        if linkage not in LINKAGES:
            raise ValueError(f"unknown linkage {linkage!r}; expected one of {LINKAGES}")
        self.n_clusters = n_clusters
        self.linkage = linkage
        self.linkage_matrix_: Optional[np.ndarray] = None
        self.labels_: Optional[np.ndarray] = None
        self.dendrogram_: Optional[Dendrogram] = None

    def fit(self, features: np.ndarray) -> "AgglomerativeClustering":
        """Cluster the rows of ``features``; fills the fitted attributes."""
        return self._from_linkage(linkage(features, self.linkage))

    def _from_linkage(self, linkage_matrix: np.ndarray) -> "AgglomerativeClustering":
        """Fill the fitted attributes from a linkage matrix of this criterion."""
        self.linkage_matrix_ = linkage_matrix
        self.dendrogram_ = Dendrogram(linkage_matrix)
        self.labels_ = self.dendrogram_.cut(self.n_clusters)
        return self

    def fit_predict(self, features: np.ndarray) -> np.ndarray:
        """Fit and return the flat cluster labels."""
        return self.fit(features).labels_
