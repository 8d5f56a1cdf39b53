"""Reference linkage, flat cuts and distances, kept as test oracles.

``repro.core.cluster`` runs the nearest-neighbour chain with a penalty
mask and lazily refreshed rows, cuts a dendrogram at every k in one
vectorised sweep (``Dendrogram.cuts``) and writes each distance chunk in
place (``pairwise_distances``).  These are the straightforward forms
they replaced: a chain that gathers the active columns and writes every
update down a column as well as along a row, one union-find per cut, and
one expression per chunk with its temporaries.  The fast forms must
equal them exactly.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.core import cluster
from repro.core.cluster import LINKAGES


def cut_tree(linkage_matrix: np.ndarray, n_clusters: int) -> np.ndarray:
    """Flat labels for ``n_clusters`` clusters by union-find over the
    first ``N - k`` merges, numbered in order of first appearance."""
    z = np.asarray(linkage_matrix, dtype=float)
    n = z.shape[0] + 1
    if not 1 <= n_clusters <= n:
        raise ValueError(f"n_clusters must be in [1, {n}], got {n_clusters}")
    parent = np.arange(2 * n - 1)

    def find(node: int) -> int:
        root = node
        while parent[root] != root:
            root = parent[root]
        while parent[node] != root:
            parent[node], node = root, parent[node]
        return root

    for t in range(n - n_clusters):
        new_id = n + t
        parent[int(z[t, 0])] = new_id
        parent[int(z[t, 1])] = new_id
    roots: Dict[int, int] = {}
    labels = np.empty(n, dtype=int)
    for leaf in range(n):
        root = find(leaf)
        if root not in roots:
            roots[root] = len(roots)
        labels[leaf] = roots[root]
    return labels


def pairwise_distances(
    x: np.ndarray, squared: bool = False, chunk_size: int = 512
) -> np.ndarray:
    """Euclidean distances as ``(|a|^2 + |b|^2) - 2ab``, one expression
    per row chunk."""
    n = x.shape[0]
    sq_norms = np.einsum("ij,ij->i", x, x)
    out = np.empty((n, n))
    for start in range(0, n, chunk_size):
        stop = min(start + chunk_size, n)
        block = sq_norms[start:stop, None] + sq_norms[None, :] - 2.0 * (x[start:stop] @ x.T)
        np.maximum(block, 0.0, out=block)
        out[start:stop] = block
    np.fill_diagonal(out, 0.0)
    if not squared:
        np.sqrt(out, out=out)
    return out


def _lance_williams_update(
    method: str,
    dist_a: np.ndarray,
    dist_b: np.ndarray,
    dist_ab: float,
    size_a: float,
    size_b: float,
    sizes: np.ndarray,
) -> np.ndarray:
    """Distance from the merged cluster (a u b) to every other cluster.

    For ``ward`` the inputs and output are *squared* Euclidean distances;
    for the other criteria they are plain distances.
    """
    if method == "ward":
        total = size_a + size_b + sizes
        return (
            (size_a + sizes) * dist_a
            + (size_b + sizes) * dist_b
            - sizes * dist_ab
        ) / total
    if method == "single":
        return np.minimum(dist_a, dist_b)
    if method == "complete":
        return np.maximum(dist_a, dist_b)
    if method == "average":
        return (size_a * dist_a + size_b * dist_b) / (size_a + size_b)
    raise ValueError(f"unknown linkage method {method!r}; expected one of {LINKAGES}")


def _nn_chain_merges(
    dist: np.ndarray, method: str
) -> List[Tuple[int, int, float]]:
    """Run the nearest-neighbour chain, returning raw merges.

    ``dist`` is consumed destructively.  Returned tuples are
    ``(slot_a, slot_b, height)`` where slots are original point indices of
    cluster representatives; heights are in the method's working metric
    (squared distances for ward).
    """
    n = dist.shape[0]
    sizes = np.ones(n)
    active = np.ones(n, dtype=bool)
    merges: List[Tuple[int, int, float]] = []
    chain: List[int] = []
    inf = np.inf
    for _ in range(n - 1):
        if not chain:
            chain.append(int(np.flatnonzero(active)[0]))
        while True:
            a = chain[-1]
            row = np.where(active, dist[a], inf)
            row[a] = inf
            b = int(np.argmin(row))
            if len(chain) >= 2 and b == chain[-2]:
                break
            chain.append(b)
        chain.pop()
        chain.pop()
        height = dist[a, b]
        # Merge b into a's slot: update distances via Lance-Williams.
        others = active.copy()
        others[a] = False
        others[b] = False
        idx = np.flatnonzero(others)
        if idx.size:
            updated = _lance_williams_update(
                method, dist[a, idx], dist[b, idx], height,
                sizes[a], sizes[b], sizes[idx],
            )
            dist[a, idx] = updated
            dist[idx, a] = updated
        sizes[a] = sizes[a] + sizes[b]
        active[b] = False
        merges.append((a, b, float(height)))
    return merges


def linkage(x: np.ndarray, method: str = "ward") -> np.ndarray:
    """``repro.core.cluster.linkage`` with the chain above in place of
    the library's: same distances, same labelling of the merges."""
    x = np.asarray(x, dtype=float)
    dist = cluster.pairwise_distances(x, squared=(method == "ward"))
    merges = _nn_chain_merges(dist, method)
    return cluster._label_merges(merges, x.shape[0], method)
