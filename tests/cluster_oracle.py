"""Reference flat cuts and distances, kept as test oracles.

``repro.core.cluster`` cuts a dendrogram at every k in one vectorised
sweep (``Dendrogram.cuts``) and writes each distance chunk in place
(``pairwise_distances``).  These are the straightforward forms they
replaced: one union-find per cut, and one expression per chunk with its
temporaries.  The fast forms must equal them exactly.
"""

from __future__ import annotations

from typing import Dict

import numpy as np


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
