"""Tests for the from-scratch agglomerative clustering.

The linkage implementation is cross-validated against scipy's reference
implementation (scipy is available in the dev environment only; the
library itself depends solely on numpy).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cluster import (
    AgglomerativeClustering,
    Dendrogram,
    DendrogramNode,
    linkage,
    pairwise_distances,
    threshold_for_k,
)
from repro.core.rca import rsca
from repro.core.validation import silhouette_score
from tests import cluster_oracle

scipy_hierarchy = pytest.importorskip("scipy.cluster.hierarchy")


def random_blobs(rng, n_blobs=3, per_blob=15, dim=4, spread=0.3):
    centers = rng.normal(scale=4.0, size=(n_blobs, dim))
    points = np.vstack([
        center + rng.normal(scale=spread, size=(per_blob, dim))
        for center in centers
    ])
    labels = np.repeat(np.arange(n_blobs), per_blob)
    return points, labels


class TestPairwiseDistances:
    def test_matches_direct_computation(self, rng):
        x = rng.normal(size=(20, 5))
        expected = np.linalg.norm(x[:, None, :] - x[None, :, :], axis=2)
        np.testing.assert_allclose(pairwise_distances(x), expected, atol=1e-10)

    def test_squared(self, rng):
        x = rng.normal(size=(10, 3))
        np.testing.assert_allclose(
            pairwise_distances(x, squared=True),
            pairwise_distances(x) ** 2,
            atol=1e-9,
        )

    def test_chunking_consistent(self, rng):
        x = rng.normal(size=(30, 4))
        np.testing.assert_allclose(
            pairwise_distances(x, chunk_size=7),
            pairwise_distances(x, chunk_size=1000),
        )

    def test_zero_diagonal(self, rng):
        x = rng.normal(size=(15, 3))
        assert np.all(np.diag(pairwise_distances(x)) == 0)

    @pytest.mark.parametrize("n", [511, 512, 513, 1025])
    @pytest.mark.parametrize("squared", [False, True])
    def test_bit_identical_to_oracle(self, rng, n, squared):
        # Chunk edges at the default 512 rows: one short, exact, one over.
        x = rng.normal(size=(n, 9))
        assert np.array_equal(pairwise_distances(x, squared=squared),
                              cluster_oracle.pairwise_distances(x, squared=squared))

    def test_bit_identical_to_oracle_at_paper_scale(self, full_dataset):
        x = rsca(full_dataset.totals)
        assert np.array_equal(pairwise_distances(x, squared=True),
                              cluster_oracle.pairwise_distances(x, squared=True))


class TestLinkageVsScipy:
    @pytest.mark.parametrize("method", ["ward", "single", "complete", "average"])
    def test_heights_match_scipy(self, method, rng):
        x = rng.normal(size=(40, 6))
        ours = linkage(x, method)
        reference = scipy_hierarchy.linkage(x, method=method)
        np.testing.assert_allclose(ours[:, 2], reference[:, 2], rtol=1e-8)
        np.testing.assert_allclose(ours[:, 3], reference[:, 3])

    @pytest.mark.parametrize("method", ["ward", "complete", "average"])
    def test_flat_cuts_match_scipy(self, method, rng):
        x = rng.normal(size=(50, 5))
        ours = linkage(x, method)
        reference = scipy_hierarchy.linkage(x, method=method)
        for k in (2, 3, 5, 8):
            a = Dendrogram(ours).cut(k)
            b = scipy_hierarchy.fcluster(reference, k, criterion="maxclust")
            # Same partition up to label permutation.
            pairs = set(zip(a.tolist(), b.tolist()))
            assert len(pairs) == k

    def test_ward_matches_scipy_at_paper_scale(self, full_dataset):
        # The 4,762 x 73 RSCA matrix the paper pipeline clusters.
        x = rsca(full_dataset.totals)
        ours = linkage(x, "ward")
        reference = scipy_hierarchy.linkage(x, method="ward")
        np.testing.assert_allclose(ours[:, 2], reference[:, 2], rtol=1e-8)
        np.testing.assert_array_equal(ours[:, 3], reference[:, 3])
        for k in (9, 6):
            a = Dendrogram(ours).cut(k)
            b = scipy_hierarchy.fcluster(reference, k, criterion="maxclust")
            # Same partition up to label permutation.
            assert np.unique(a).size == np.unique(b).size == k
            assert len(set(zip(a.tolist(), b.tolist()))) == k

    def test_ward_matches_oracle_at_paper_scale(self, full_dataset):
        x = rsca(full_dataset.totals)
        assert np.array_equal(linkage(x, "ward"), cluster_oracle.linkage(x, "ward"))


class TestLinkageProperties:
    def test_monotonic_heights(self, rng):
        x = rng.normal(size=(60, 5))
        for method in ("ward", "complete", "average", "single"):
            z = linkage(x, method)
            assert np.all(np.diff(z[:, 2]) >= -1e-12), method

    def test_sizes_telescope(self, rng):
        x = rng.normal(size=(30, 3))
        z = linkage(x, "ward")
        assert z[-1, 3] == 30

    def test_recovers_well_separated_blobs(self, rng):
        x, truth = random_blobs(rng, n_blobs=4, per_blob=12)
        labels = Dendrogram(linkage(x, "ward")).cut(4)
        # Perfect recovery up to permutation.
        pairs = set(zip(labels.tolist(), truth.tolist()))
        assert len(pairs) == 4

    def test_duplicate_points_supported(self):
        x = np.array([[0.0, 0.0]] * 5 + [[10.0, 10.0]] * 5)
        labels = Dendrogram(linkage(x, "ward")).cut(2)
        assert len(set(labels[:5])) == 1
        assert len(set(labels[5:])) == 1
        assert labels[0] != labels[5]

    def test_two_points(self):
        z = linkage(np.array([[0.0], [3.0]]), "ward")
        assert z.shape == (1, 4)
        assert z[0, 2] == pytest.approx(3.0)

    def test_single_point_rejected(self):
        with pytest.raises(ValueError, match="at least two"):
            linkage(np.array([[1.0]]), "ward")

    def test_unknown_method_rejected(self, rng):
        with pytest.raises(ValueError, match="unknown linkage"):
            linkage(rng.normal(size=(5, 2)), "centroid")


@st.composite
def chain_inputs(draw):
    """Rows for the chain: n in 2..150, some drawn from a small pool so
    exact ties (duplicated rows) are common, on a coarse grid or not."""
    n = draw(st.integers(2, 150))
    dim = draw(st.integers(1, 5))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = gen.normal(size=(n, dim))
    if draw(st.booleans()):
        x = x[gen.integers(0, draw(st.integers(1, n)), size=n)]
    if draw(st.booleans()):
        x = np.round(x, 1)
    return x


class TestChainMatchesOracle:
    """The lazily refreshed chain against the column-writing one it
    replaced: equal linkage matrices, ties included."""

    @given(chain_inputs(), st.sampled_from(["ward", "single", "complete", "average"]))
    @settings(max_examples=200, deadline=None)
    def test_random_inputs(self, x, method):
        assert np.array_equal(linkage(x, method), cluster_oracle.linkage(x, method))

    @pytest.mark.parametrize("method", ["ward", "single", "complete", "average"])
    def test_chained_1d(self, method, rng):
        # Each merge extends a neighbour of the last, so rows go stale
        # over many merges before they are read again.
        x = np.cumsum(rng.random(400))[:, None]
        assert np.array_equal(linkage(x, method), cluster_oracle.linkage(x, method))


class TestOverflow:
    X = np.array([[0.0], [1e200], [2e200], [3.0]])

    @pytest.mark.parametrize("method", ["ward", "single", "complete", "average"])
    def test_linkage_rejects(self, method):
        with pytest.raises(ValueError, match="overflows"):
            linkage(self.X, method)

    def test_distances_and_silhouette_reject(self):
        with pytest.raises(ValueError, match="overflows"):
            pairwise_distances(self.X)
        with pytest.raises(ValueError, match="overflows"):
            silhouette_score(self.X, np.array([0, 0, 1, 1]))

    def test_large_finite_scale_still_clusters(self):
        x = np.array([[0.0], [1e153], [2e153], [3.0]])
        assert np.all(np.isfinite(linkage(x, "ward")))


class TestCutTree:
    def test_k_equals_n(self, rng):
        x = rng.normal(size=(8, 2))
        labels = Dendrogram(linkage(x, "ward")).cut(8)
        assert sorted(labels.tolist()) == list(range(8))

    def test_k_equals_one(self, rng):
        x = rng.normal(size=(8, 2))
        labels = Dendrogram(linkage(x, "ward")).cut(1)
        assert set(labels.tolist()) == {0}

    def test_out_of_range_rejected(self, rng):
        z = linkage(rng.normal(size=(8, 2)), "ward")
        with pytest.raises(ValueError, match="n_clusters"):
            Dendrogram(z).cut(9)
        with pytest.raises(ValueError, match="n_clusters"):
            Dendrogram(z).cut(0)

    def test_cuts_nest(self, rng):
        # Every k-cluster partition refines the (k-1)-cluster partition.
        x = rng.normal(size=(40, 4))
        z = linkage(x, "ward")
        for k in range(2, 10):
            fine = Dendrogram(z).cut(k)
            coarse = Dendrogram(z).cut(k - 1)
            for label in np.unique(fine):
                members = coarse[fine == label]
                assert np.unique(members).size == 1


class TestCutsMatchOracle:
    def test_every_k_on_ties(self):
        # Duplicate rows merge at height 0 in an arbitrary but fixed order.
        x = np.repeat(np.arange(6.0)[:, None], 3, axis=0)
        z = linkage(x, "ward")
        cuts = Dendrogram(z).cuts(range(1, 19))
        for k, labels in cuts.items():
            assert np.array_equal(labels, cluster_oracle.cut_tree(z, k)), k

    def test_paper_fit(self, full_profile):
        dendrogram = full_profile.dendrogram
        n = dendrogram.n_leaves
        ks = [*range(1, 41), n // 2, n - 1, n]
        cuts = dendrogram.cuts(ks)
        assert list(cuts) == ks
        for k in ks:
            expected = cluster_oracle.cut_tree(dendrogram.linkage_matrix, k)
            assert np.array_equal(cuts[k], expected), k
            assert cuts[k].dtype == expected.dtype

    def test_cut_tree_is_the_one_k_case(self, rng):
        z = linkage(rng.normal(size=(30, 3)), "average")
        cuts = Dendrogram(z).cuts([7, 2])
        assert np.array_equal(Dendrogram(z).cut(7), cuts[7])
        assert np.array_equal(Dendrogram(z).cut(2), cuts[2])

    def test_out_of_range_k_rejected(self, rng):
        dendrogram = Dendrogram(linkage(rng.normal(size=(8, 2)), "ward"))
        for bad in (0, 9):
            with pytest.raises(ValueError, match=r"n_clusters must be in \[1, 8\]"):
                dendrogram.cuts([3, bad])
        assert dendrogram.cuts([]) == {}


class TestThreshold:
    def test_threshold_separates_k(self, rng):
        x = rng.normal(size=(30, 3))
        z = linkage(x, "ward")
        for k in (2, 4, 7):
            threshold = threshold_for_k(z, k)
            n_above = int(np.sum(z[:, 2] > threshold))
            assert n_above == k - 1

    def test_threshold_bounds(self, rng):
        z = linkage(rng.normal(size=(10, 2)), "ward")
        assert threshold_for_k(z, 1) > z[-1, 2]
        assert threshold_for_k(z, 10) < z[0, 2]


class TestDendrogram:
    def test_leaves_partition(self, rng):
        x = rng.normal(size=(20, 3))
        dendrogram = Dendrogram(linkage(x, "ward"))
        assert sorted(dendrogram.root.leaves()) == list(range(20))
        assert dendrogram.root.count() == 20

    def test_chained_tree_deeper_than_recursion_limit(self):
        # Growing gaps make single linkage absorb one point per merge, so
        # the tree is a 2,999-level chain; each merge puts the new point
        # (the smaller node id) on the left.
        x = np.cumsum(np.arange(1.0, 3001.0))[:, None]
        root = Dendrogram(linkage(x, "single")).root
        assert root.leaves() == list(range(2999, 1, -1)) + [0, 1]
        assert root.count() == 3000
        assert root.right.count() == 2999

    def test_nodes_at_matches_cut(self, rng):
        x = rng.normal(size=(25, 3))
        dendrogram = Dendrogram(linkage(x, "ward"))
        for k in (2, 4, 6):
            nodes = dendrogram.nodes_at(k)
            assert len(nodes) == k
            labels = dendrogram.cut(k)
            node_leafsets = [frozenset(node.leaves()) for node in nodes]
            cut_leafsets = [
                frozenset(np.flatnonzero(labels == c).tolist())
                for c in np.unique(labels)
            ]
            assert set(node_leafsets) == set(cut_leafsets)

    def test_node_tree_matches_scipy(self, rng):
        n = 30
        z = linkage(rng.normal(size=(n, 3)), "ward")
        dendrogram = Dendrogram(z)
        assert dendrogram.root.leaves() == scipy_hierarchy.to_tree(z).pre_order()
        parent = np.full(2 * n - 1, 2 * n - 1)
        parent[z[:, :2].astype(int).ravel()] = np.repeat(np.arange(n, 2 * n - 1), 2)
        ids = np.arange(2 * n - 1)
        for k in (1, 3, 7, n):
            # The k-cut's subtrees are the nodes made before merge N - k
            # whose parent is made at or after it.
            roots = ids[(ids < 2 * n - k) & (parent >= 2 * n - k)]
            nodes = dendrogram.nodes_at(k)
            assert sorted(node.node_id for node in nodes) == roots.tolist()

    def test_cuts_and_fits_build_no_nodes(self, rng, monkeypatch):
        import repro.core.cluster as cluster_module

        built = []

        class CountingNode(DendrogramNode):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self.node_id)

        monkeypatch.setattr(cluster_module, "DendrogramNode", CountingNode)
        x = rng.normal(size=(40, 3))
        model = AgglomerativeClustering(n_clusters=4).fit(x)
        Dendrogram(model.linkage_matrix_).cut(5)
        model.dendrogram_.cuts(range(2, 9))
        assert built == []
        assert sorted(model.dendrogram_.root.leaves()) == list(range(40))
        assert len(built) == 2 * 40 - 1
        model.dendrogram_.nodes_at(6)
        assert len(built) == 2 * 40 - 1

    def test_group_of_clusters_consistent(self, rng):
        x, _ = random_blobs(rng, n_blobs=4, per_blob=10)
        dendrogram = Dendrogram(linkage(x, "ward"))
        mapping = dendrogram.group_of_clusters(4, 2)
        assert set(mapping) == set(range(4))
        assert set(mapping.values()) <= {0, 1}

    def test_bad_linkage_shape_rejected(self):
        with pytest.raises(ValueError, match="linkage matrix"):
            Dendrogram(np.ones((3, 3)))


class TestAgglomerativeClustering:
    def test_fit_predict(self, rng):
        x, truth = random_blobs(rng, n_blobs=3, per_blob=10)
        model = AgglomerativeClustering(n_clusters=3)
        labels = model.fit_predict(x)
        assert len(set(zip(labels.tolist(), truth.tolist()))) == 3
        assert model.linkage_matrix_ is not None
        assert model.dendrogram_ is not None

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="n_clusters"):
            AgglomerativeClustering(n_clusters=0)
        with pytest.raises(ValueError, match="unknown linkage"):
            AgglomerativeClustering(linkage="median")
