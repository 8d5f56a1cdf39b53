"""Property-based tests (hypothesis) for the core invariants."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.cluster import Dendrogram, linkage, pairwise_distances
from repro.core.rca import rca, rsca, rsca_from_rca
from repro.core.validation import silhouette_samples
from repro.utils.assignment import align_labels, hungarian
from repro.utils.rng import derive_seed
from tests import cluster_oracle

# Strictly positive totals matrices of modest size.
totals_matrices = arrays(
    dtype=float,
    shape=st.tuples(st.integers(2, 12), st.integers(2, 10)),
    elements=st.floats(min_value=0.01, max_value=1e6,
                       allow_nan=False, allow_infinity=False),
)

feature_matrices = arrays(
    dtype=float,
    shape=st.tuples(st.integers(3, 16), st.integers(1, 5)),
    elements=st.floats(min_value=-100, max_value=100,
                       allow_nan=False, allow_infinity=False),
)


class TestRcaProperties:
    @given(totals_matrices)
    @settings(max_examples=60, deadline=None)
    def test_rca_nonnegative_and_weighted_mean_one(self, totals):
        values = rca(totals)
        assert np.all(values >= 0)
        share = totals.sum(axis=0) / totals.sum()
        np.testing.assert_allclose(values @ share, 1.0, rtol=1e-8)

    @given(totals_matrices)
    @settings(max_examples=60, deadline=None)
    def test_rsca_bounded(self, totals):
        values = rsca(totals)
        assert np.all(values >= -1.0)
        assert np.all(values <= 1.0)

    @given(totals_matrices, st.floats(min_value=0.01, max_value=1000))
    @settings(max_examples=40, deadline=None)
    def test_rca_scale_invariant(self, totals, scale):
        np.testing.assert_allclose(rca(totals), rca(totals * scale),
                                   rtol=1e-7, atol=1e-10)

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_rsca_from_rca_monotone_and_bounded(self, values):
        array = np.sort(np.asarray(values))
        mapped = rsca_from_rca(array)
        assert np.all(np.diff(mapped) >= -1e-12)
        assert np.all((-1.0 <= mapped) & (mapped <= 1.0))


class TestClusterProperties:
    @given(feature_matrices)
    @settings(max_examples=30, deadline=None)
    def test_linkage_heights_monotone(self, x):
        assume(np.unique(x, axis=0).shape[0] >= 2)
        z = linkage(x, "ward")
        assert np.all(np.diff(z[:, 2]) >= -1e-9)
        assert z[-1, 3] == x.shape[0]

    @given(feature_matrices)
    @settings(max_examples=30, deadline=None)
    def test_cuts_nest(self, x):
        assume(np.unique(x, axis=0).shape[0] >= 3)
        z = linkage(x, "average")
        n = x.shape[0]
        for k in range(2, min(6, n)):
            fine = Dendrogram(z).cut(k)
            coarse = Dendrogram(z).cut(k - 1)
            for label in np.unique(fine):
                assert np.unique(coarse[fine == label]).size == 1

    @given(feature_matrices, st.sampled_from(["ward", "single", "average"]))
    @settings(max_examples=40, deadline=None)
    def test_cuts_match_union_find_oracle(self, x, method):
        z = linkage(x, method)
        n = x.shape[0]
        cuts = Dendrogram(z).cuts(range(n, 0, -1))
        for k in range(1, n + 1):
            assert np.array_equal(cuts[k], cluster_oracle.cut_tree(z, k)), k

    @given(feature_matrices)
    @settings(max_examples=30, deadline=None)
    def test_pairwise_distances_match_oracle(self, x):
        for chunk_size in (1, 5, 512):
            assert np.array_equal(
                pairwise_distances(x, chunk_size=chunk_size),
                cluster_oracle.pairwise_distances(x, chunk_size=chunk_size))

    @given(feature_matrices)
    @settings(max_examples=30, deadline=None)
    def test_pairwise_distance_metric_axioms(self, x):
        dist = pairwise_distances(x)
        assert np.allclose(dist, dist.T, atol=1e-8)
        assert np.all(np.diag(dist) == 0)
        assert np.all(dist >= 0)

    @given(feature_matrices, st.integers(2, 4))
    @settings(max_examples=30, deadline=None)
    def test_silhouette_bounded(self, x, k):
        assume(x.shape[0] >= k)
        labels = np.arange(x.shape[0]) % k
        samples = silhouette_samples(x, labels)
        assert np.all(samples >= -1.0 - 1e-9)
        assert np.all(samples <= 1.0 + 1e-9)


class TestAssignmentProperties:
    @given(arrays(dtype=float, shape=st.tuples(st.integers(1, 5),
                                               st.integers(1, 5)),
                  elements=st.floats(min_value=-50, max_value=50,
                                     allow_nan=False)))
    @settings(max_examples=60, deadline=None)
    def test_hungarian_not_worse_than_greedy(self, cost):
        rows, cols = hungarian(cost)
        total = cost[rows, cols].sum()
        # Greedy row-by-row assignment is an upper bound on the optimum.
        taken = set()
        greedy = 0.0
        n_assign = min(cost.shape)
        count = 0
        for i in range(cost.shape[0]):
            if count == n_assign:
                break
            options = [(cost[i, j], j) for j in range(cost.shape[1])
                       if j not in taken]
            best, j = min(options)
            greedy += best
            taken.add(j)
            count += 1
        assert total <= greedy + 1e-9

    @given(st.lists(st.integers(0, 4), min_size=2, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_align_identity(self, labels):
        mapping = align_labels(labels, labels)
        assert all(mapping[label] == label for label in set(labels))

    @given(st.lists(st.integers(0, 3), min_size=2, max_size=30),
           st.permutations([0, 1, 2, 3]))
    @settings(max_examples=60, deadline=None)
    def test_align_undoes_permutation(self, labels, perm):
        reference = np.asarray(labels)
        predicted = np.asarray([perm[l] for l in labels])
        mapping = align_labels(predicted, reference)
        recovered = np.asarray([mapping[p] for p in predicted])
        np.testing.assert_array_equal(recovered, reference)


class TestRngProperties:
    @given(st.integers(0, 2**31), st.lists(st.integers(0, 1000),
                                           min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_derive_seed_stable_and_in_range(self, master, keys):
        a = derive_seed(master, *keys)
        b = derive_seed(master, *keys)
        assert a == b
        assert 0 <= a < 2**64
