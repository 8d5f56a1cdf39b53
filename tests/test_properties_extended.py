"""Property-based tests for the extension modules."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.compare import KMeans, adjusted_rand_index
from repro.forecast.models import (
    SeasonalNaive,
    WeeklyProfile,
    normalized_mae,
)

label_vectors = st.lists(st.integers(0, 4), min_size=2, max_size=50)


@st.composite
def label_pairs(draw):
    """Two equal-length label vectors (avoids assume-based filtering)."""
    size = draw(st.integers(2, 40))
    a = draw(st.lists(st.integers(0, 4), min_size=size, max_size=size))
    b = draw(st.lists(st.integers(0, 4), min_size=size, max_size=size))
    return a, b

small_matrices = arrays(
    dtype=float,
    shape=st.tuples(st.integers(4, 20), st.integers(2, 5)),
    elements=st.floats(min_value=-50, max_value=50, allow_nan=False),
)

positive_series = arrays(
    dtype=float,
    shape=st.integers(2 * 168, 3 * 168),
    elements=st.floats(min_value=0.1, max_value=1e4, allow_nan=False),
)


class TestAgreementMetricProperties:
    @given(label_vectors)
    @settings(max_examples=50, deadline=None)
    def test_ari_reflexive(self, labels):
        assert adjusted_rand_index(labels, labels) == pytest.approx(1.0)

    @given(label_pairs())
    @settings(max_examples=50, deadline=None)
    def test_ari_symmetric(self, pair):
        a, b = pair
        assert adjusted_rand_index(a, b) == pytest.approx(
            adjusted_rand_index(b, a)
        )

    @given(label_vectors, st.permutations(list(range(5))))
    @settings(max_examples=50, deadline=None)
    def test_ari_label_permutation_invariant(self, labels, perm):
        permuted = [perm[l] for l in labels]
        assert adjusted_rand_index(labels, permuted) == pytest.approx(1.0)


class TestKMeansProperties:
    @given(small_matrices, st.integers(1, 3))
    @settings(max_examples=25, deadline=None)
    def test_inertia_nonnegative_and_labels_valid(self, x, k):
        assume(np.unique(x, axis=0).shape[0] >= k)
        model = KMeans(n_clusters=k, n_init=2, max_iter=50,
                       random_state=0).fit(x)
        assert model.inertia_ >= 0
        assert set(np.unique(model.labels_)) <= set(range(k))

    @given(small_matrices)
    @settings(max_examples=25, deadline=None)
    def test_single_cluster_inertia_is_total_variance(self, x):
        model = KMeans(n_clusters=1, n_init=1, random_state=0).fit(x)
        centered = x - x.mean(axis=0)
        assert model.inertia_ == pytest.approx(
            float((centered ** 2).sum()), rel=1e-6, abs=1e-6
        )

    @given(small_matrices, st.integers(2, 3))
    @settings(max_examples=25, deadline=None)
    def test_predict_consistent_with_fit(self, x, k):
        assume(np.unique(x, axis=0).shape[0] >= k)
        model = KMeans(n_clusters=k, n_init=2, random_state=0).fit(x)
        np.testing.assert_array_equal(model.predict(x), model.labels_)


class TestForecastProperties:
    @given(positive_series)
    @settings(max_examples=25, deadline=None)
    def test_seasonal_naive_repeats_last_season(self, series):
        model = SeasonalNaive(season=168).fit(series)
        forecast = model.forecast(168)
        np.testing.assert_array_equal(forecast, series[-168:])

    @given(positive_series)
    @settings(max_examples=25, deadline=None)
    def test_weekly_profile_nonnegative(self, series):
        forecast = WeeklyProfile().fit(series).forecast(168)
        assert np.all(forecast >= 0)

    @given(positive_series)
    @settings(max_examples=25, deadline=None)
    def test_weekly_profile_level_matches_recent(self, series):
        model = WeeklyProfile().fit(series)
        forecast = model.forecast(168)
        recent = series[-168:].mean()
        # The forecast level tracks the recent level (by construction).
        assert forecast.mean() == pytest.approx(recent, rel=1e-6)

    @given(positive_series)
    @settings(max_examples=25, deadline=None)
    def test_nmae_zero_iff_exact(self, series):
        assert normalized_mae(series, series) == 0.0


class TestDriftProperties:
    @given(small_matrices, st.integers(2, 3))
    @settings(max_examples=20, deadline=None)
    def test_self_comparison_has_no_drift(self, x, k):
        from repro.analysis.drift import compare_partitions

        assume(np.unique(x, axis=0).shape[0] >= k + 1)
        from repro.core.compare import KMeans

        labels = KMeans(n_clusters=k, n_init=2, random_state=0).fit_predict(x)
        assume(np.unique(labels).size == k)
        names = [f"f{j}" for j in range(x.shape[1])]
        report = compare_partitions(x, labels, x, labels, names,
                                    match_threshold=1e-6)
        assert len(report.matches) == k
        assert not report.emerging and not report.vanished
        assert report.mean_centroid_drift == pytest.approx(0.0, abs=1e-9)
        assert all(m.membership_overlap == 1.0 for m in report.matches)
