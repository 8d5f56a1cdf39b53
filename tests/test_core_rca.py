"""Tests for the RCA/RSCA transforms (paper Eqs. 1, 2, 5)."""

import warnings

import numpy as np
import pytest

from repro.core.rca import (
    feature_histograms,
    normalized_traffic,
    outdoor_rca,
    outdoor_rsca,
    rca,
    reference_rsca,
    rsca,
    rsca_from_rca,
)


@pytest.fixture()
def toy_totals():
    # 3 antennas x 2 services with hand-computable RCA.
    return np.array([
        [90.0, 10.0],
        [50.0, 50.0],
        [10.0, 90.0],
    ])


class TestRca:
    def test_hand_computed_values(self, toy_totals):
        values = rca(toy_totals)
        # Service totals are both 150 of a 300 grand total -> share 0.5.
        np.testing.assert_allclose(values[:, 0], [1.8, 1.0, 0.2])
        np.testing.assert_allclose(values[:, 1], [0.2, 1.0, 1.8])

    def test_uniform_antenna_has_unit_rca(self):
        totals = np.full((4, 5), 7.0)
        np.testing.assert_allclose(rca(totals), 1.0)

    def test_rca_weighted_mean_is_one(self, toy_totals):
        # sum_j share_j * RCA_ij = 1 for every antenna, by construction.
        values = rca(toy_totals)
        service_share = toy_totals.sum(axis=0) / toy_totals.sum()
        np.testing.assert_allclose(values @ service_share, 1.0)

    def test_zero_service_everywhere_yields_zero(self):
        totals = np.array([[5.0, 0.0], [3.0, 0.0]])
        values = rca(totals)
        np.testing.assert_allclose(values[:, 1], 0.0)
        np.testing.assert_allclose(values[:, 0], 1.0)

    def test_zero_antenna_rejected(self):
        with pytest.raises(ValueError, match="zero total traffic"):
            rca(np.array([[1.0, 1.0], [0.0, 0.0]]))

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            rca(np.array([[1.0, -1.0]]))

    def test_scale_invariance(self, toy_totals):
        # RCA is a share-of-share ratio: global rescaling cannot change it.
        np.testing.assert_allclose(rca(toy_totals), rca(toy_totals * 1e6))


class TestRsca:
    def test_range(self, small_dataset):
        values = rsca(small_dataset.totals)
        assert values.min() >= -1.0
        assert values.max() <= 1.0

    def test_sign_semantics(self):
        assert rsca_from_rca(np.array([2.0])) > 0  # over-utilization
        assert rsca_from_rca(np.array([0.5])) < 0  # under-utilization
        assert rsca_from_rca(np.array([1.0])) == pytest.approx(0.0)

    def test_symmetry(self):
        # RCA = x and RCA = 1/x map to opposite RSCA values.
        x = np.array([3.0])
        a = rsca_from_rca(x)
        b = rsca_from_rca(1.0 / x)
        np.testing.assert_allclose(a, -b)

    def test_monotonic(self):
        values = rsca_from_rca(np.linspace(0.0, 10.0, 50))
        assert np.all(np.diff(values) > 0)

    def test_negative_rca_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            rsca_from_rca(np.array([-0.5]))

    def test_composition(self, toy_totals):
        np.testing.assert_allclose(rsca(toy_totals),
                                   rsca_from_rca(rca(toy_totals)))


class TestOutdoorRca:
    def test_identical_mix_gives_unit_rca(self):
        indoor = np.array([[10.0, 30.0], [20.0, 60.0]])
        outdoor = np.array([[1.0, 3.0]])  # same 1:3 mix as indoor aggregate
        np.testing.assert_allclose(outdoor_rca(outdoor, indoor), 1.0)

    def test_reference_is_indoor_aggregate(self):
        indoor = np.array([[90.0, 10.0]])
        outdoor = np.array([[50.0, 50.0]])
        values = outdoor_rca(outdoor, indoor)
        # Outdoor uses service 1 at 0.5 share vs 0.1 indoors -> RCA 5.
        np.testing.assert_allclose(values, [[0.5 / 0.9, 5.0]])

    def test_rsca_range(self, small_dataset):
        antennas, totals = small_dataset.outdoor(count=50)
        values = outdoor_rsca(totals, small_dataset.totals)
        assert values.shape == (50, 73)
        assert values.min() >= -1.0 and values.max() <= 1.0

    def test_service_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="number of services"):
            outdoor_rca(np.ones((2, 3)), np.ones((2, 4)))

    def test_zero_outdoor_antenna_rejected(self):
        with pytest.raises(ValueError, match="zero total"):
            outdoor_rca(np.zeros((1, 2)), np.ones((1, 2)))


class TestReferenceRsca:
    def test_against_reference_mix(self):
        reference = np.array([90.0, 10.0])
        values = reference_rsca(np.array([[50.0, 50.0]]), reference)
        # Shares 0.5 / 0.5 against 0.9 / 0.1 -> RCA 5/9 and 5.
        np.testing.assert_allclose(values, rsca_from_rca([[5.0 / 9.0, 5.0]]))

    def test_overflowing_row_total_rejected_quietly(self):
        volumes = np.array([[1.0, 2.0], [1e308, 1e308]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"overflow.*\[1\]"):
                reference_rsca(volumes, np.ones(2))

    def test_overflowing_reference_total_rejected(self):
        with pytest.raises(ValueError, match="reference .* overflow"):
            reference_rsca(np.ones((1, 2)), np.array([1e308, 1e308]))


class TestNormalizedTraffic:
    def test_peak_is_one(self, toy_totals):
        values = normalized_traffic(toy_totals)
        assert values.max() == pytest.approx(1.0)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError, match="identically zero"):
            normalized_traffic(np.zeros((2, 2)))


class TestFeatureHistograms:
    def test_keys_and_shapes(self, small_dataset):
        hists = feature_histograms(small_dataset.totals, bins=30)
        for key in ("normalized", "rca", "rsca"):
            counts, edges = hists[key]
            assert counts.shape == (30,)
            assert edges.shape == (31,)
        assert hists["max_rca"] > 1.0

    def test_fig1_shape_claims(self, small_dataset):
        """The Fig. 1 argument: normalized traffic collapses near zero,
        RCA is skewed with a long over-utilization tail, RSCA is balanced."""
        hists = feature_histograms(small_dataset.totals, bins=40)
        norm_counts, norm_edges = hists["normalized"]
        # Most normalized-traffic mass in the first bin.
        assert norm_counts[0] > 0.8 * norm_counts.sum()
        # RCA tail: max well beyond the bulk at ~1.
        assert hists["max_rca"] > 5.0
        rsca_counts, rsca_edges = hists["rsca"]
        # RSCA spreads mass across both halves of [-1, 1].
        negative = rsca_counts[rsca_edges[:-1] < 0].sum()
        positive = rsca_counts[rsca_edges[:-1] >= 0].sum()
        assert negative > 0.15 * rsca_counts.sum()
        assert positive > 0.15 * rsca_counts.sum()

    def test_antenna_subset(self, small_dataset):
        hists = feature_histograms(small_dataset.totals,
                                   antenna_indices=np.arange(10))
        assert hists["rca"][0].sum() == 10 * 73
