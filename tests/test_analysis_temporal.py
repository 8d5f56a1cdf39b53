"""Tests for the temporal heatmaps and pattern detectors (Figs. 10-11)."""

import numpy as np
import pytest

from repro.analysis.temporal import (
    TemporalHeatmap,
    cluster_temporal_heatmap,
    service_temporal_heatmap,
)
from repro.datagen.calendar import STRIKE_DAY


def synthetic_heatmap(pattern: str) -> TemporalHeatmap:
    """Hand-built heatmaps with known patterns for detector tests."""
    dates = np.arange(
        np.datetime64("2023-01-04"), np.datetime64("2023-01-25")
    )
    values = np.zeros((dates.size, 24))
    dows = (dates.astype("datetime64[D]").view("int64") + 3) % 7
    if pattern == "commute":
        for i, dow in enumerate(dows):
            scale = 0.2 if dow >= 5 else 1.0
            if dates[i] == STRIKE_DAY:
                scale = 0.05
            values[i, 8] = scale
            values[i, 18] = 0.9 * scale
            values[i, 13] = 0.3 * scale
            values[i, 3] = 0.05 * scale
    elif pattern == "office":
        for i, dow in enumerate(dows):
            scale = 0.1 if dow >= 5 else 1.0
            values[i, 9:18] = scale
            values[i, 20] = 0.1 * scale
    elif pattern == "event":
        values[:, 12] = 0.05
        values[3, 20] = 1.0  # a single burst evening
    elif pattern == "night":
        values[:, 23] = 1.0
        values[:, 2] = 0.8
        values[:, 14] = 0.4
    return TemporalHeatmap(values=values, dates=dates, cluster=0)


class TestDetectors:
    def test_bimodal_commute_detected(self):
        assert synthetic_heatmap("commute").is_bimodal_commute()

    def test_office_not_commute(self):
        assert not synthetic_heatmap("office").is_bimodal_commute()

    def test_weekend_ratio(self):
        hm = synthetic_heatmap("commute")
        assert hm.weekend_weekday_ratio() < 0.4
        assert synthetic_heatmap("event").weekend_weekday_ratio() > 0.5

    def test_strike_suppression(self):
        hm = synthetic_heatmap("commute")
        assert hm.strike_suppression() < 0.1

    def test_burstiness(self):
        assert synthetic_heatmap("event").burstiness() > 10
        assert synthetic_heatmap("office").burstiness() < 5

    def test_night_share(self):
        assert synthetic_heatmap("night").night_share() > 0.5
        assert synthetic_heatmap("office").night_share() < 0.1

    def test_business_hours_share(self):
        assert synthetic_heatmap("office").business_hours_share() > 0.9

    def test_peak_hours(self):
        peaks = synthetic_heatmap("commute").peak_hours(2)
        assert set(peaks) == {8, 18}

    def test_hour_profile_length(self):
        profile = synthetic_heatmap("office").hour_profile()
        assert profile.shape == (24,)

    def test_day_total(self):
        hm = synthetic_heatmap("event")
        assert hm.day_total(np.datetime64("2023-01-07")) == pytest.approx(1.05)
        with pytest.raises(KeyError):
            hm.day_total(np.datetime64("2023-03-01"))


class TestHeatmapConstruction:
    def test_shape_validation(self):
        with pytest.raises(ValueError, match="n_days, 24"):
            TemporalHeatmap(values=np.zeros((3, 23)),
                            dates=np.zeros(3, dtype="datetime64[D]"), cluster=0)
        with pytest.raises(ValueError, match="one date"):
            TemporalHeatmap(values=np.zeros((3, 24)),
                            dates=np.zeros(2, dtype="datetime64[D]"), cluster=0)


class TestFromDataset:
    def test_cluster_heatmap_window(self, small_dataset, small_profile):
        heatmap = cluster_temporal_heatmap(
            small_dataset, small_profile.labels, 0, max_antennas=20
        )
        assert heatmap.values.shape == (21, 24)
        assert heatmap.values.max() == pytest.approx(1.0)
        assert heatmap.service is None

    def test_commuter_cluster_patterns(self, small_dataset, small_profile):
        heatmap = cluster_temporal_heatmap(
            small_dataset, small_profile.labels, 0, max_antennas=30
        )
        assert heatmap.is_bimodal_commute()
        assert heatmap.weekend_weekday_ratio() < 0.6
        assert heatmap.strike_suppression() < 0.3

    def test_office_cluster_patterns(self, small_dataset, small_profile):
        heatmap = cluster_temporal_heatmap(
            small_dataset, small_profile.labels, 3, max_antennas=30
        )
        assert heatmap.business_hours_share() > 0.6
        assert heatmap.weekend_weekday_ratio() < 0.4

    def test_service_heatmap(self, small_dataset, small_profile):
        heatmap = service_temporal_heatmap(
            small_dataset, small_profile.labels, 0, "Spotify", max_antennas=20
        )
        assert heatmap.service == "Spotify"
        peaks = heatmap.peak_hours(4)
        assert any(7 <= p <= 9 for p in peaks)

    def test_empty_cluster_rejected(self, small_dataset, small_profile):
        with pytest.raises(ValueError, match="no member antennas"):
            cluster_temporal_heatmap(small_dataset, small_profile.labels, 77)

    def test_label_length_checked(self, small_dataset, small_profile):
        with pytest.raises(ValueError, match="labels length"):
            cluster_temporal_heatmap(
                small_dataset, small_profile.labels[:-1], 0
            )

    def test_custom_window(self, small_dataset, small_profile):
        window = small_dataset.calendar.window(
            np.datetime64("2023-01-09T00", "h"),
            np.datetime64("2023-01-15T23", "h"),
        )
        heatmap = cluster_temporal_heatmap(
            small_dataset, small_profile.labels, 1, window=window,
            max_antennas=10,
        )
        assert heatmap.values.shape == (7, 24)
