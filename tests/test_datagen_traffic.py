"""Tests for the traffic synthesizer (totals + hourly consistency)."""

import numpy as np
import pytest

from repro.datagen.environments import EnvironmentType
from repro.datagen.services import TemporalClass


class TestTotals:
    def test_shape(self, small_dataset):
        totals = small_dataset.model.totals()
        assert totals.shape == (small_dataset.n_antennas, 73)

    def test_positive(self, small_dataset):
        assert np.all(small_dataset.model.totals() > 0)

    def test_cached(self, small_dataset):
        assert small_dataset.model.totals() is small_dataset.model.totals()

    def test_deterministic_across_instances(self, small_dataset):
        from repro.datagen.traffic import TrafficModel

        clone = TrafficModel(
            small_dataset.catalog,
            small_dataset.sites,
            small_dataset.antennas,
            small_dataset.calendar,
            master_seed=small_dataset.master_seed,
        )
        np.testing.assert_allclose(clone.totals(), small_dataset.model.totals())

    def test_shares_rows_normalized(self, small_dataset):
        shares = small_dataset.model.service_shares()
        np.testing.assert_allclose(shares.sum(axis=1), 1.0)

    def test_commuter_antennas_skew_music(self, small_dataset):
        shares = small_dataset.model.service_shares()
        arch = small_dataset.archetypes()
        spotify = small_dataset.catalog.index_of("Spotify")
        popularity = small_dataset.catalog.popularity_weights()
        commuters = shares[arch == 0][:, spotify].mean()
        offices = shares[arch == 3][:, spotify].mean()
        assert commuters > popularity[spotify]
        assert offices < popularity[spotify]

    def test_volumes_scale_with_environment(self, small_dataset):
        vols = small_dataset.model.volumes()
        env = small_dataset.environment_types()
        airport = np.median([v for v, e in zip(vols, env)
                             if e == EnvironmentType.AIRPORT])
        hotel = np.median([v for v, e in zip(vols, env)
                           if e == EnvironmentType.HOTEL])
        assert airport > hotel


class TestHourly:
    def test_hourly_sums_to_totals(self, small_dataset):
        model = small_dataset.model
        series = model.hourly_service("Spotify", antenna_ids=[0, 5, 9])
        totals = model.totals()
        np.testing.assert_allclose(
            series.sum(axis=1), totals[[0, 5, 9],
                                       small_dataset.catalog.index_of("Spotify")]
        )

    def test_hourly_window_slices(self, small_dataset):
        model = small_dataset.model
        window = small_dataset.temporal_window()
        series = model.hourly_service("Netflix", antenna_ids=[1], window=window)
        assert series.shape == (1, window.stop - window.start)

    def test_hourly_deterministic(self, small_dataset):
        model = small_dataset.model
        a = model.hourly_service("Waze", antenna_ids=[2])
        b = model.hourly_service("Waze", antenna_ids=[2])
        np.testing.assert_array_equal(a, b)

    def test_hourly_nonnegative(self, small_dataset):
        series = small_dataset.model.hourly_service("TikTok", antenna_ids=[0, 1])
        assert np.all(series >= 0)

    def test_unknown_antenna_rejected(self, small_dataset):
        with pytest.raises(KeyError, match="unknown antenna"):
            small_dataset.model.hourly_service("Waze", antenna_ids=[10**6])

    def test_unknown_service_rejected(self, small_dataset):
        with pytest.raises(KeyError, match="unknown service"):
            small_dataset.model.hourly_service("NoSuchApp", antenna_ids=[0])

    def test_hourly_total_close_to_service_sum(self, small_dataset):
        # hourly_total approximates the sum of per-service series; over the
        # full calendar both must total the antenna's volume within noise.
        model = small_dataset.model
        total_series = model.hourly_total(antenna_ids=[3])
        volume = model.totals()[3].sum()
        assert total_series.sum() == pytest.approx(volume, rel=0.05)

    def test_commute_service_peaks_at_commute_hours(self, small_dataset):
        arch = small_dataset.archetypes()
        commuter_ids = np.flatnonzero(arch == 0)[:5]
        model = small_dataset.model
        series = model.hourly_service("Spotify", antenna_ids=commuter_ids)
        hod = small_dataset.calendar.hour_of_day()
        weekday = ~small_dataset.calendar.is_weekend()
        mean = series.mean(axis=0)
        morning = mean[weekday & (hod == 8)].mean()
        night = mean[weekday & (hod == 3)].mean()
        assert morning > 5 * night

    def test_events_reflected_for_stadium_antennas(self, small_dataset):
        arch = small_dataset.archetypes()
        stadium_ids = np.flatnonzero(arch == 8)[:4]
        if stadium_ids.size == 0:
            pytest.skip("no stadium antennas in the small layout")
        model = small_dataset.model
        series = model.hourly_total(antenna_ids=stadium_ids)
        ratio = series.max(axis=1) / np.median(series, axis=1)
        assert np.all(ratio > 3)

    def test_events_attached_to_venue_sites(self, small_dataset):
        model = small_dataset.model
        venue_sites = [
            s.site_id for s in small_dataset.sites
            if s.env_type in (EnvironmentType.STADIUM, EnvironmentType.EXPO)
        ]
        other_sites = [
            s.site_id for s in small_dataset.sites
            if s.env_type not in (EnvironmentType.STADIUM, EnvironmentType.EXPO)
        ]
        assert all(model.events_for_site(sid) for sid in venue_sites)
        assert all(not model.events_for_site(sid) for sid in other_sites)
