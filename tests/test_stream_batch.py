"""Tests for the hourly-batch record type and the replay stream sources."""

import csv

import numpy as np
import pytest

from repro.stream import (
    HourlyBatch,
    replay_dataset,
    replay_hourly_csv,
    replay_tensor,
)

HOUR = np.datetime64("2023-01-09T00", "h")
SERVICES = ("Netflix", "Spotify", "Waze")


def make_batch(hour=HOUR, ids=(0, 1), traffic=None, services=SERVICES):
    if traffic is None:
        traffic = np.arange(len(ids) * len(services), dtype=float).reshape(
            len(ids), len(services)
        )
    return HourlyBatch(
        hour=hour,
        antenna_ids=np.asarray(ids),
        traffic=np.asarray(traffic, dtype=float),
        service_names=tuple(services),
    )


class TestHourlyBatch:
    def test_basic_properties(self):
        batch = make_batch()
        assert batch.n_rows == 2
        assert batch.n_services == 3
        assert batch.total_mb() == pytest.approx(float(np.arange(6).sum()))
        assert batch.hour == HOUR

    def test_coerces_types(self):
        batch = HourlyBatch("2023-01-09T05", [3, 4],
                            [[1, 2, 3], [4, 5, 6]], list(SERVICES))
        assert batch.antenna_ids.dtype == np.int64
        assert batch.traffic.dtype == float
        assert batch.hour == np.datetime64("2023-01-09T05", "h")

    def test_traffic_is_c_contiguous(self):
        # An hour sliced out of an (antennas, services, hours) tensor is a
        # strided view; the batch holds it contiguous, while an already
        # contiguous float matrix is kept as it is.
        tensor = np.arange(24.0).reshape(2, 3, 4)
        strided = make_batch(traffic=tensor[:, :, 1])
        assert strided.traffic.flags.c_contiguous
        assert np.array_equal(strided.traffic, tensor[:, :, 1])
        contiguous = np.ones((2, 3))
        assert make_batch(traffic=contiguous).traffic is contiguous

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError, match="unique"):
            make_batch(ids=(1, 1))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            make_batch(traffic=np.ones((3, 3)))

    def test_rejects_negative_traffic(self):
        with pytest.raises(ValueError, match="negative"):
            make_batch(traffic=-np.ones((2, 3)))

    def test_rejects_nan(self):
        traffic = np.ones((2, 3))
        traffic[0, 0] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            make_batch(traffic=traffic)


class TestReplayTensor:
    def test_yields_per_hour_batches_in_order(self):
        rng = np.random.default_rng(0)
        tensor = rng.uniform(size=(4, 3, 5))
        hours = np.arange(HOUR, HOUR + np.timedelta64(5, "h"))
        batches = list(replay_tensor(tensor, hours, [10, 11, 12, 13], SERVICES))
        assert len(batches) == 5
        for t, batch in enumerate(batches):
            assert batch.hour == hours[t]
            np.testing.assert_array_equal(batch.traffic, tensor[:, :, t])
            np.testing.assert_array_equal(batch.antenna_ids, [10, 11, 12, 13])

    def test_rejects_unordered_hours(self):
        tensor = np.ones((2, 3, 2))
        hours = [HOUR, HOUR]  # not strictly increasing
        with pytest.raises(ValueError, match="strictly increasing"):
            list(replay_tensor(tensor, hours, [0, 1], SERVICES))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            list(replay_tensor(np.ones((2, 3, 4)), [HOUR], [0, 1], SERVICES))


class TestReplayDataset:
    def test_matches_hourly_synthesizer(self, small_dataset):
        window = slice(0, 6)
        ids = [0, 1, 2]
        services = ["Netflix", "Spotify"]
        batches = list(
            replay_dataset(small_dataset, window=window, antenna_ids=ids,
                           services=services)
        )
        assert len(batches) == 6
        expected = {
            s: small_dataset.hourly_service(s, antenna_ids=ids, window=window)
            for s in services
        }
        for t, batch in enumerate(batches):
            assert batch.hour == small_dataset.calendar.hours[t]
            assert batch.service_names == tuple(services)
            for j, service in enumerate(services):
                np.testing.assert_allclose(
                    batch.traffic[:, j], expected[service][:, t]
                )

    def test_defaults_cover_catalog(self, small_dataset):
        batches = replay_dataset(small_dataset, window=slice(0, 1))
        batch = next(iter(batches))
        assert batch.service_names == tuple(small_dataset.service_names)
        assert batch.n_rows == small_dataset.n_antennas


class TestReplayHourlyCsv:
    def test_streams_hour_chunks(self, tmp_path):
        path = tmp_path / "hourly.csv"
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["antenna_id", "service", "timestamp",
                             "traffic_mb"])
            writer.writerow([1, "Netflix", "2023-01-09T00", "5.0"])
            writer.writerow([0, "Spotify", "2023-01-09T00", "2.0"])
            writer.writerow([1, "Netflix", "2023-01-09T00", "1.5"])
            writer.writerow([0, "Netflix", "2023-01-09T01", "3.0"])
        batches = list(replay_hourly_csv(path, ["Netflix", "Spotify"]))
        assert [b.hour for b in batches] == [
            np.datetime64("2023-01-09T00", "h"),
            np.datetime64("2023-01-09T01", "h"),
        ]
        np.testing.assert_array_equal(batches[0].antenna_ids, [0, 1])
        np.testing.assert_allclose(
            batches[0].traffic, [[0.0, 2.0], [6.5, 0.0]]
        )
        np.testing.assert_allclose(batches[1].traffic, [[3.0, 0.0]])
