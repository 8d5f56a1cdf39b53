"""Tests for the bounded-memory online accumulators."""

import numpy as np
import pytest

from repro.core.rca import rsca
from repro.stream import (
    HourlyBatch,
    IncrementalRSCA,
    RunningTotals,
    SlidingWindowTensor,
    load_state,
    save_state,
)

SERVICES = ("a", "b", "c")
HOUR0 = np.datetime64("2023-01-09T00", "h")


def hour(k: int) -> np.datetime64:
    return HOUR0 + np.timedelta64(k, "h")


def make_stream(n_hours=10, n_antennas=5, seed=0):
    """Deterministic random batches over a fixed antenna population."""
    rng = np.random.default_rng(seed)
    ids = np.arange(n_antennas)
    return [
        HourlyBatch(
            hour=hour(t),
            antenna_ids=ids,
            traffic=rng.lognormal(0.0, 1.0, size=(n_antennas, len(SERVICES))),
            service_names=SERVICES,
        )
        for t in range(n_hours)
    ]


class TestRunningTotals:
    def test_accumulates_exact_sums(self):
        batches = make_stream()
        acc = RunningTotals(SERVICES)
        for batch in batches:
            acc.update(batch)
        expected = np.sum([b.traffic for b in batches], axis=0)
        np.testing.assert_allclose(acc.totals(), expected, rtol=1e-12)
        np.testing.assert_allclose(acc.row_totals(), expected.sum(axis=1),
                                   rtol=1e-12)
        np.testing.assert_allclose(acc.col_totals(), expected.sum(axis=0),
                                   rtol=1e-12)
        assert acc.grand_total == pytest.approx(expected.sum())
        assert acc.hours_seen == len(batches)
        assert acc.last_hour == batches[-1].hour

    def test_registers_new_antennas_in_first_seen_order(self):
        acc = RunningTotals(SERVICES)
        first = acc.update(HourlyBatch(hour(0), np.array([7, 3]),
                                       np.ones((2, 3)), SERVICES))
        second = acc.update(HourlyBatch(hour(1), np.array([3, 9]),
                                        np.ones((2, 3)), SERVICES))
        assert first == [7, 3]
        assert second == [9]
        np.testing.assert_array_equal(acc.antenna_ids(), [7, 3, 9])
        assert acc.row_of(9) == 2
        # antenna 3 reported twice, 7 and 9 once each
        np.testing.assert_allclose(acc.row_totals(), [3.0, 6.0, 3.0])

    def test_growth_beyond_initial_capacity(self):
        acc = RunningTotals(SERVICES)
        ids = np.arange(500)
        acc.update(HourlyBatch(hour(0), ids, np.ones((500, 3)), SERVICES))
        assert acc.n_antennas == 500
        np.testing.assert_allclose(acc.totals(), np.ones((500, 3)))

    @pytest.mark.parametrize("make", [
        lambda: IncrementalRSCA(SERVICES),
        lambda: SlidingWindowTensor(SERVICES, window_hours=4),
    ], ids=["totals", "window"])
    def test_one_batch_of_new_antennas_grows_once(self, make, monkeypatch):
        acc = make()
        grown = []
        grow = type(acc)._grow_arrays

        def counting_grow(self, new_capacity):
            grown.append(new_capacity)
            grow(self, new_capacity)

        monkeypatch.setattr(type(acc), "_grow_arrays", counting_grow)
        traffic = np.arange(3000.0).reshape(1000, 3) + 1.0
        acc.update(HourlyBatch(hour(0), np.arange(1000), traffic, SERVICES))
        assert grown == [1000]
        acc.update(HourlyBatch(hour(1), np.arange(1000, 1003),
                               np.ones((3, 3)), SERVICES))
        assert grown == [1000, 2000]
        assert acc.antenna_ids().tolist() == list(range(1003))

    def test_rejects_out_of_order_hours(self):
        acc = RunningTotals(SERVICES)
        acc.update(HourlyBatch(hour(5), np.array([0]), np.ones((1, 3)),
                               SERVICES))
        with pytest.raises(ValueError, match="increasing hour order"):
            acc.update(HourlyBatch(hour(5), np.array([0]), np.ones((1, 3)),
                                   SERVICES))

    def test_rejects_service_mismatch(self):
        acc = RunningTotals(SERVICES)
        with pytest.raises(ValueError, match="service columns"):
            acc.update(HourlyBatch(hour(0), np.array([0]), np.ones((1, 2)),
                                   ("a", "b")))

    def test_state_roundtrip_is_bit_exact(self, tmp_path):
        batches = make_stream(n_hours=8)
        acc = RunningTotals(SERVICES)
        for batch in batches[:4]:
            acc.update(batch)
        path = tmp_path / "totals.npz"
        save_state(path, acc.state_dict())
        restored = RunningTotals.from_state(load_state(path))
        for batch in batches[4:]:
            acc.update(batch)
            restored.update(batch)
        assert np.array_equal(acc.totals(), restored.totals())
        assert np.array_equal(acc.row_totals(), restored.row_totals())
        assert np.array_equal(acc.col_totals(), restored.col_totals())
        assert acc.grand_total == restored.grand_total
        assert acc.last_hour == restored.last_hour
        assert restored.service_names == SERVICES


class TestIncrementalRSCA:
    def test_matches_batch_transform(self):
        batches = make_stream(n_hours=12, n_antennas=8, seed=3)
        acc = IncrementalRSCA(SERVICES)
        for batch in batches:
            acc.update(batch)
        np.testing.assert_allclose(
            acc.rsca(), rsca(acc.totals()), rtol=1e-9, atol=1e-12
        )

    def test_nonzero_subset_excludes_silent_antennas(self):
        acc = IncrementalRSCA(SERVICES)
        acc.update(HourlyBatch(hour(0), np.array([0, 1]),
                               np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]]),
                               SERVICES))
        ids, features = acc.rsca_nonzero()
        np.testing.assert_array_equal(ids, [0])
        assert features.shape == (1, 3)
        # the full-matrix transform rejects the zero row
        with pytest.raises(ValueError, match="zero total traffic"):
            acc.rsca()

    def test_nonzero_features_match_batch_of_nonzero_rows(self):
        batches = make_stream(n_hours=6, n_antennas=6, seed=5)
        acc = IncrementalRSCA(SERVICES)
        for batch in batches:
            acc.update(batch)
        ids, features = acc.rsca_nonzero()
        np.testing.assert_allclose(features, rsca(acc.totals()),
                                   rtol=1e-9, atol=1e-12)


class TestSlidingWindowTensor:
    def test_holds_last_w_hours(self):
        batches = make_stream(n_hours=10, n_antennas=4, seed=1)
        win = SlidingWindowTensor(SERVICES, window_hours=4)
        for batch in batches:
            win.update(batch)
        assert win.n_resident_hours == 4
        expected_hours = [b.hour for b in batches[-4:]]
        np.testing.assert_array_equal(win.hours(), expected_hours)
        tensor = win.tensor()
        assert tensor.shape == (4, 3, 4)
        for k, batch in enumerate(batches[-4:]):
            np.testing.assert_array_equal(tensor[:, :, k], batch.traffic)
        np.testing.assert_allclose(
            win.window_totals(),
            np.sum([b.traffic for b in batches[-4:]], axis=0),
        )

    def test_partial_window(self):
        batches = make_stream(n_hours=2, n_antennas=3, seed=2)
        win = SlidingWindowTensor(SERVICES, window_hours=6)
        for batch in batches:
            win.update(batch)
        assert win.n_resident_hours == 2
        assert win.tensor().shape == (3, 3, 2)

    def test_new_antenna_mid_window_backfills_zeros(self):
        win = SlidingWindowTensor(SERVICES, window_hours=3)
        win.update(HourlyBatch(hour(0), np.array([0]),
                               np.full((1, 3), 2.0), SERVICES))
        win.update(HourlyBatch(hour(1), np.array([0, 1]),
                               np.full((2, 3), 5.0), SERVICES))
        tensor = win.tensor()
        assert tensor.shape == (2, 3, 2)
        np.testing.assert_array_equal(tensor[1, :, 0], np.zeros(3))
        np.testing.assert_array_equal(tensor[1, :, 1], np.full(3, 5.0))

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError, match="window_hours"):
            SlidingWindowTensor(SERVICES, window_hours=0)

    def test_state_roundtrip_continues_exactly(self, tmp_path):
        batches = make_stream(n_hours=12, n_antennas=5, seed=4)
        win = SlidingWindowTensor(SERVICES, window_hours=5)
        for batch in batches[:7]:
            win.update(batch)
        path = tmp_path / "window.npz"
        save_state(path, win.state_dict())
        restored = SlidingWindowTensor.from_state(load_state(path))
        assert np.array_equal(win.tensor(), restored.tensor())
        for batch in batches[7:]:
            win.update(batch)
            restored.update(batch)
        assert np.array_equal(win.tensor(), restored.tensor())
        np.testing.assert_array_equal(win.hours(), restored.hours())
        assert win.last_hour == restored.last_hour


class TestCheckpointFormat:
    def test_scalar_types_survive(self, tmp_path):
        state = {
            "arr": np.arange(4.0),
            "i": 7,
            "f": 0.1 + 0.2,
            "s": "hello",
            "flag": True,
        }
        path = tmp_path / "state.npz"
        save_state(path, state)
        back = load_state(path)
        np.testing.assert_array_equal(back["arr"], state["arr"])
        assert back["i"] == 7 and isinstance(back["i"], int)
        assert back["f"] == state["f"] and isinstance(back["f"], float)
        assert back["s"] == "hello"
        assert back["flag"] is True

    def test_rejects_unsupported_values(self, tmp_path):
        with pytest.raises(TypeError, match="unsupported"):
            save_state(tmp_path / "bad.npz", {"x": object()})
