"""The stream accumulators against their reference forms.

``tests/stream_oracle.py`` keeps the dict registry and the ``(N, M, W)``
ring that the sorted-id registry and the slot-major ring replaced.  Over
random batch sequences (antennas appearing mid-stream, antennas missing
from an hour, ids in any order, hour gaps, ring wrap-around, a one-hour
window, a checkpoint restore mid-stream) both must hold bit-identical
state at every step, and a state written by either must restore into the
other and continue exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rca import rca_from_components, rsca_from_rca
from repro.stream import HourlyBatch, IncrementalRSCA, SlidingWindowTensor
from tests import stream_oracle

SERVICES = ("a", "b", "c")
HOUR0 = np.datetime64("2023-01-09T00", "h")


@st.composite
def streams(draw):
    """(window_hours, pool of ids, batches, restore-before flags)."""
    window_hours = draw(st.sampled_from([1, 2, 3, 5]))
    pool = draw(st.lists(st.integers(-2**40, 2**40), min_size=1, max_size=12,
                         unique=True))
    n_hours = draw(st.integers(1, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    hour, batches = HOUR0, []
    for t in range(n_hours):
        hour = hour + np.timedelta64(draw(st.integers(1, 3)), "h")
        # The pool opens up hour by hour, so antennas keep appearing.
        reporting = pool[: max(1, len(pool) * (t + 1) // n_hours)]
        ids = draw(st.lists(st.sampled_from(reporting), unique=True))
        # Zero cells and whole zero rows: silent antennas stay registered.
        traffic = (rng.lognormal(0.0, 1.0, size=(len(ids), len(SERVICES)))
                   * (rng.random((len(ids), len(SERVICES))) < 0.7))
        batches.append(HourlyBatch(hour, np.array(ids, dtype=np.int64),
                                   traffic, SERVICES))
    restores = draw(st.lists(st.booleans(), min_size=n_hours,
                             max_size=n_hours))
    return window_hours, pool, batches, restores


def assert_same_state(got, want):
    """Two state dicts hold the same keys and bit-identical values."""
    got, want = got.state_dict(), want.state_dict()
    assert got.keys() == want.keys()
    for key, expected in want.items():
        actual = got[key]
        if isinstance(expected, np.ndarray):
            assert actual.dtype == expected.dtype, key
            assert actual.shape == expected.shape, key
            assert np.array_equal(actual, expected), key
        else:
            assert type(actual) is type(expected) and actual == expected, key


def assert_same_registry(got, want, pool):
    assert np.array_equal(got.antenna_ids(), want.antenna_ids())
    for aid in pool:
        if aid in want._index:
            assert got.row_of(aid) == want.row_of(aid)
        else:
            with pytest.raises(KeyError):
                got.row_of(aid)


def assert_same_window(got, want):
    assert_same_state(got, want)
    assert got.n_resident_hours == want.n_resident_hours
    assert np.array_equal(got.hours(), want.hours())
    tensor = got.tensor()
    assert tensor.flags.c_contiguous
    assert np.array_equal(tensor, want.tensor())
    assert np.array_equal(got.window_totals(), want.window_totals())


def assert_same_rsca(got, want):
    mask = want._row_totals[: want.n_antennas] > 0
    assert np.array_equal(got.nonzero_mask(), mask)
    if not mask.any():
        return
    ids, features = got.rsca_nonzero()
    expected = rsca_from_rca(rca_from_components(
        want._matrix[: want.n_antennas][mask],
        want._row_totals[: want.n_antennas][mask],
        want._col_totals, want._grand_total))
    assert np.array_equal(ids, want.antenna_ids()[mask])
    assert np.array_equal(features, expected)


@given(streams())
@settings(max_examples=150, deadline=None)
def test_accumulators_match_oracle(stream):
    window_hours, pool, batches, restores = stream
    totals = [IncrementalRSCA(SERVICES)]
    windows = [SlidingWindowTensor(SERVICES, window_hours)]
    oracle_totals = stream_oracle.RunningTotals(SERVICES)
    oracle_window = stream_oracle.SlidingWindowTensor(SERVICES, window_hours)
    for t, batch in enumerate(batches):
        if restores[t]:
            # Restore each fast accumulator from its own state and, beside
            # it, a second one from the oracle's state; all must continue
            # exactly like the oracle.
            totals = [IncrementalRSCA.from_state(totals[0].state_dict()),
                      IncrementalRSCA.from_state(oracle_totals.state_dict())]
            windows = [
                SlidingWindowTensor.from_state(windows[0].state_dict()),
                SlidingWindowTensor.from_state(oracle_window.state_dict()),
            ]
            oracle_totals = stream_oracle.RunningTotals.from_state(
                oracle_totals.state_dict())
            oracle_window = stream_oracle.SlidingWindowTensor.from_state(
                oracle_window.state_dict())
        want_new = oracle_totals.update(batch)
        assert oracle_window.update(batch) == want_new
        for acc, window in zip(totals, windows):
            assert acc.update(batch) == want_new
            assert window.update(batch) == want_new
            assert_same_state(acc, oracle_totals)
            assert_same_registry(acc, oracle_totals, pool)
            assert_same_rsca(acc, oracle_totals)
            assert_same_window(window, oracle_window)
            assert_same_registry(window, oracle_window, pool)


def test_slot_major_state_restores_into_oracle():
    rng = np.random.default_rng(4)
    window = SlidingWindowTensor(SERVICES, window_hours=3)
    for t, ids in enumerate([[9, 2], [2, 7, 5], [5], [11, 9, 2]]):
        window.update(HourlyBatch(HOUR0 + np.timedelta64(t, "h"),
                                  np.array(ids), rng.random((len(ids), 3)),
                                  SERVICES))
    restored = stream_oracle.SlidingWindowTensor.from_state(window.state_dict())
    assert_same_window(window, restored)
    batch = HourlyBatch(HOUR0 + np.timedelta64(9, "h"), np.array([7, 13]),
                        rng.random((2, 3)), SERVICES)
    assert window.update(batch) == restored.update(batch) == [13]
    assert_same_window(window, restored)
