"""Checkpoint corruption surfaces typed, rolls back, and stays bit-exact."""

import json
import os

import numpy as np
import pytest

from repro.relia import CheckpointCorrupt, FaultPlan, inject
from repro.stream import StreamingProfiler
from repro.stream.batch import HourlyBatch
from repro.stream.checkpoint import (
    backup_path,
    checkpoint_path,
    load_state,
    load_state_with_rollback,
    save_state,
)

from tests.conftest import build_frozen_profile

STATE = {
    "totals.matrix": np.arange(12, dtype=float).reshape(3, 4),
    "ids": np.array([3, 1, 4], dtype=np.int64),
    "count": 7,
    "rate": 0.1 + 0.2,  # a float whose repr matters
    "frozen": True,
    "note": "hello",
}


def write_checkpoint(tmp_path, state=STATE, name="ckpt"):
    path = tmp_path / name
    save_state(path, state)
    return checkpoint_path(path)


def truncate(path, keep_fraction=0.5):
    size = os.path.getsize(path)
    with open(path, "r+b") as handle:
        handle.truncate(int(size * keep_fraction))


# ----------------------------------------------------------------------
# Round trip
# ----------------------------------------------------------------------


def test_roundtrip_preserves_types_and_bits(tmp_path):
    path = write_checkpoint(tmp_path)
    state = load_state(path)
    assert set(state) == set(STATE)
    np.testing.assert_array_equal(state["totals.matrix"],
                                  STATE["totals.matrix"])
    np.testing.assert_array_equal(state["ids"], STATE["ids"])
    assert state["count"] == 7 and isinstance(state["count"], int)
    assert state["rate"] == STATE["rate"]  # exact, not approximate
    assert state["frozen"] is True
    assert state["note"] == "hello"


def test_missing_file_is_not_corruption(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_state(tmp_path / "nope.npz")
    with pytest.raises(FileNotFoundError):
        load_state_with_rollback(tmp_path / "nope.npz")


# ----------------------------------------------------------------------
# Corruption surfaces as the typed error, never a raw zipfile/numpy one
# ----------------------------------------------------------------------


@pytest.mark.parametrize("keep_fraction", [0.0, 0.3, 0.9])
def test_truncation_raises_checkpoint_corrupt(tmp_path, keep_fraction):
    path = write_checkpoint(tmp_path)
    truncate(path, keep_fraction)
    with pytest.raises(CheckpointCorrupt) as excinfo:
        load_state(path)
    assert excinfo.value.path == str(path)
    assert excinfo.value.reason


def test_bit_flip_fails_the_crc_check(tmp_path):
    path = write_checkpoint(tmp_path)
    blob = bytearray(path.read_bytes())
    # Flip one bit in the middle of the archive payload.
    blob[len(blob) // 2] ^= 0x40
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointCorrupt):
        load_state(path)


def assert_bit_identical(state, expected):
    assert set(state) == set(expected)
    for key, value in expected.items():
        if isinstance(value, np.ndarray):
            assert state[key].dtype == value.dtype
            assert state[key].shape == value.shape
            assert state[key].tobytes() == value.tobytes()
        else:
            assert type(state[key]) is type(value) and state[key] == value


def test_every_byte_flip_and_truncation_loads_exactly_or_rolls_back(tmp_path):
    # Every single-byte flip and every truncation of the checkpoint either
    # changes nothing the loader returns or surfaces as CheckpointCorrupt,
    # which rollback answers with the backup; no other exception escapes.
    previous = {"v": 1}
    path = write_checkpoint(tmp_path, previous, name="sweep")
    save_state(path, STATE)
    blob = path.read_bytes()
    corruptions = [blob[:length] for length in range(len(blob))]
    for offset in range(len(blob)):
        flipped = bytearray(blob)
        flipped[offset] ^= 0xFF
        corruptions.append(bytes(flipped))
    for corrupt in corruptions:
        path.write_bytes(corrupt)
        state, rolled_back = load_state_with_rollback(path)
        if rolled_back:
            assert state == previous
        else:
            assert_bit_identical(state, STATE)


def test_garbage_file_raises_checkpoint_corrupt(tmp_path):
    path = tmp_path / "garbage.npz"
    path.write_bytes(b"this was never an archive")
    with pytest.raises(CheckpointCorrupt):
        load_state(path)


def test_archive_without_manifest_is_corrupt(tmp_path):
    path = tmp_path / "plain.npz"
    np.savez_compressed(path, a=np.arange(3))
    with pytest.raises(CheckpointCorrupt, match="missing manifest"):
        load_state(path)


def test_legacy_format1_checkpoint_is_corrupt(tmp_path):
    # Pre-CRC checkpoints carried a bare scalars dict as the manifest;
    # with no CRC to check, they are not read.
    path = tmp_path / "legacy.npz"
    manifest = json.dumps({"count": {"type": "int", "value": 7}})
    np.savez_compressed(
        path,
        data=np.arange(4, dtype=float),
        __manifest__=np.frombuffer(manifest.encode("utf-8"), dtype=np.uint8),
    )
    with pytest.raises(CheckpointCorrupt, match="unknown manifest format"):
        load_state(path)


# ----------------------------------------------------------------------
# Backup rotation and rollback
# ----------------------------------------------------------------------


def test_second_save_rotates_a_backup(tmp_path):
    path = write_checkpoint(tmp_path, {"v": 1})
    assert not backup_path(path).exists()
    save_state(path, {"v": 2})
    assert load_state(path)["v"] == 2
    assert load_state(backup_path(path))["v"] == 1


def test_rollback_restores_backup_and_keeps_autopsy(tmp_path):
    path = write_checkpoint(tmp_path, {"v": 1})
    save_state(path, {"v": 2})
    truncate(path)
    state, rolled_back = load_state_with_rollback(path)
    assert rolled_back and state["v"] == 1
    # The corrupt file is preserved for autopsy, and the primary path
    # holds the promoted backup so later loads succeed directly.
    assert path.with_name(path.name + ".corrupt").exists()
    clean_state, again = load_state_with_rollback(path)
    assert not again and clean_state["v"] == 1


def test_rollback_without_backup_reraises_corruption(tmp_path):
    path = write_checkpoint(tmp_path, {"v": 1}, name="solo")
    truncate(path)
    with pytest.raises(CheckpointCorrupt):
        load_state_with_rollback(path)


def test_rollback_with_corrupt_backup_reraises_primary_error(tmp_path):
    path = write_checkpoint(tmp_path, {"v": 1})
    save_state(path, {"v": 2})
    truncate(path)
    truncate(backup_path(path))
    with pytest.raises(CheckpointCorrupt) as excinfo:
        load_state_with_rollback(path)
    assert excinfo.value.path == str(path)


# ----------------------------------------------------------------------
# Through the profiler (the user-visible restore path)
# ----------------------------------------------------------------------


def make_batches(frozen, n_hours=6, seed=0):
    gen = np.random.default_rng(seed)
    n_antennas = frozen.features.shape[0]
    start = np.datetime64("2023-01-09T00", "h")
    return [
        HourlyBatch(
            hour=start + np.timedelta64(t, "h"),
            antenna_ids=np.arange(n_antennas, dtype=np.int64),
            traffic=gen.lognormal(0.0, 1.0,
                                  size=(n_antennas, len(frozen.service_names))),
            service_names=tuple(frozen.service_names),
        )
        for t in range(n_hours)
    ]


@pytest.fixture(scope="module")
def tiny_frozen_profile():
    frozen, _totals = build_frozen_profile(n_antennas=24, n_services=5,
                                           n_clusters=3)
    return frozen


def test_profiler_restore_rolls_back_to_previous_checkpoint(
    tmp_path, tiny_frozen_profile
):
    frozen = tiny_frozen_profile
    batches = make_batches(frozen)
    profiler = StreamingProfiler(frozen, classify_every=0)
    path = tmp_path / "stream"
    for batch in batches[:3]:
        profiler.ingest(batch)
    profiler.checkpoint(path)
    mid_state = dict(profiler.totals.state_dict())
    for batch in batches[3:]:
        profiler.ingest(batch)
    profiler.checkpoint(path)
    truncate(checkpoint_path(path))

    with pytest.raises(CheckpointCorrupt):
        StreamingProfiler.restore(path, frozen, rollback=False)

    restored = StreamingProfiler.restore(path, frozen)
    np.testing.assert_array_equal(
        restored.totals.state_dict()["matrix"], mid_state["matrix"]
    )
    # Catch-up re-ingestion continues bit-exactly from the rolled-back
    # point: the final accumulators equal an uninterrupted run's.
    for batch in batches[3:]:
        restored.ingest(batch)
    np.testing.assert_array_equal(
        restored.totals.state_dict()["matrix"],
        profiler.totals.state_dict()["matrix"],
    )


def test_chaos_truncation_site_composes_with_rollback(
    tmp_path, tiny_frozen_profile
):
    # The full loop the chaos scenario exercises: a truncate rule fires
    # on the *second* save, and restore transparently rolls back.
    frozen = tiny_frozen_profile
    batches = make_batches(frozen)
    profiler = StreamingProfiler(frozen, classify_every=0)
    path = tmp_path / "stream"
    plan = FaultPlan().add("stream.checkpoint", "truncate",
                           times=1, skip=1, fraction=0.4)
    with inject(plan):
        for batch in batches[:3]:
            profiler.ingest(batch)
        profiler.checkpoint(path)          # clean save (skipped by rule)
        mid_state = dict(profiler.totals.state_dict())
        for batch in batches[3:]:
            profiler.ingest(batch)
        profiler.checkpoint(path)          # truncated by the rule
    assert plan.injected_total("stream.checkpoint", "truncate") == 1
    restored = StreamingProfiler.restore(path, frozen)
    np.testing.assert_array_equal(
        restored.totals.state_dict()["matrix"], mid_state["matrix"]
    )
