"""Frozen profiles and datasets share the checkpoint archive format.

A damaged or pre-format archive must fail with ``CheckpointCorrupt``,
never with a raw ``zipfile``/``zlib``/``numpy`` exception, and never load
as something other than what was saved.  A save interrupted before its
rename must leave the previous archive loadable.
"""

import numpy as np
import pytest

from repro.datagen.dataset import TrafficDataset, generate_dataset
from repro.relia import CheckpointCorrupt, FaultPlan, WorkerCrash, inject
from repro.stream import FrozenProfile
from repro.stream import checkpoint as checkpoint_module
from repro.stream.checkpoint import load_state
from repro.stream.frozen import _FOREST_PARAMS

from tests.conftest import build_frozen_profile, scaled_specs

#: Truncations and single-bit flips per archive in the fuzz.
N_CASES = 300


def assert_same_frozen(loaded, frozen):
    for name in ("features", "labels", "antenna_ids", "clusters",
                 "centroids", "service_totals"):
        np.testing.assert_array_equal(getattr(loaded, name),
                                      getattr(frozen, name))
    assert loaded.service_names == frozen.service_names
    for name in _FOREST_PARAMS:
        assert getattr(loaded.surrogate, name) == getattr(frozen.surrogate,
                                                          name)
    stored = loaded.compiled_forest().to_arrays()
    for key, value in frozen.compiled_forest().to_arrays().items():
        np.testing.assert_array_equal(stored[key], value)
    np.testing.assert_array_equal(loaded.kernel().vote(frozen.features),
                                  frozen.kernel().vote(frozen.features))


def assert_same_dataset(loaded, dataset):
    np.testing.assert_array_equal(loaded.totals, dataset.totals)
    assert loaded.antennas == dataset.antennas
    assert loaded.sites == dataset.sites
    assert loaded.calendar == dataset.calendar
    assert loaded.master_seed == dataset.master_seed


ARCHIVES = {
    "frozen": (lambda: build_frozen_profile()[0], FrozenProfile.load,
               assert_same_frozen),
    "dataset": (lambda: generate_dataset(master_seed=2,
                                         specs=scaled_specs(0.02)),
                TrafficDataset.load, assert_same_dataset),
}


@pytest.fixture(scope="module", params=sorted(ARCHIVES))
def archive(request):
    """``(original, load, assert_same)`` for one archive kind."""
    build, load, assert_same = ARCHIVES[request.param]
    return build(), load, assert_same


def corruptions(blob, seed):
    """``N_CASES`` truncations, then ``N_CASES`` single-bit flips."""
    gen = np.random.default_rng(seed)
    for length in gen.integers(0, len(blob), N_CASES):
        yield blob[:length]
    for offset, bit in zip(gen.integers(0, len(blob), N_CASES),
                           gen.integers(0, 8, N_CASES)):
        flipped = bytearray(blob)
        flipped[offset] ^= 1 << int(bit)
        yield bytes(flipped)


def test_fuzzed_archive_is_corrupt_or_identical(archive, tmp_path):
    original, load, assert_same = archive
    path = tmp_path / "archive.npz"
    original.save(path)
    blob = path.read_bytes()
    outcomes = {"corrupt": 0, "loaded": 0}
    for corrupt in corruptions(blob, seed=0):
        path.write_bytes(corrupt)
        try:
            loaded = load(path)
        except CheckpointCorrupt as exc:
            assert exc.path == str(path)
            outcomes["corrupt"] += 1
        else:
            assert_same(loaded, original)
            outcomes["loaded"] += 1
    assert outcomes["corrupt"] >= N_CASES  # every truncation, at least


def test_interrupted_save_keeps_the_previous_archive(archive, tmp_path,
                                                     monkeypatch):
    original, load, assert_same = archive
    path = tmp_path / "archive.npz"
    original.save(path)

    def failing_replace(src, dst):
        raise OSError("disk went away before the rename")

    monkeypatch.setattr(checkpoint_module.os, "replace", failing_replace)
    with pytest.raises(OSError, match="before the rename"):
        original.save(path)
    monkeypatch.undo()
    with inject(FaultPlan().add("stream.checkpoint.write", "crash")):
        with pytest.raises(WorkerCrash):
            original.save(path)
    assert [p.name for p in tmp_path.iterdir()] == ["archive.npz"]
    assert_same(load(path), original)


def test_pre_change_archive_is_rejected(archive, tmp_path):
    # The layout written before archives went through save_state: the
    # same arrays plus a uint8 JSON "meta" array, and no manifest.
    original, load, _ = archive
    path = tmp_path / "archive.npz"
    original.save(path)
    state = load_state(path)
    arrays = {key: value for key, value in state.items()
              if isinstance(value, np.ndarray)}
    arrays["meta"] = np.frombuffer(state["meta"].encode("utf-8"),
                                   dtype=np.uint8)
    legacy = tmp_path / "legacy.npz"
    np.savez_compressed(legacy, **arrays)
    with pytest.raises(CheckpointCorrupt, match="missing manifest"):
        load(legacy)

