"""Checkpoint/restore of accumulator state to ``.npz``, CRC-validated.

A checkpoint is a flat mapping ``key -> array | scalar | string``; nested
components namespace their keys with ``"component."`` prefixes (e.g.
``"totals.matrix"``).  Arrays round-trip losslessly through ``savez``,
so an ingestion process restored from a checkpoint continues bit-for-bit
identically to one that never stopped.  Scalars and strings are recorded
in a JSON manifest so their Python types survive the round trip.

Durability is belt-and-braces:

* writes are atomic (assembled in a ``<path>.tmp`` sibling, installed
  with :func:`os.replace`) so a process killed mid-write can never leave
  a torn file at the destination;
* every array's CRC32 (over dtype, shape, and bytes) is recorded in the
  manifest and re-verified on load, so silent corruption *after* the
  write — a torn copy, a bad sector, an injected truncation — surfaces
  as a typed :class:`~repro.relia.errors.CheckpointCorrupt` instead of a
  raw ``zipfile``/``numpy`` exception deep inside restore;
* each successful save rotates the previous checkpoint to a ``.bak``
  sibling, and :func:`load_state_with_rollback` falls back to it when
  the primary fails validation — preserving the corrupt file as
  ``<path>.corrupt`` for autopsy.

This is the package's one ``.npz`` format: frozen profiles
(:meth:`repro.stream.FrozenProfile.save`) and datasets
(:meth:`repro.datagen.dataset.TrafficDataset.save`) are written and read
through :func:`save_state` and :func:`load_state` too.  An archive
without a format-2 manifest, such as a raw :func:`numpy.savez` file,
does not load.
"""

from __future__ import annotations

import json
import os
import shutil
import tokenize
import zipfile
import zlib
from pathlib import Path
from typing import Dict, Mapping, Sequence, Tuple

import numpy as np

from repro.obs import get_logger, get_registry
from repro.relia.errors import CheckpointCorrupt
from repro.relia.faults import fault_point, maybe_truncate_file

#: Reserved key of the JSON manifest inside the archive.
_MANIFEST_KEY = "__manifest__"

#: Current manifest layout: {"format": 2, "scalars": {...}, "crc": {...}}.
_MANIFEST_FORMAT = 2

_log = get_logger("repro.stream.checkpoint")


def _saves_counter():
    return get_registry().counter(
        "repro_checkpoint_saves_total",
        "Checkpoint files successfully written",
    )


def _loads_counter():
    """``repro_checkpoint_loads_total`` on the process registry.

    Together with :func:`_corruptions_counter` this family feeds the
    ``checkpoint-integrity`` SLO (see :func:`repro.obs.slo.default_slos`):
    the SLI is corruptions per load *attempt*, so a retry loop replaying
    one corrupt file spends budget per attempt instead of multiplying a
    single bad save into 0% compliance.
    """
    return get_registry().counter(
        "repro_checkpoint_loads_total",
        "Checkpoint load attempts that reached validation",
    )


def _corruptions_counter():
    return get_registry().counter(
        "repro_checkpoint_corruptions_total",
        "Checkpoint loads that failed CRC/manifest validation",
    )


def checkpoint_path(path) -> Path:
    """Normalize a checkpoint destination (appends ``.npz`` when missing)."""
    destination = Path(path)
    if destination.suffix != ".npz":
        destination = destination.with_name(destination.name + ".npz")
    return destination


def stored_path(path) -> Path:
    """The file :func:`load_state` reads for ``path``.

    The destination :func:`save_state` writes (``.npz`` appended when
    missing) when that file exists, else ``path`` as given (a ``.bak``
    sibling, say), so ``save_state("art", ...)`` then
    ``load_state("art")`` name one file.
    """
    destination = checkpoint_path(path)
    return destination if destination.is_file() else Path(path)


def require_keys(state: Mapping[str, object], path, keys: Sequence[str],
                 kind: str) -> None:
    """Raise :class:`CheckpointCorrupt` naming the first key ``state`` lacks.

    A valid archive of another kind (a stream checkpoint handed over
    as a frozen profile, say) fails here with one line, not a
    ``KeyError``.
    """
    for key in keys:
        if key not in state:
            raise CheckpointCorrupt(
                stored_path(path),
                f"missing key {key!r}: not a {kind} archive",
            )


def backup_path(path) -> Path:
    """The ``.bak`` sibling holding the previous good checkpoint."""
    destination = checkpoint_path(path)
    return destination.with_name(destination.name + ".bak")


def _array_crc(value: np.ndarray) -> int:
    """CRC32 over an array's dtype, shape, and raw bytes."""
    crc = zlib.crc32(str(value.dtype).encode("ascii"))
    crc = zlib.crc32(str(value.shape).encode("ascii"), crc)
    crc = zlib.crc32(np.ascontiguousarray(value).tobytes(), crc)
    return crc & 0xFFFFFFFF


def save_state(path, state: Mapping[str, object],
               keep_backup: bool = True) -> None:
    """Write a flat state mapping to a ``.npz`` checkpoint file.

    The write is atomic: the archive is assembled in a ``<path>.tmp``
    sibling and moved into place with :func:`os.replace`, so a process
    killed mid-write can never leave a torn checkpoint — the destination
    either holds the previous complete checkpoint or the new one.  The
    manifest records a CRC32 per array, verified by :func:`load_state`.

    Args:
        path: destination path (``.npz`` is appended when missing, to
            match :func:`numpy.savez_compressed`).
        state: mapping of string keys to numpy arrays, ints, floats,
            bools, or strings.
        keep_backup: rotate an existing checkpoint at the destination to
            a ``.bak`` sibling before installing the new one, enabling
            :func:`load_state_with_rollback`.
    """
    arrays: Dict[str, np.ndarray] = {}
    scalars: Dict[str, Dict[str, object]] = {}
    for key, value in state.items():
        if key == _MANIFEST_KEY:
            raise ValueError(f"{_MANIFEST_KEY!r} is a reserved key")
        if isinstance(value, np.ndarray):
            arrays[key] = value
        elif isinstance(value, (bool, np.bool_)):
            scalars[key] = {"type": "bool", "value": bool(value)}
        elif isinstance(value, (int, np.integer)):
            scalars[key] = {"type": "int", "value": int(value)}
        elif isinstance(value, (float, np.floating)):
            # repr round-trips float64 exactly (shortest-repr guarantee).
            scalars[key] = {"type": "float", "value": repr(float(value))}
        elif isinstance(value, str):
            scalars[key] = {"type": "str", "value": value}
        else:
            raise TypeError(
                f"unsupported checkpoint value for {key!r}: "
                f"{type(value).__name__}"
            )
    manifest = json.dumps({
        "format": _MANIFEST_FORMAT,
        "scalars": scalars,
        "crc": {key: _array_crc(value) for key, value in arrays.items()},
    }).encode("utf-8")
    arrays[_MANIFEST_KEY] = np.frombuffer(manifest, dtype=np.uint8)
    destination = checkpoint_path(path)
    fault_point("stream.checkpoint.write", file=destination.name)
    staging = destination.with_name(destination.name + ".tmp")
    try:
        # Writing through a file handle keeps numpy from appending a
        # suffix to the staging name.
        with open(staging, "wb") as handle:
            np.savez_compressed(handle, **arrays)
        if keep_backup and destination.exists():
            os.replace(destination, backup_path(destination))
        os.replace(staging, destination)
    finally:
        if staging.exists():
            staging.unlink()
    # Chaos hook: corrupt the installed file *after* a clean write — the
    # shape of a torn copy or bad sector that CRC validation must catch.
    maybe_truncate_file(destination, "stream.checkpoint",
                        file=destination.name)
    _saves_counter().inc()


def load_state(path) -> Dict[str, object]:
    """Read back and validate a checkpoint written by :func:`save_state`.

    ``path`` resolves like :func:`save_state`'s (see
    :func:`stored_path`), so a suffix-less name finds its ``.npz``.

    Every attempt that reaches validation bumps
    ``repro_checkpoint_loads_total``; every validation failure also
    bumps ``repro_checkpoint_corruptions_total`` (the
    ``checkpoint-integrity`` SLO's total and bad-event counts).  A
    missing file counts as neither — absence is a different condition
    from corruption and should not spend integrity budget.

    Raises:
        CheckpointCorrupt: when the file is not a readable archive, the
            manifest is missing or malformed, an array named by the
            manifest is absent, or any array fails its CRC check.
        FileNotFoundError: when the file does not exist (a *missing*
            checkpoint is a different condition from a corrupt one).
    """
    try:
        state = _load_state_validated(path)
    except CheckpointCorrupt:
        _loads_counter().inc()
        _corruptions_counter().inc()
        raise
    _loads_counter().inc()
    return state


def _load_state_validated(path) -> Dict[str, object]:
    path = stored_path(path)
    if not path.exists():
        raise FileNotFoundError(f"no checkpoint at {path}")
    state: Dict[str, object] = {}
    try:
        with np.load(path, allow_pickle=False) as archive:
            if _MANIFEST_KEY not in archive.files:
                raise CheckpointCorrupt(path, "missing manifest")
            manifest_raw = archive[_MANIFEST_KEY]
            manifest = json.loads(
                bytes(manifest_raw.tobytes()).decode("utf-8")
            )
            for key in archive.files:
                if key != _MANIFEST_KEY:
                    state[key] = archive[key]
    except CheckpointCorrupt:
        raise
    except (zipfile.BadZipFile, zlib.error, OSError, EOFError, KeyError,
            ValueError, NotImplementedError, tokenize.TokenError) as exc:
        # zipfile raises NotImplementedError for a damaged central
        # directory entry that reads as an unsupported zip version, and
        # numpy's header parser TokenError for a garbled array header.
        raise CheckpointCorrupt(
            path, f"unreadable archive ({type(exc).__name__}: {exc})"
        ) from exc
    if not isinstance(manifest, dict) or manifest.get("format") != _MANIFEST_FORMAT:
        raise CheckpointCorrupt(path, "unknown manifest format")
    scalars = manifest.get("scalars", {})
    for key, expected in manifest.get("crc", {}).items():
        if key not in state:
            raise CheckpointCorrupt(path, f"missing array {key!r}")
        actual = _array_crc(state[key])
        if actual != int(expected):
            raise CheckpointCorrupt(
                path,
                f"crc mismatch for {key!r} "
                f"(expected {int(expected)}, got {actual})",
            )
    for key, entry in scalars.items():
        kind, value = entry["type"], entry["value"]
        if kind == "bool":
            state[key] = bool(value)
        elif kind == "int":
            state[key] = int(value)
        elif kind == "float":
            state[key] = float(value)
        elif kind == "str":
            state[key] = str(value)
        else:  # pragma: no cover - forward compatibility guard
            raise ValueError(f"unknown scalar type {kind!r} for {key!r}")
    return state


def load_state_with_rollback(path) -> Tuple[Dict[str, object], bool]:
    """Load a checkpoint, falling back to its ``.bak`` on corruption.

    On a corrupt primary with a valid backup: the corrupt file is
    preserved as ``<path>.corrupt`` for autopsy, the backup is promoted
    back to the primary path, and the backup's state is returned.

    Returns:
        ``(state, rolled_back)`` — ``rolled_back`` is True when the
        state came from the backup.

    Raises:
        CheckpointCorrupt: when the primary is corrupt and no valid
            backup exists (the original corruption error).
        FileNotFoundError: when neither file exists.
    """
    primary = checkpoint_path(path)
    try:
        return load_state(primary), False
    except CheckpointCorrupt as primary_error:
        backup = backup_path(primary)
        try:
            state = load_state(backup)
        except (CheckpointCorrupt, FileNotFoundError):
            raise primary_error
        autopsy = primary.with_name(primary.name + ".corrupt")
        os.replace(primary, autopsy)
        shutil.copy2(backup, primary)
        _log.error(
            "checkpoint_rollback", path=str(primary),
            reason=primary_error.reason, backup=str(backup),
            corrupt_saved_as=str(autopsy),
        )
        return state, True


def split_namespace(
    state: Mapping[str, object], prefix: str
) -> Dict[str, object]:
    """Extract one component's sub-state from a namespaced checkpoint."""
    marker = prefix + "."
    sub = {
        key[len(marker):]: value
        for key, value in state.items()
        if key.startswith(marker)
    }
    if not sub:
        raise KeyError(f"checkpoint has no {prefix!r} component")
    return sub


def merge_namespaces(
    components: Mapping[str, Mapping[str, object]]
) -> Dict[str, object]:
    """Combine component states into one namespaced flat mapping."""
    merged: Dict[str, object] = {}
    for prefix, sub in components.items():
        for key, value in sub.items():
            merged[f"{prefix}.{key}"] = value
    return merged
