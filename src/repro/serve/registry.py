"""Versioned in-process registry of :class:`FrozenProfile` artifacts.

A serving node answers queries against exactly one profile version at a
time, but operators refit and redeploy profiles while traffic is in
flight (the "refit recommended" outcome of a drift check).  The registry
makes that hand-over safe:

* :meth:`ProfileRegistry.load` installs a new version atomically — every
  request admitted after the swap sees the new profile;
* :meth:`ProfileRegistry.acquire` pins one ``(version, profile)`` pair
  for the duration of a classification, so a single answer can never mix
  versions;
* the displaced version is *drained* gracefully: it stays valid for the
  requests already holding it and is only considered retired once its
  reference count reaches zero (:meth:`ProfileRegistry.drain` blocks on
  that).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, List, Optional

import numpy as np

from repro.stream.frozen import FrozenProfile


class _VersionHandle:
    """One installed profile version with an in-flight reference count."""

    __slots__ = ("version", "profile", "refs", "retired", "drained")

    def __init__(self, version: int, profile: FrozenProfile) -> None:
        self.version = version
        self.profile = profile
        self.refs = 0
        self.retired = False
        self.drained = threading.Event()


class ProfileRegistry:
    """Hot-swappable holder of the currently served profile version."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._current: Optional[_VersionHandle] = None
        self._retiring: Dict[int, _VersionHandle] = {}
        self._next_version = 1

    # ------------------------------------------------------------------
    # Installation / hot swap
    # ------------------------------------------------------------------

    def load(
        self,
        frozen: FrozenProfile,
        drain_timeout: Optional[float] = None,
    ) -> int:
        """Install ``frozen`` as the new current version.

        The swap itself is atomic; requests that already pinned the old
        version finish against it.  With ``drain_timeout`` set, block up
        to that many seconds until the displaced version has no readers
        left (a no-op on the first load).

        Returns:
            the version number assigned to the new profile.
        """
        if not isinstance(frozen, FrozenProfile):
            raise TypeError(
                f"expected a FrozenProfile, got {type(frozen).__name__}"
            )
        with self._lock:
            version = self._next_version
            self._next_version += 1
            displaced = self._current
            self._current = _VersionHandle(version, frozen)
            if displaced is not None:
                displaced.retired = True
                if displaced.refs == 0:
                    displaced.drained.set()
                else:
                    self._retiring[displaced.version] = displaced
        if displaced is not None and drain_timeout is not None:
            displaced.drained.wait(drain_timeout)
        return version

    # ------------------------------------------------------------------
    # Read-side access
    # ------------------------------------------------------------------

    @contextmanager
    def acquire(self):
        """Pin the current ``(version, profile)`` for one classification.

        The pinned version stays usable until the context exits even if
        a newer version is installed meanwhile; the registry only counts
        the old version drained once every such pin is released.
        """
        with self._lock:
            handle = self._current
            if handle is None:
                raise RuntimeError("no profile loaded in the registry")
            handle.refs += 1
        try:
            yield handle.version, handle.profile
        finally:
            with self._lock:
                handle.refs -= 1
                if handle.retired and handle.refs == 0:
                    handle.drained.set()
                    self._retiring.pop(handle.version, None)

    def current_version(self) -> Optional[int]:
        """Version number being served, or None before the first load."""
        with self._lock:
            return self._current.version if self._current else None

    def drain(self, version: int, timeout: Optional[float] = None) -> bool:
        """Wait until ``version`` has no in-flight readers.

        Returns True when drained (immediately for unknown or already
        drained versions), False on timeout.
        """
        with self._lock:
            if self._current is not None and self._current.version == version:
                raise ValueError(
                    f"version {version} is still current; load a replacement "
                    f"before draining it"
                )
            handle = self._retiring.get(version)
        if handle is None:
            return True
        return handle.drained.wait(timeout)

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------

    def cluster_summaries(self) -> Dict[str, object]:
        """Per-cluster occupancy and centroid of the current version.

        The occupancy is the reference partition's training population —
        the third query type a serving node answers (cluster inventory
        for capacity planning), not live stream occupancy.
        """
        with self.acquire() as (version, profile):
            clusters: List[Dict[str, object]] = []
            total = int(profile.labels.size)
            for row, cluster in enumerate(profile.clusters):
                members = int(np.sum(profile.labels == cluster))
                clusters.append(
                    {
                        "cluster": int(cluster),
                        "occupancy": members,
                        "share": members / total if total else 0.0,
                        "centroid": [
                            float(v) for v in profile.centroids[row]
                        ],
                    }
                )
            return {
                "version": version,
                "n_clusters": profile.n_clusters,
                "n_antennas": total,
                "service_names": list(profile.service_names),
                "clusters": clusters,
            }
