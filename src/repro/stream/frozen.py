"""Frozen-profile artifacts: the fitted reference a streamer classifies against.

An :class:`~repro.core.pipeline.ICNProfile` is a heavyweight object
(clustering model, dendrogram, SHAP caches).  The online path needs only
the parts that define the *reference partition*: the RSCA features and
labels of the training antennas, the per-cluster centroids, and the
surrogate forest.  :class:`FrozenProfile` captures exactly that, saves
and loads through the CRC-checked checkpoint archive
(:mod:`repro.stream.checkpoint`, so a damaged artifact fails with
:class:`~repro.relia.errors.CheckpointCorrupt`), and exposes the nearest-centroid + surrogate-forest vote in
two forms: :meth:`FrozenProfile.kernel`, the compiled inference path the
:class:`~repro.stream.profiler.StreamingProfiler` and the serving layer
classify with, and :meth:`FrozenProfile.vote`, the object-forest oracle
that kernel must equal.

Serialization stores the training features/labels and the forest's
hyper-parameters rather than the fitted trees: the from-scratch forest is
deterministic in (data, parameters, seed), so :meth:`FrozenProfile.load`
refits an identical ensemble — simpler and smaller than serializing tree
structures, at the cost of a short refit on load.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.rca import reference_rsca
from repro.ml.compiled import CompiledForest, FusedProfileKernel
from repro.ml.forest import RandomForestClassifier
from repro.relia.errors import CheckpointCorrupt
from repro.stream.checkpoint import load_state, require_keys, save_state
from repro.utils.checks import check_matrix

#: Forest constructor arguments captured in the artifact.
_FOREST_PARAMS = (
    "n_estimators",
    "max_depth",
    "min_samples_leaf",
    "max_features",
    "bootstrap",
    "random_state",
)

#: Keys every artifact holds besides its ``compiled_*`` arrays.
_ARCHIVE_KEYS = (
    "features", "labels", "antenna_ids", "clusters", "centroids", "meta",
)


@dataclass
class FrozenProfile:
    """Immutable snapshot of a fitted profile, for online classification.

    Attributes:
        features: N x M RSCA matrix the reference clustering ran on.
        labels: reference cluster label per training antenna.
        antenna_ids: antenna ids of the training rows (drift checks match
            streamed antennas against these).
        clusters: sorted distinct cluster labels.
        centroids: K x M per-cluster mean RSCA, rows ordered like
            ``clusters``.
        service_names: feature names in column order.
        surrogate: the fitted surrogate forest.
        service_totals: optional length-M network-wide per-service traffic
            totals of the reference period.  When present, the profile can
            transform *raw* per-service volumes into RSCA features
            (:meth:`rsca_of_volumes`) — the serving layer's volume-query
            path — without the caller knowing the reference mix.
        compiled: optional pre-built array-compiled surrogate (embedded in
            ``.npz`` artifacts); built lazily from the object forest when
            absent.  :meth:`kernel` bundles it with the centroids into the
            fused serving kernel.
    """

    features: np.ndarray
    labels: np.ndarray
    antenna_ids: np.ndarray
    clusters: np.ndarray
    centroids: np.ndarray
    service_names: Tuple[str, ...]
    surrogate: RandomForestClassifier
    service_totals: Optional[np.ndarray] = None
    compiled: Optional[CompiledForest] = None

    @property
    def n_clusters(self) -> int:
        """Number of reference clusters K."""
        return int(self.clusters.size)

    def compiled_forest(self) -> CompiledForest:
        """The array-compiled surrogate, compiling (and caching) on demand."""
        if self.compiled is None:
            self.compiled = self.surrogate.compile()
        return self.compiled

    def kernel(self) -> FusedProfileKernel:
        """The fused inference kernel for this profile.

        Bundles the compiled forest, the reference centroids, and the
        frozen service totals so stream and serve batches run one pass
        over contiguous arrays — ``kernel().vote`` is bit-identical to
        :meth:`vote` and ``kernel().vote_volumes`` to
        ``vote(rsca_of_volumes(...))``.
        """
        if self._kernel is None:
            self._kernel = FusedProfileKernel(
                self.compiled_forest(),
                self.clusters,
                self.centroids,
                service_totals=self.service_totals,
            )
        return self._kernel

    def __post_init__(self) -> None:
        self._kernel: Optional[FusedProfileKernel] = None

    def nearest_centroids(self, features: np.ndarray) -> np.ndarray:
        """Cluster of the closest centroid for each feature row."""
        x = check_matrix(features, "features")
        if x.shape[1] != self.centroids.shape[1]:
            raise ValueError(
                f"features have {x.shape[1]} columns, centroids have "
                f"{self.centroids.shape[1]}"
            )
        distances = np.linalg.norm(
            x[:, None, :] - self.centroids[None, :, :], axis=2
        )
        return self.clusters[np.argmin(distances, axis=1)]

    def vote(self, features: np.ndarray) -> np.ndarray:
        """Nearest-centroid + surrogate-forest vote per feature row.

        The surrogate contributes its class-probability distribution and
        the nearest centroid one full vote; the argmax decides, ties to
        the lower cluster.  The nearest centroid's score is ``1 + p`` and
        every other is a probability ``<= 1``, so the nearest centroid
        wins unless ``1 + p`` rounds to ``1.0`` and a lower cluster's
        probability is exactly ``1.0``: the forest only breaks exact
        ties.

        This is the object-forest reference the kernel must equal: every
        inference path (stream classify and drift, serve batches) votes
        through ``kernel().vote``, and this method stays on the object
        forest so tests and benchmark oracles compare the kernel against
        an independent implementation.
        """
        x = check_matrix(features, "features")
        scores = np.zeros((x.shape[0], self.n_clusters))
        proba = self.surrogate.predict_proba(x)
        cols = np.searchsorted(self.clusters, self.surrogate.classes_)
        scores[:, cols] += proba
        nearest = self.nearest_centroids(x)
        nearest_cols = np.searchsorted(self.clusters, nearest)
        scores[np.arange(x.shape[0]), nearest_cols] += 1.0
        return self.clusters[np.argmax(scores, axis=1)]

    def rsca_of_volumes(self, volumes: np.ndarray) -> np.ndarray:
        """RSCA features of raw per-service volumes vs. the reference mix.

        Applies :func:`repro.core.rca.rca_from_components` with this
        profile's frozen ``service_totals`` as the reference marginals —
        the Eq. 5 generalization: a queried antenna's service shares are
        compared against the *reference* network mix, not the query's own.

        Raises:
            ValueError: when the artifact was frozen without
                ``service_totals``, or the volumes are malformed or their
                row totals overflow (see
                :func:`repro.core.rca.reference_rsca`).
        """
        if self.service_totals is None:
            raise ValueError(
                "profile was frozen without service_totals; re-freeze with "
                "freeze_profile(..., service_totals=dataset.totals.sum(axis=0))"
            )
        return reference_rsca(volumes, self.service_totals)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def save(self, path) -> None:
        """Write the artifact through :func:`~repro.stream.checkpoint.save_state`.

        Alongside the training data and forest hyper-parameters, the
        archive embeds the array-compiled surrogate (flat ``compiled_*``
        vectors) so :meth:`load` can check that its refit reproduces the
        kernel that was frozen.
        """
        params: Dict[str, object] = {
            name: getattr(self.surrogate, name) for name in _FOREST_PARAMS
        }
        state: Dict[str, object] = {
            "features": self.features,
            "labels": self.labels,
            "antenna_ids": self.antenna_ids,
            "clusters": self.clusters,
            "centroids": self.centroids,
            "meta": json.dumps({
                "service_names": list(self.service_names),
                "surrogate_params": params,
            }),
        }
        if self.service_totals is not None:
            state["service_totals"] = self.service_totals
        state.update(self.compiled_forest().to_arrays())
        save_state(path, state, keep_backup=False)

    @classmethod
    def load(cls, path) -> "FrozenProfile":
        """Load an artifact, refitting the deterministic surrogate.

        The archive's ``compiled_*`` arrays must equal the compiled
        refit, so the served kernel, :meth:`vote` and TreeSHAP all
        describe one forest.

        Raises:
            CheckpointCorrupt: when the archive fails validation (see
                :func:`~repro.stream.checkpoint.load_state`), is a valid
                archive of another kind (a key is missing), or its
                stored kernel is absent or differs from the refit
                forest's, as in an archive frozen by a version that grew
                its trees differently; re-freeze it from the profile.
            FileNotFoundError: when no file exists at ``path``.
        """
        state = load_state(path)
        require_keys(state, path, _ARCHIVE_KEYS, "frozen profile")
        features = np.asarray(state["features"], dtype=float)
        labels = np.asarray(state["labels"], dtype=int)
        service_totals = state.get("service_totals")
        if service_totals is not None:
            service_totals = np.asarray(service_totals, dtype=float)
        stored = {
            key: value for key, value in state.items()
            if key.startswith("compiled_")
        }
        meta = json.loads(state["meta"])
        params = dict(meta["surrogate_params"])
        # JSON round-trips "sqrt"/ints/None for max_features untouched.
        surrogate = RandomForestClassifier(**params)
        surrogate.fit(features, labels)
        compiled = surrogate.compile()
        fresh = compiled.to_arrays()
        if stored.keys() != fresh.keys() or not all(
            np.array_equal(stored[key], fresh[key], equal_nan=True)
            for key in fresh
        ):
            raise CheckpointCorrupt(
                path,
                "stored compiled surrogate differs from the refit forest; "
                "re-freeze the artifact from its profile",
            )
        return cls(
            features=features,
            labels=labels,
            antenna_ids=np.asarray(state["antenna_ids"], dtype=np.int64),
            clusters=np.asarray(state["clusters"], dtype=int),
            centroids=np.asarray(state["centroids"], dtype=float),
            service_names=tuple(meta["service_names"]),
            surrogate=surrogate,
            service_totals=service_totals,
            compiled=compiled,
        )


def freeze_profile(
    profile,
    antenna_ids: Optional[Sequence[int]] = None,
    service_totals: Optional[np.ndarray] = None,
) -> FrozenProfile:
    """Snapshot an :class:`~repro.core.pipeline.ICNProfile` for streaming.

    Args:
        profile: a fitted ICN profile.
        antenna_ids: ids of the profile's rows.  Defaults to
            ``0..N-1``, which matches profiles fitted on a
            :class:`~repro.datagen.dataset.TrafficDataset` (row order is
            antenna-id order there).
        service_totals: optional network-wide per-service traffic totals
            of the reference period (``dataset.totals.sum(axis=0)``);
            required later for raw-volume queries
            (:meth:`FrozenProfile.rsca_of_volumes`).

    Returns:
        the frozen artifact, sharing the profile's fitted surrogate.
    """
    features = np.asarray(profile.features, dtype=float)
    labels = np.asarray(profile.labels, dtype=int)
    if antenna_ids is None:
        ids = np.arange(features.shape[0], dtype=np.int64)
    else:
        ids = np.asarray(antenna_ids, dtype=np.int64)
    if ids.shape != (features.shape[0],):
        raise ValueError(
            f"antenna_ids must have shape ({features.shape[0]},), "
            f"got {ids.shape}"
        )
    totals = None
    if service_totals is not None:
        totals = np.asarray(service_totals, dtype=float)
        if totals.shape != (features.shape[1],):
            raise ValueError(
                f"service_totals must have shape ({features.shape[1]},), "
                f"got {totals.shape}"
            )
    clusters = np.unique(labels)
    centroids = np.vstack(
        [features[labels == c].mean(axis=0) for c in clusters]
    )
    return FrozenProfile(
        features=features,
        labels=labels,
        antenna_ids=ids,
        clusters=clusters,
        centroids=centroids,
        service_names=tuple(profile.service_names),
        surrogate=profile.surrogate,
        service_totals=totals,
    )
