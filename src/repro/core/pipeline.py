"""End-to-end ICN profiling pipeline (the paper's full methodology).

:class:`ICNProfiler` chains the stages of Sections 4-5: RSCA transform ->
agglomerative (Ward) clustering -> random-forest surrogate -> SHAP
explanations -> environment / outdoor / Paris-share analyses.  The fitted
result object, :class:`ICNProfile`, exposes every intermediate artefact so
examples and benchmarks can regenerate each figure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.analysis.environment import ContingencyTable, contingency, paris_share
from repro.analysis.outdoor import OutdoorComparison, classify_outdoor
from repro.core.cluster import AgglomerativeClustering, Dendrogram
from repro.core.rca import rsca
from repro.core.validation import KScanResult, scan_k
from repro.datagen.dataset import TrafficDataset
from repro.datagen.environments import EnvironmentType
from repro.explain.beeswarm import ClusterExplanation, explain_clusters
from repro.explain.treeshap import TreeExplainer
from repro.ml.forest import RandomForestClassifier
from repro.obs import span
from repro.utils.assignment import align_labels
from repro.utils.checks import check_matrix


def _aligned_labels(labels: np.ndarray, reference: Sequence[int]) -> np.ndarray:
    """``labels`` renumbered to best match ``reference`` (see align_labels)."""
    mapping = align_labels(labels, np.asarray(reference, dtype=int))
    return np.array([mapping[int(l)] for l in labels], dtype=int)


def _fit_surrogate(
    features: np.ndarray, labels: np.ndarray, like: RandomForestClassifier
) -> RandomForestClassifier:
    """A forest with ``like``'s hyper-parameters and seed, fit on the data."""
    return RandomForestClassifier(
        n_estimators=like.n_estimators,
        max_depth=like.max_depth,
        max_features=like.max_features,
        random_state=like.random_state,
    ).fit(features, labels)


@dataclass
class ICNProfile:
    """The fitted output of :class:`ICNProfiler`.

    Attributes:
        features: N x M RSCA matrix the clustering ran on.
        labels: cluster label per antenna (renumbered when fitted with
            ``align_to``; see :meth:`ICNProfiler.fit`).
        clustering: the fitted hierarchical clustering model.
        surrogate: random forest trained to imitate the clustering.
        surrogate_accuracy: surrogate's training-set agreement with the
            clustering labels (the paper's sanity requirement for Fig. 9).
        service_names: feature names in column order.
        env_types: per-antenna environment types, if a dataset was given.
        paris_mask: per-antenna Paris flags, if a dataset was given.
    """

    features: np.ndarray
    labels: np.ndarray
    clustering: AgglomerativeClustering
    surrogate: RandomForestClassifier
    surrogate_accuracy: float
    service_names: List[str]
    env_types: Optional[List[EnvironmentType]] = None
    paris_mask: Optional[np.ndarray] = None
    _explanations: Optional[Dict[int, ClusterExplanation]] = field(
        default=None, repr=False
    )

    @property
    def n_clusters(self) -> int:
        """Number of flat clusters."""
        return int(np.unique(self.labels).size)

    @property
    def dendrogram(self) -> Dendrogram:
        """The full merge hierarchy (Fig. 3)."""
        return self.clustering.dendrogram_

    def cluster_sizes(self) -> Dict[int, int]:
        """Antenna count per cluster."""
        unique, counts = np.unique(self.labels, return_counts=True)
        return {int(c): int(n) for c, n in zip(unique, counts)}

    def groups(self, n_groups: int = 3) -> Dict[int, int]:
        """Cluster -> dendrogram-group mapping (the 3 branch colours)."""
        raw_fine = self.dendrogram.cut(self.n_clusters)
        raw_groups = self.dendrogram.group_of_clusters(self.n_clusters, n_groups)
        # The profile labels may be an aligned relabelling of the raw cut;
        # translate group membership through the observed correspondence.
        mapping: Dict[int, int] = {}
        for aligned_label in np.unique(self.labels):
            members = np.flatnonzero(self.labels == aligned_label)
            raw_label = int(np.bincount(raw_fine[members]).argmax())
            mapping[int(aligned_label)] = raw_groups[raw_label]
        return mapping

    # ------------------------------------------------------------------
    # Downstream analyses
    # ------------------------------------------------------------------

    def explain(
        self, samples_per_cluster: Optional[int] = 60, random_state: int = 0
    ) -> Dict[int, ClusterExplanation]:
        """Per-cluster SHAP summaries (Fig. 5); computed once and cached."""
        if self._explanations is None:
            with span("pipeline.shap",
                      n_clusters=self.n_clusters,
                      samples_per_cluster=samples_per_cluster):
                explainer = TreeExplainer(self.surrogate)
                self._explanations = explain_clusters(
                    explainer,
                    self.features,
                    self.labels,
                    self.service_names,
                    samples_per_cluster=samples_per_cluster,
                    random_state=random_state,
                )
        return self._explanations

    def environment_table(self) -> ContingencyTable:
        """Cluster x environment contingency (Figs. 6-8)."""
        if self.env_types is None:
            raise RuntimeError(
                "environment analysis requires fitting on a TrafficDataset"
            )
        return contingency(self.labels, self.env_types)

    def paris_shares(self) -> Dict[int, float]:
        """Per-cluster fraction of Paris antennas (Section 5.2.2 remarks)."""
        if self.paris_mask is None:
            raise RuntimeError("Paris analysis requires fitting on a TrafficDataset")
        return paris_share(self.labels, self.paris_mask)

    def classify_outdoor(
        self, outdoor_totals: np.ndarray, indoor_totals: np.ndarray
    ) -> OutdoorComparison:
        """Classify outdoor antennas through the surrogate (Fig. 9)."""
        return classify_outdoor(
            self.surrogate, outdoor_totals, indoor_totals,
            all_clusters=sorted(self.cluster_sizes()),
        )

    def freeze(
        self,
        antenna_ids: Optional[Sequence[int]] = None,
        service_totals: Optional[np.ndarray] = None,
    ):
        """Export the frozen artifact the online subsystem consumes.

        Snapshots the reference partition — features, labels, centroids
        and the fitted surrogate — into a
        :class:`~repro.stream.frozen.FrozenProfile` that serializes to
        ``.npz`` and classifies streamed antennas (see ``repro.stream``).

        Args:
            antenna_ids: ids of this profile's rows; defaults to
                ``0..N-1``, matching profiles fitted on a
                :class:`~repro.datagen.dataset.TrafficDataset`.
            service_totals: network-wide per-service traffic totals of
                the reference period (``dataset.totals.sum(axis=0)``);
                enables raw-volume queries in the serving layer
                (``repro.serve``).
        """
        from repro.stream.frozen import freeze_profile

        return freeze_profile(
            self, antenna_ids=antenna_ids, service_totals=service_totals
        )

    def generalization_accuracy(
        self, test_fraction: float = 0.25, random_state: int = 0
    ) -> float:
        """Held-out accuracy of a surrogate retrained on a stratified split.

        The Fig. 9 methodology classifies *unseen* outdoor antennas with
        the surrogate, which is only meaningful if the forest generalizes
        beyond its training antennas; this measures that directly.
        """
        from repro.ml.metrics import train_test_split

        x_train, x_test, y_train, y_test = train_test_split(
            self.features, self.labels,
            test_fraction=test_fraction, random_state=random_state,
        )
        heldout = _fit_surrogate(x_train, y_train, self.surrogate)
        return heldout.score(x_test, y_test)

    def summary(self) -> str:
        """Human-readable overview of the fitted profile."""
        sizes = self.cluster_sizes()
        lines = [
            f"ICN profile: {self.features.shape[0]} antennas x "
            f"{self.features.shape[1]} services, {self.n_clusters} clusters",
            f"surrogate training accuracy: {self.surrogate_accuracy:.3f}",
            "cluster sizes: "
            + ", ".join(f"{c}:{n}" for c, n in sorted(sizes.items())),
        ]
        if self.env_types is not None:
            table = self.environment_table()
            for cluster in sorted(sizes):
                dominant = table.dominant_environment(cluster)
                share = table.composition_of(cluster)[dominant]
                lines.append(
                    f"  cluster {cluster}: dominant environment "
                    f"{dominant.value} ({share:.0%})"
                )
        return "\n".join(lines)


class ICNProfiler:
    """Front door of the reproduction: the paper's Sections 4-5 pipeline.

    Args:
        n_clusters: flat cluster count (paper selects 9).
        linkage: agglomerative criterion (paper uses Ward).
        surrogate_trees: random-forest size (paper uses 100).
        surrogate_max_depth: depth cap for the surrogate trees; depth 6
            already reaches full training accuracy on this task and keeps
            TreeSHAP an order of magnitude faster than unbounded trees.
        random_state: seed for the surrogate.
    """

    def __init__(
        self,
        n_clusters: int = 9,
        linkage: str = "ward",
        surrogate_trees: int = 100,
        surrogate_max_depth: Optional[int] = 6,
        random_state: int = 0,
    ) -> None:
        if n_clusters < 2:
            raise ValueError(f"n_clusters must be >= 2, got {n_clusters}")
        if surrogate_trees < 1:
            raise ValueError(f"surrogate_trees must be >= 1, got {surrogate_trees}")
        self.n_clusters = n_clusters
        self.linkage = linkage
        self.surrogate_trees = surrogate_trees
        self.surrogate_max_depth = surrogate_max_depth
        self.random_state = random_state
        # (linkage, RSCA matrix, linkage matrix) of the last Ward run.
        self._last_ward: Optional[Tuple[str, np.ndarray, np.ndarray]] = None

    def _cluster(self, features: np.ndarray, n_clusters: int) -> AgglomerativeClustering:
        """The clustering of ``features``, reusing the last run's linkage
        when the criterion and the matrix content are unchanged."""
        clustering = AgglomerativeClustering(n_clusters=n_clusters, linkage=self.linkage)
        last = self._last_ward
        if (last is not None and last[0] == self.linkage
                and np.array_equal(last[1], features)):
            return clustering._from_linkage(last[2].copy())
        clustering.fit(features)
        self._last_ward = (self.linkage, features.copy(),
                           clustering.linkage_matrix_.copy())
        return clustering

    def fit(
        self,
        data: Union[TrafficDataset, np.ndarray],
        align_to: Optional[Sequence[int]] = None,
    ) -> ICNProfile:
        """Run transform -> cluster -> surrogate on a dataset or matrix.

        Times the ``pipeline.rca``, ``pipeline.cluster`` and
        ``pipeline.surrogate`` stages.  With ``align_to``, the Ward labels
        are renumbered to best match the reference inside
        ``pipeline.cluster``, before the one forest fit.

        Args:
            data: a :class:`TrafficDataset`, or a raw N x M totals matrix.
            align_to: optional reference labels (e.g. the generator's
                archetypes) to renumber clusters for paper-style reporting.

        Returns:
            a fitted :class:`ICNProfile`.
        """
        if isinstance(data, TrafficDataset):
            totals = data.totals
            service_names = data.service_names
            env_types = data.environment_types()
            paris_mask = data.paris_mask()
        else:
            totals = check_matrix(data, "data", non_negative=True)
            service_names = [f"service_{j}" for j in range(totals.shape[1])]
            env_types = None
            paris_mask = None

        with span("pipeline.rca",
                  rows=int(totals.shape[0]),
                  services=int(totals.shape[1])):
            features = rsca(totals)
        with span("pipeline.cluster",
                  n_clusters=self.n_clusters, linkage=self.linkage):
            clustering = self._cluster(features, self.n_clusters)
            labels = clustering.labels_
            if align_to is not None:
                labels = _aligned_labels(labels, align_to)
        with span("pipeline.surrogate", n_estimators=self.surrogate_trees):
            surrogate = _fit_surrogate(features, labels, RandomForestClassifier(
                n_estimators=self.surrogate_trees,
                max_depth=self.surrogate_max_depth,
                random_state=self.random_state,
            ))
            accuracy = surrogate.score(features, labels)
        return ICNProfile(
            features=features,
            labels=labels,
            clustering=clustering,
            surrogate=surrogate,
            surrogate_accuracy=accuracy,
            service_names=list(service_names),
            env_types=env_types,
            paris_mask=paris_mask,
        )

    def scan_cluster_counts(
        self,
        data: Union[TrafficDataset, np.ndarray],
        ks: Sequence[int] = range(2, 16),
    ) -> KScanResult:
        """Fig. 2: validity indices over candidate k (a later fit reuses its Ward)."""
        totals = data.totals if isinstance(data, TrafficDataset) else data
        features = rsca(totals)
        return scan_k(features, self._cluster(features, 2).dendrogram_, ks=ks)
