"""Indoor/outdoor comparison (paper Section 5.3, Fig. 9).

Outdoor antennas near the ICN sites are transformed with the outdoor RCA
of Eq. 5 — their service shares measured against the *indoor* aggregate
mix — then classified with the surrogate random forest trained on the
indoor clustering.  The paper finds ~70% of outdoor antennas in the
general-use cluster 1, with the specialized indoor clusters nearly absent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.core.rca import outdoor_rsca
from repro.ml.forest import RandomForestClassifier
from repro.utils.checks import check_matrix


@dataclass
class OutdoorComparison:
    """Classification of outdoor antennas into the indoor clusters."""

    labels: np.ndarray  # predicted cluster per outdoor antenna
    distribution: Dict[int, float]  # cluster -> fraction of outdoor antennas

    def fraction_of(self, cluster: int) -> float:
        """Fraction of outdoor antennas assigned to one cluster."""
        return self.distribution.get(int(cluster), 0.0)

    def dominant_cluster(self) -> int:
        """The cluster that absorbs the most outdoor antennas."""
        return max(self.distribution, key=self.distribution.get)

    def fraction_in(self, clusters: Sequence[int]) -> float:
        """Combined fraction across a set of clusters (e.g. a group)."""
        return float(sum(self.fraction_of(c) for c in clusters))


def classify_outdoor(
    surrogate: RandomForestClassifier,
    outdoor_totals: np.ndarray,
    indoor_totals: np.ndarray,
    all_clusters: Optional[Sequence[int]] = None,
) -> OutdoorComparison:
    """Classify outdoor antennas via Eq. 5 RSCA + the indoor surrogate.

    Args:
        surrogate: random forest trained on the indoor RSCA -> cluster task.
        outdoor_totals: K x M outdoor totals matrix.
        indoor_totals: N x M indoor totals matrix (the Eq. 5 reference).
        all_clusters: full cluster id set for the distribution (defaults to
            the surrogate's classes), so absent clusters report 0.

    Returns:
        an :class:`OutdoorComparison` with per-cluster outdoor fractions
        (the bars of Fig. 9).
    """
    outdoor = check_matrix(outdoor_totals, "outdoor_totals", non_negative=True)
    indoor = check_matrix(indoor_totals, "indoor_totals", non_negative=True)
    features = outdoor_rsca(outdoor, indoor)
    labels = surrogate.compile().predict(features).astype(int)
    clusters = (
        [int(c) for c in surrogate.classes_]
        if all_clusters is None
        else [int(c) for c in all_clusters]
    )
    distribution = {
        cluster: float(np.mean(labels == cluster)) for cluster in clusters
    }
    return OutdoorComparison(labels=labels, distribution=distribution)
