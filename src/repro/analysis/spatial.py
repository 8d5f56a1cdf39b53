"""Spatial analysis: city and surrounding breakdowns of the clusters.

Section 5.2.2 of the paper interleaves the environment analysis with
geography: clusters 0/4 are >92% Parisian, cluster 7 is exclusively
non-capital, cluster 2 sits ~92% outside Paris, cluster 3 ~70% in Paris,
cluster 6 holds the provincial stadiums while ~60% of cluster 8 is in
Paris.  This module computes those per-cluster city mixes and the
urban/suburban/rural composition (Section 3 notes the deployments span
all three).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.datagen.antennas import Antenna
from repro.datagen.environments import Surrounding


@dataclass
class SpatialBreakdown:
    """City/surrounding composition of every cluster."""

    clusters: List[int]
    city_shares: Dict[int, Dict[str, float]]  # cluster -> city -> share
    surrounding_shares: Dict[int, Dict[Surrounding, float]]
    paris_shares: Dict[int, float]

    def top_city(self, cluster: int) -> Tuple[str, float]:
        """The city holding the largest share of a cluster."""
        shares = self.city_shares.get(cluster)
        if not shares:
            raise KeyError(f"unknown cluster {cluster}")
        city = max(shares, key=shares.get)
        return city, shares[city]

    def is_capital_cluster(self, cluster: int, threshold: float = 0.7) -> bool:
        """Whether the cluster is predominantly Parisian."""
        if cluster not in self.paris_shares:
            raise KeyError(f"unknown cluster {cluster}")
        return self.paris_shares[cluster] >= threshold

    def non_capital_clusters(self, threshold: float = 0.2) -> List[int]:
        """Clusters whose Paris share stays below ``threshold``."""
        return [
            c for c in self.clusters if self.paris_shares[c] < threshold
        ]


def spatial_breakdown(
    antennas: Sequence[Antenna], labels: Sequence[int]
) -> SpatialBreakdown:
    """Compute per-cluster city / surrounding / Paris compositions."""
    labels = np.asarray(labels, dtype=int)
    if labels.shape[0] != len(antennas):
        raise ValueError(
            f"labels length {labels.shape[0]} != {len(antennas)} antennas"
        )
    clusters = sorted(int(c) for c in np.unique(labels))
    city_shares: Dict[int, Dict[str, float]] = {}
    surrounding_shares: Dict[int, Dict[Surrounding, float]] = {}
    paris_shares: Dict[int, float] = {}
    for cluster in clusters:
        members = [a for a, l in zip(antennas, labels) if l == cluster]
        total = len(members)
        cities: Dict[str, int] = {}
        surroundings: Dict[Surrounding, int] = {}
        paris = 0
        for antenna in members:
            cities[antenna.city] = cities.get(antenna.city, 0) + 1
            surroundings[antenna.surrounding] = (
                surroundings.get(antenna.surrounding, 0) + 1
            )
            paris += int(antenna.is_paris)
        city_shares[cluster] = {c: n / total for c, n in cities.items()}
        surrounding_shares[cluster] = {
            s: n / total for s, n in surroundings.items()
        }
        paris_shares[cluster] = paris / total
    return SpatialBreakdown(
        clusters=clusters,
        city_shares=city_shares,
        surrounding_shares=surrounding_shares,
        paris_shares=paris_shares,
    )
