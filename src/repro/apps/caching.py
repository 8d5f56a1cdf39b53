"""Cluster-aware content caching (paper Section 7).

The paper lists "content caching according to the insights provided by
our analysis" as a direct application: cache at the indoor edge the
content of the services the environment actually over-uses.  This module
estimates per-cluster cache hit potential from the traffic mix, selects
the services to cache under a budget, and compares the cluster-aware
policy against a global (popularity-only) policy — the quantitative case
for environment-aware caching.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.datagen.services import ServiceCatalog, ServiceCategory
from repro.utils.checks import check_matrix, check_probability

#: Fraction of a service's traffic that is cacheable at the edge, per
#: category: streaming/music/distribution bodies cache well; interactive
#: and conversational traffic does not.
DEFAULT_CACHEABILITY: Dict[ServiceCategory, float] = {
    ServiceCategory.VIDEO_STREAMING: 0.85,
    ServiceCategory.MUSIC: 0.80,
    ServiceCategory.DIGITAL_DISTRIBUTION: 0.95,
    ServiceCategory.SOCIAL: 0.45,
    ServiceCategory.ENTERTAINMENT: 0.50,
    ServiceCategory.NEWS: 0.55,
    ServiceCategory.SPORTS: 0.50,
    ServiceCategory.WEB: 0.40,
    ServiceCategory.SHOPPING: 0.35,
    ServiceCategory.GAMING: 0.50,
    ServiceCategory.CLOUD: 0.20,
    ServiceCategory.EMAIL: 0.05,
    ServiceCategory.MESSAGING: 0.05,
    ServiceCategory.BUSINESS: 0.10,
    ServiceCategory.NAVIGATION: 0.30,
    ServiceCategory.WELLBEING: 0.20,
}


@dataclass(frozen=True)
class CachePlan:
    """Caching decision for one cluster."""

    cluster: int
    cached_services: Tuple[str, ...]
    hit_fraction: float  # fraction of the cluster's traffic served locally

    def __post_init__(self) -> None:
        check_probability(self.hit_fraction, "hit_fraction")


def cacheable_fractions(catalog: ServiceCatalog) -> np.ndarray:
    """Per-service cacheable-traffic fraction, column order."""
    return np.array([
        DEFAULT_CACHEABILITY.get(svc.category, 0.3) for svc in catalog
    ])


def plan_cluster_cache(
    totals: np.ndarray,
    labels: Sequence[int],
    cluster: int,
    catalog: ServiceCatalog,
    budget: int = 10,
) -> CachePlan:
    """Select the ``budget`` services to cache for one cluster.

    Services are ranked by cacheable traffic volume *within the cluster*;
    the hit fraction is the cacheable share of the cluster's total
    traffic covered by the selection.
    """
    matrix = check_matrix(totals, "totals", non_negative=True)
    labels = np.asarray(labels, dtype=int)
    if labels.shape[0] != matrix.shape[0]:
        raise ValueError(
            f"labels length {labels.shape[0]} != rows {matrix.shape[0]}"
        )
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    members = labels == cluster
    if not np.any(members):
        raise ValueError(f"cluster {cluster} has no member antennas")
    cluster_traffic = matrix[members].sum(axis=0)
    cacheable = cluster_traffic * cacheable_fractions(catalog)
    order = np.argsort(cacheable)[::-1][:budget]
    hit = float(cacheable[order].sum() / cluster_traffic.sum())
    return CachePlan(
        cluster=int(cluster),
        cached_services=tuple(catalog.names[j] for j in order),
        hit_fraction=hit,
    )


def plan_all_caches(
    totals: np.ndarray,
    labels: Sequence[int],
    catalog: ServiceCatalog,
    budget: int = 10,
) -> Dict[int, CachePlan]:
    """One cache plan per cluster."""
    labels = np.asarray(labels, dtype=int)
    return {
        int(cluster): plan_cluster_cache(totals, labels, int(cluster),
                                         catalog, budget)
        for cluster in np.unique(labels)
    }


def global_cache_hit(
    totals: np.ndarray,
    catalog: ServiceCatalog,
    budget: int = 10,
) -> float:
    """Hit fraction of a single nationwide (cluster-blind) selection."""
    matrix = check_matrix(totals, "totals", non_negative=True)
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    network_traffic = matrix.sum(axis=0)
    cacheable = network_traffic * cacheable_fractions(catalog)
    order = np.argsort(cacheable)[::-1][:budget]
    return float(cacheable[order].sum() / network_traffic.sum())


def cluster_aware_gain(
    totals: np.ndarray,
    labels: Sequence[int],
    catalog: ServiceCatalog,
    budget: int = 10,
) -> Tuple[float, float]:
    """Traffic-weighted hit of cluster-aware vs global caching.

    Returns ``(aware_hit, global_hit)``.  The cluster-aware policy picks
    each cluster's own top services, so specialized environments (offices,
    stadiums) get caches matching their demand instead of the nationwide
    mix — the paper's environment-aware orchestration argument.
    """
    matrix = check_matrix(totals, "totals", non_negative=True)
    labels = np.asarray(labels, dtype=int)
    plans = plan_all_caches(matrix, labels, catalog, budget)
    cluster_traffic = {
        int(c): float(matrix[labels == c].sum()) for c in np.unique(labels)
    }
    total = sum(cluster_traffic.values())
    aware = sum(
        plans[c].hit_fraction * cluster_traffic[c] for c in plans
    ) / total
    # The global policy serves every cluster with one selection, so its
    # traffic-weighted hit over the clusters is the nationwide hit.
    return float(aware), global_cache_hit(matrix, catalog, budget)
