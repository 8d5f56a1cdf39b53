"""Core analysis pipeline: transforms, clustering, validation, profiler."""

from repro.core.rca import (
    feature_histograms,
    normalized_traffic,
    outdoor_rca,
    outdoor_rsca,
    rca,
    rca_from_components,
    rsca,
    rsca_from_rca,
)
from repro.core.cluster import (
    AgglomerativeClustering,
    Dendrogram,
    DendrogramNode,
    linkage,
    pairwise_distances,
    threshold_for_k,
)
from repro.core.validation import (
    KScanResult,
    davies_bouldin_index,
    dunn_index,
    scan_k,
    silhouette_samples,
    silhouette_score,
)
from repro.core.spectral import SpectralClustering
from repro.core.compare import KMeans, adjusted_rand_index
from repro.core.pipeline import ICNProfile, ICNProfiler

__all__ = [
    "rca",
    "rca_from_components",
    "rsca",
    "rsca_from_rca",
    "outdoor_rca",
    "outdoor_rsca",
    "normalized_traffic",
    "feature_histograms",
    "AgglomerativeClustering",
    "Dendrogram",
    "DendrogramNode",
    "linkage",
    "threshold_for_k",
    "pairwise_distances",
    "KScanResult",
    "silhouette_score",
    "silhouette_samples",
    "dunn_index",
    "davies_bouldin_index",
    "scan_k",
    "SpectralClustering",
    "KMeans",
    "adjusted_rand_index",
    "ICNProfile",
    "ICNProfiler",
]
