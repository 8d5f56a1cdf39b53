"""Interpretation analyses: environments, outdoor comparison, temporal."""

from repro.analysis.environment import (
    ContingencyTable,
    contingency,
    environment_table,
    extract_environment,
    paris_share,
)
from repro.analysis.outdoor import OutdoorComparison, classify_outdoor
from repro.analysis.association import (
    AssociationResult,
    association_test,
    chi_square_statistic,
    cramers_v,
)
from repro.analysis.drift import ClusterMatch, DriftReport, compare_partitions
from repro.analysis.report import profile_report
from repro.analysis.stability import (
    StabilityResult,
    bootstrap_stability,
    temporal_stability,
)
from repro.analysis.spatial import (
    SpatialBreakdown,
    spatial_breakdown,
)
from repro.analysis.temporal import (
    TemporalHeatmap,
    cluster_temporal_heatmap,
    service_temporal_heatmap,
)

__all__ = [
    "ContingencyTable",
    "contingency",
    "environment_table",
    "extract_environment",
    "paris_share",
    "OutdoorComparison",
    "classify_outdoor",
    "profile_report",
    "AssociationResult",
    "association_test",
    "chi_square_statistic",
    "cramers_v",
    "ClusterMatch",
    "DriftReport",
    "compare_partitions",
    "StabilityResult",
    "bootstrap_stability",
    "temporal_stability",
    "SpatialBreakdown",
    "spatial_breakdown",
    "TemporalHeatmap",
    "cluster_temporal_heatmap",
    "service_temporal_heatmap",
]
