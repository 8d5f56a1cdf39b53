"""Traffic forecasting for proactive ICN management (paper Sections 1, 7)."""

from repro.forecast.models import (
    DAY_HOURS,
    HoltWinters,
    SeasonalNaive,
    WEEK_HOURS,
    WeeklyProfile,
    mean_absolute_error,
    normalized_mae,
)
from repro.forecast.events import EventAwareProfile, event_mask_for_site
from repro.forecast.evaluate import (
    BacktestResult,
    backtest_all_clusters,
    backtest_cluster,
    best_model_per_cluster,
    cluster_hourly_series,
)

__all__ = [
    "DAY_HOURS",
    "WEEK_HOURS",
    "SeasonalNaive",
    "WeeklyProfile",
    "HoltWinters",
    "mean_absolute_error",
    "normalized_mae",
    "EventAwareProfile",
    "event_mask_for_site",
    "BacktestResult",
    "backtest_cluster",
    "backtest_all_clusters",
    "best_model_per_cluster",
    "cluster_hourly_series",
]
