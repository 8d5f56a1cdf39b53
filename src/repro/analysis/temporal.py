"""Temporal analysis (paper Section 6, Figs. 10 and 11).

For each cluster, the paper plots the *normalized median* hourly traffic
across the cluster's antennas over the 04-24 January 2023 window — total
traffic for Fig. 10 and selected key services for Fig. 11.  This module
computes those day x hour heatmaps and exposes the pattern detectors the
reproduction benchmarks assert on: commute peaks, weekend/weekday ratios,
strike-day suppression, event burstiness, and nighttime shares.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.datagen.calendar import STRIKE_DAY
from repro.datagen.dataset import TrafficDataset


@dataclass
class TemporalHeatmap:
    """Day x hour heatmap of normalized median traffic for one cluster.

    Attributes:
        values: (n_days, 24) matrix, normalized so the peak cell is 1.
        dates: the n_days calendar dates (``datetime64[D]``).
        cluster: cluster id the heatmap describes.
        service: service name, or None for total traffic (Fig. 10).
    """

    values: np.ndarray
    dates: np.ndarray
    cluster: int
    service: Optional[str] = None

    def __post_init__(self) -> None:
        if self.values.ndim != 2 or self.values.shape[1] != 24:
            raise ValueError(
                f"heatmap values must be (n_days, 24), got {self.values.shape}"
            )
        if self.values.shape[0] != self.dates.shape[0]:
            raise ValueError("one date per heatmap row is required")

    # ------------------------------------------------------------------
    # Pattern detectors
    # ------------------------------------------------------------------

    def _weekday_mask(self) -> np.ndarray:
        days = self.dates.astype("datetime64[D]").view("int64")
        return ((days + 3) % 7) < 5

    def hour_profile(self, weekdays_only: bool = True) -> np.ndarray:
        """Mean normalized traffic per hour of day (length 24)."""
        mask = self._weekday_mask() if weekdays_only else np.ones(
            self.dates.size, dtype=bool
        )
        if not np.any(mask):
            raise ValueError("no days selected for the hour profile")
        return self.values[mask].mean(axis=0)

    def peak_hours(self, top: int = 4, weekdays_only: bool = True) -> List[int]:
        """The ``top`` busiest hours of day, descending."""
        profile = self.hour_profile(weekdays_only)
        return list(np.argsort(profile)[::-1][:top])

    def is_bimodal_commute(self) -> bool:
        """Whether the weekday profile peaks in both commute windows.

        The paper's commute windows are 7:30-9:30 and 17:30-19:30; we test
        that the top hours include one from {7, 8, 9} and one from
        {17, 18, 19}, and that mid-day traffic dips below both peaks.
        """
        profile = self.hour_profile(weekdays_only=True)
        morning = profile[7:10].max()
        evening = profile[17:20].max()
        midday = profile[11:15].mean()
        night = profile[1:5].mean()
        return (
            morning > 1.3 * midday
            and evening > 1.3 * midday
            and midday > night
        )

    def weekend_weekday_ratio(self) -> float:
        """Mean weekend traffic / mean weekday traffic."""
        weekday = self._weekday_mask()
        if not np.any(weekday) or not np.any(~weekday):
            raise ValueError("window lacks either weekdays or weekend days")
        return float(self.values[~weekday].mean() / self.values[weekday].mean())

    def day_total(self, date: np.datetime64) -> float:
        """Sum of normalized traffic over one date's 24 cells."""
        date = np.datetime64(date, "D")
        matches = np.flatnonzero(self.dates == date)
        if matches.size == 0:
            raise KeyError(f"{date} not in heatmap window")
        return float(self.values[matches[0]].sum())

    def strike_suppression(self) -> float:
        """Strike-day traffic relative to other weekdays (small = strike).

        Returns day-total(19 Jan) / mean day-total(other weekdays); values
        well below 1 reproduce the paper's "negligible traffic" strike-day
        observation for the commuter clusters.
        """
        weekday = self._weekday_mask()
        strike_rows = self.dates == STRIKE_DAY
        if not np.any(strike_rows):
            raise ValueError("strike day not inside heatmap window")
        others = weekday & ~strike_rows
        strike_total = self.values[strike_rows].sum(axis=1)[0]
        other_mean = self.values[others].sum(axis=1).mean()
        if other_mean == 0:
            raise ValueError("no traffic on comparison weekdays")
        return float(strike_total / other_mean)

    def burstiness(self) -> float:
        """Peak-cell to mean-cell ratio; event-driven venues score high."""
        mean = float(self.values.mean())
        if mean == 0:
            return 0.0
        return float(self.values.max() / mean)

    def night_share(self) -> float:
        """Share of traffic in the 22:00-06:00 hours (hotel/hospital tell)."""
        night_cols = list(range(22, 24)) + list(range(0, 6))
        total = self.values.sum()
        if total == 0:
            raise ValueError("heatmap is identically zero")
        return float(self.values[:, night_cols].sum() / total)

    def business_hours_share(self) -> float:
        """Share of weekday traffic inside 9:00-18:00 (office tell)."""
        weekday = self._weekday_mask()
        weekday_values = self.values[weekday]
        total = weekday_values.sum()
        if total == 0:
            raise ValueError("no weekday traffic in heatmap")
        return float(weekday_values[:, 9:18].sum() / total)


def _to_heatmap(
    hourly: np.ndarray,
    hours: np.ndarray,
    cluster: int,
    service: Optional[str],
) -> TemporalHeatmap:
    """Median across antennas -> normalize -> reshape to days x 24."""
    if hourly.ndim != 2:
        raise ValueError(f"hourly must be (antennas, hours), got {hourly.shape}")
    median = np.median(hourly, axis=0)
    peak = median.max()
    if peak > 0:
        median = median / peak
    dates = hours.astype("datetime64[D]")
    unique_dates = np.unique(dates)
    hour_of_day = ((hours - dates) / np.timedelta64(1, "h")).astype(int)
    values = np.zeros((unique_dates.size, 24))
    counts = np.zeros((unique_dates.size, 24))
    row_index = np.searchsorted(unique_dates, dates)
    values[row_index, hour_of_day] = median
    counts[row_index, hour_of_day] = 1
    if not np.all(counts[1:-1] == 1):
        # Interior days must be complete; ragged first/last day is allowed.
        full_rows = counts.sum(axis=1)
        bad = np.flatnonzero((full_rows != 24))
        interior_bad = [b for b in bad if 0 < b < unique_dates.size - 1]
        if interior_bad:
            raise ValueError(
                f"incomplete interior days at rows {interior_bad}"
            )
    return TemporalHeatmap(
        values=values, dates=unique_dates, cluster=cluster, service=service
    )


def cluster_temporal_heatmap(
    dataset: TrafficDataset,
    labels: Sequence[int],
    cluster: int,
    window: Optional[slice] = None,
    max_antennas: Optional[int] = 400,
    random_state: int = 0,
) -> TemporalHeatmap:
    """Fig. 10 panel: normalized median total traffic of one cluster.

    Args:
        dataset: the generated dataset.
        labels: cluster label per antenna (dataset row order).
        cluster: which cluster to render.
        window: calendar slice (defaults to the paper's 04-24 Jan window).
        max_antennas: cap on sampled member antennas (median is stable well
            below full membership; None = all members).
        random_state: sampling seed.
    """
    labels = np.asarray(labels, dtype=int)
    if labels.shape[0] != dataset.n_antennas:
        raise ValueError(
            f"labels length {labels.shape[0]} != {dataset.n_antennas} antennas"
        )
    members = np.flatnonzero(labels == cluster)
    if members.size == 0:
        raise ValueError(f"cluster {cluster} has no member antennas")
    if max_antennas is not None and members.size > max_antennas:
        rng = np.random.default_rng(random_state)
        members = rng.choice(members, size=max_antennas, replace=False)
    window = window if window is not None else dataset.temporal_window()
    hourly = dataset.hourly_total(antenna_ids=members, window=window)
    hours = dataset.calendar.hours[window]
    return _to_heatmap(hourly, hours, cluster, None)


def service_temporal_heatmap(
    dataset: TrafficDataset,
    labels: Sequence[int],
    cluster: int,
    service: str,
    window: Optional[slice] = None,
    max_antennas: Optional[int] = 400,
    random_state: int = 0,
) -> TemporalHeatmap:
    """Fig. 11 panel: normalized median traffic of one service, one cluster."""
    labels = np.asarray(labels, dtype=int)
    if labels.shape[0] != dataset.n_antennas:
        raise ValueError(
            f"labels length {labels.shape[0]} != {dataset.n_antennas} antennas"
        )
    members = np.flatnonzero(labels == cluster)
    if members.size == 0:
        raise ValueError(f"cluster {cluster} has no member antennas")
    if max_antennas is not None and members.size > max_antennas:
        rng = np.random.default_rng(random_state)
        members = rng.choice(members, size=max_antennas, replace=False)
    window = window if window is not None else dataset.temporal_window()
    hourly = dataset.hourly_service(service, antenna_ids=members, window=window)
    hours = dataset.calendar.hours[window]
    return _to_heatmap(hourly, hours, cluster, service)
