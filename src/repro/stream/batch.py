"""The unit of online ingestion: one hour of per-antenna traffic.

A live measurement platform emits traffic in hourly increments — the
finest aggregation the paper's dataset retains (Section 3).  An
:class:`HourlyBatch` is one such increment: the traffic matrix of the
antennas that reported during one calendar hour, with explicit antenna
ids (batches need not cover the same antennas every hour — deployments
grow, probes fail) and an explicit service column order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np


@dataclass(frozen=True)
class HourlyBatch:
    """Traffic reported by a set of antennas during one hour.

    Attributes:
        hour: the calendar hour (``datetime64[h]``).
        antenna_ids: ids of the reporting antennas (unique, row order of
            ``traffic``).
        traffic: R x M non-negative traffic in MB, one row per reporting
            antenna, one column per service; stored C-contiguous, so a
            strided view (an hour sliced out of a replay tensor) is copied
            once here rather than read strided by every accumulator.
        service_names: service names in column order.
    """

    hour: np.datetime64
    antenna_ids: np.ndarray
    traffic: np.ndarray
    service_names: Tuple[str, ...]

    def __post_init__(self) -> None:
        hour = np.datetime64(self.hour, "h")
        ids = np.asarray(self.antenna_ids, dtype=np.int64)
        traffic = np.ascontiguousarray(self.traffic, dtype=float)
        names = tuple(str(s) for s in self.service_names)
        if ids.ndim != 1:
            raise ValueError(f"antenna_ids must be 1-D, got shape {ids.shape}")
        if np.unique(ids).size != ids.size:
            raise ValueError("antenna_ids must be unique within a batch")
        if traffic.ndim != 2:
            raise ValueError(f"traffic must be 2-D, got shape {traffic.shape}")
        if traffic.shape != (ids.size, len(names)):
            raise ValueError(
                f"traffic shape {traffic.shape} does not match "
                f"{ids.size} antennas x {len(names)} services"
            )
        if not np.all(np.isfinite(traffic)):
            raise ValueError("traffic contains NaN or infinite entries")
        if np.any(traffic < 0):
            raise ValueError("traffic contains negative entries")
        object.__setattr__(self, "hour", hour)
        object.__setattr__(self, "antenna_ids", ids)
        object.__setattr__(self, "traffic", traffic)
        object.__setattr__(self, "service_names", names)

    @property
    def n_rows(self) -> int:
        """Number of reporting antennas (antenna-hours) in the batch."""
        return int(self.antenna_ids.size)

    @property
    def n_services(self) -> int:
        """Number of service columns."""
        return len(self.service_names)

    def total_mb(self) -> float:
        """All traffic carried in the batch, in MB."""
        return float(self.traffic.sum())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"HourlyBatch(hour={self.hour}, rows={self.n_rows}, "
            f"services={self.n_services}, total={self.total_mb():.1f} MB)"
        )
