"""Online profiling: classify an hourly stream against a frozen profile.

:class:`StreamingProfiler` is the online counterpart of
:class:`~repro.core.pipeline.ICNProfiler`.  It never re-clusters; instead
it folds each arriving :class:`~repro.stream.batch.HourlyBatch` into the
incremental accumulators, classifies every antenna seen so far against a
:class:`~repro.stream.frozen.FrozenProfile` (nearest-centroid +
surrogate-forest vote, through the profile's compiled kernel, which is
bit-identical to the object-forest ``FrozenProfile.vote``), reports
per-batch cluster occupancy, and raises
drift signals — via :func:`repro.analysis.drift.compare_partitions` —
when the streamed partition walks away from the frozen reference, which
is the operator's cue to re-run the batch pipeline (the "additional
clusters over time" scenario of paper Section 7).

The profiler's complete accumulator state checkpoints to ``.npz``
(:meth:`StreamingProfiler.checkpoint` / :meth:`StreamingProfiler.restore`)
so ingestion survives restarts mid-stream without replaying history.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.drift import DriftReport, compare_partitions
from repro.obs import get_logger, span
from repro.obs.trace import TraceContext
from repro.stream.accumulators import IncrementalRSCA, SlidingWindowTensor
from repro.stream.accumulators import sorted_lookup
from repro.stream.batch import HourlyBatch
from repro.relia.faults import fault_point
from repro.stream.checkpoint import (
    load_state,
    load_state_with_rollback,
    merge_namespaces,
    save_state,
    split_namespace,
)
from repro.stream.frozen import FrozenProfile
from repro.stream.metrics import StreamMetrics

#: Default sliding-window span: one week of hours.
DEFAULT_WINDOW_HOURS = 168

_log = get_logger("repro.stream")

#: One classification of the current state: antenna ids, RSCA features
#: and kernel labels, row-aligned.
_Classified = Tuple[np.ndarray, np.ndarray, np.ndarray]


@dataclass(frozen=True)
class DriftSignal:
    """Outcome of one drift check against the frozen reference.

    Attributes:
        hour: stream position of the check.
        report: the full partition comparison.
        mean_centroid_drift: mean matched-centroid distance (``inf`` when
            nothing matched).
        n_common_antennas: antennas present in both the frozen profile
            and the stream (the comparison population).
        refit_recommended: True when drift exceeds the profiler's
            threshold or clusters emerged/vanished — time to re-run the
            batch pipeline.
    """

    hour: Optional[np.datetime64]
    report: DriftReport
    mean_centroid_drift: float
    n_common_antennas: int
    refit_recommended: bool

    def summary(self) -> str:
        """One-line drift statement plus the underlying report."""
        verdict = (
            "REFIT RECOMMENDED" if self.refit_recommended else "profile holds"
        )
        return (
            f"drift @ {self.hour} over {self.n_common_antennas} antennas: "
            f"{verdict}\n{self.report.summary()}"
        )


@dataclass(frozen=True)
class BatchResult:
    """Per-batch ingestion outcome.

    Attributes:
        hour: the batch's hour.
        n_rows: antenna-hours ingested.
        new_antennas: ids first seen in this batch.
        occupancy: cluster -> antenna count over all classified antennas,
            or None when this batch skipped classification.
        drift: drift signal, when this batch triggered a check.
    """

    hour: np.datetime64
    n_rows: int
    new_antennas: Tuple[int, ...]
    occupancy: Optional[Dict[int, int]]
    drift: Optional[DriftSignal]


class StreamingProfiler:
    """Classify an ordered hourly stream against a frozen profile.

    Args:
        frozen: the reference profile (see
            :func:`repro.stream.frozen.freeze_profile`).
        window_hours: span of the recent-history sliding window.
        classify_every: classify and report occupancy every k-th batch
            (0 disables per-batch classification; call
            :meth:`classify_current` manually).
        drift_check_every: run a drift check every k-th batch (0 = only
            on explicit :meth:`check_drift` calls).
        drift_threshold: centroid distance above which a matched cluster
            pair no longer counts as the same profile; also the
            mean-drift level that flips ``refit_recommended``.
        trace_parent: optional :class:`~repro.obs.trace.TraceContext`
            every ``stream.ingest`` span parents onto — a driver
            (``repro-icn stream`` feeding a serve hot-swap, a future
            worker process) passes its own context so the ingestion
            span tree joins the driver's trace instead of rooting new
            ones.
    """

    def __init__(
        self,
        frozen: FrozenProfile,
        window_hours: int = DEFAULT_WINDOW_HOURS,
        classify_every: int = 1,
        drift_check_every: int = 0,
        drift_threshold: float = 1.5,
        trace_parent: Optional["TraceContext"] = None,
    ) -> None:
        if classify_every < 0 or drift_check_every < 0:
            raise ValueError("classify_every/drift_check_every must be >= 0")
        if drift_threshold <= 0:
            raise ValueError(
                f"drift_threshold must be positive, got {drift_threshold}"
            )
        self.frozen = frozen
        self.classify_every = int(classify_every)
        self.drift_check_every = int(drift_check_every)
        self.drift_threshold = float(drift_threshold)
        self.trace_parent = trace_parent
        self.totals = IncrementalRSCA(frozen.service_names)
        self.window = SlidingWindowTensor(frozen.service_names, window_hours)
        self.metrics = StreamMetrics()

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    def ingest(self, batch: HourlyBatch) -> BatchResult:
        """Fold one batch in; classify / drift-check on schedule."""
        # Chaos hook, armed only under an installed FaultPlan.  Placed
        # before any accumulator mutation so a retried ingest is safe.
        fault_point("stream.ingest", hour=str(batch.hour))
        with span("stream.ingest", parent=self.trace_parent,
                  registry=self.metrics.registry,
                  hour=str(batch.hour), n_rows=int(batch.n_rows)):
            new_ids = self.totals.update(batch)
            self.window.update(batch)
        self.metrics.incr("batches_ingested")
        self.metrics.incr("rows_ingested", batch.n_rows)
        self.metrics.incr("antennas_discovered", len(new_ids))

        # An hour that is both a classify and a drift hour votes once: the
        # drift comparison reuses the occupancy pass's labels.
        count = self.metrics.count("batches_ingested")
        classified: Optional[_Classified] = None
        occupancy: Optional[Dict[int, int]] = None
        if self.classify_every and count % self.classify_every == 0:
            with span("stream.classify", registry=self.metrics.registry,
                      hour=str(batch.hour)):
                classified = self._classify()
                occupancy = self._occupancy_of(classified[2])
            self.metrics.incr("classify_calls")

        drift: Optional[DriftSignal] = None
        if self.drift_check_every and count % self.drift_check_every == 0:
            drift = self._check_drift(batch.hour, classified)

        return BatchResult(
            hour=batch.hour,
            n_rows=batch.n_rows,
            new_antennas=tuple(new_ids),
            occupancy=occupancy,
            drift=drift,
        )

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------

    def classify_current(self) -> Tuple[np.ndarray, np.ndarray]:
        """Classify every antenna that has carried traffic so far.

        Returns:
            ``(antenna_ids, labels)`` from the running RSCA features and
            the frozen profile's compiled-kernel vote.
        """
        ids, _, labels = self._classify()
        return ids, labels

    def _classify(self) -> _Classified:
        ids, features = self.totals.rsca_nonzero()
        return ids, features, self.frozen.kernel().vote(features)

    def _occupancy_of(self, labels: np.ndarray) -> Dict[int, int]:
        occupancy = {int(c): 0 for c in self.frozen.clusters}
        unique, counts = np.unique(labels, return_counts=True)
        for cluster, count in zip(unique, counts):
            occupancy[int(cluster)] = int(count)
        return occupancy

    def occupancy(self) -> Dict[int, int]:
        """Current cluster -> antenna-count occupancy."""
        _, labels = self.classify_current()
        return self._occupancy_of(labels)

    # ------------------------------------------------------------------
    # Drift
    # ------------------------------------------------------------------

    def check_drift(
        self, hour: Optional[np.datetime64] = None
    ) -> DriftSignal:
        """Compare the streamed partition against the frozen reference.

        Restricts both sides to the antennas present in each (the frozen
        training rows that have reported traffic on the stream) and runs
        the longitudinal drift analysis on that common population.
        """
        return self._check_drift(hour, None)

    def _check_drift(
        self, hour: Optional[np.datetime64], classified: Optional[_Classified]
    ) -> DriftSignal:
        with span("stream.drift", registry=self.metrics.registry):
            ids, features, labels = classified or self._classify()
            order = np.argsort(self.frozen.antenna_ids, kind="stable")
            joined = sorted_lookup(self.frozen.antenna_ids[order], order, ids)
            stream_rows = np.flatnonzero(joined >= 0)
            frozen_rows = joined[stream_rows]
            if stream_rows.size < 2:
                raise ValueError(
                    "drift check requires at least 2 streamed antennas that "
                    "appear in the frozen profile"
                )
            report = compare_partitions(
                self.frozen.features[frozen_rows],
                self.frozen.labels[frozen_rows],
                features[stream_rows],
                labels[stream_rows],
                self.frozen.service_names,
                match_threshold=self.drift_threshold,
            )
            drifted = (
                not np.isfinite(report.mean_centroid_drift)
                or report.mean_centroid_drift > self.drift_threshold
                or bool(report.emerging)
                or bool(report.vanished)
            )
        self.metrics.incr("drift_checks")
        signal = DriftSignal(
            hour=hour if hour is not None else self.totals.last_hour,
            report=report,
            mean_centroid_drift=report.mean_centroid_drift,
            n_common_antennas=stream_rows.size,
            refit_recommended=drifted,
        )
        if drifted:
            _log.warning(
                "drift_check",
                hour=str(signal.hour),
                mean_centroid_drift=float(report.mean_centroid_drift),
                n_common_antennas=signal.n_common_antennas,
                emerging=len(report.emerging),
                vanished=len(report.vanished),
                refit_recommended=drifted,
            )
        return signal

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def checkpoint(self, path) -> None:
        """Write all accumulator state (and counters) to a ``.npz`` file."""
        state = merge_namespaces(
            {
                "totals": self.totals.state_dict(),
                "window": self.window.state_dict(),
                "metrics": self.metrics.state_dict(),
            }
        )
        save_state(path, state)
        self.metrics.incr("checkpoints_written")

    @classmethod
    def restore(
        cls,
        path,
        frozen: FrozenProfile,
        classify_every: int = 1,
        drift_check_every: int = 0,
        drift_threshold: float = 1.5,
        rollback: bool = True,
    ) -> "StreamingProfiler":
        """Rebuild a profiler mid-stream from a checkpoint.

        The restored accumulators continue bit-for-bit identically to an
        uninterrupted run; only wall-clock timers restart.

        Args:
            rollback: on a corrupt checkpoint, fall back to the ``.bak``
                sibling kept by :func:`repro.stream.checkpoint.save_state`
                (the corrupt file is preserved as ``<path>.corrupt``).
                When False — or when no valid backup exists — corruption
                raises :class:`repro.relia.errors.CheckpointCorrupt`.
        """
        if rollback:
            state, rolled_back = load_state_with_rollback(path)
            if rolled_back:
                _log.warning("checkpoint_restored_from_backup",
                             path=str(path))
        else:
            state = load_state(path)
        totals = IncrementalRSCA.from_state(split_namespace(state, "totals"))
        if totals.service_names != tuple(frozen.service_names):
            raise ValueError(
                "checkpoint service columns do not match the frozen profile"
            )
        window = SlidingWindowTensor.from_state(
            split_namespace(state, "window")
        )
        profiler = cls(
            frozen,
            window_hours=window.window_hours,
            classify_every=classify_every,
            drift_check_every=drift_check_every,
            drift_threshold=drift_threshold,
        )
        profiler.totals = totals
        profiler.window = window
        profiler.metrics = StreamMetrics.from_state(
            split_namespace(state, "metrics")
        )
        return profiler

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def summary(self) -> str:
        """Human-readable ingestion status block."""
        lines = [
            f"streaming profiler @ {self.totals.last_hour}: "
            f"{self.totals.n_antennas} antennas, "
            f"{self.totals.hours_seen} hours ingested, "
            f"{self.window.n_resident_hours}/{self.window.window_hours} "
            f"window hours resident",
            self.metrics.summary(),
        ]
        if self.totals.n_antennas and np.any(self.totals.nonzero_mask()):
            occupancy = self.occupancy()
            lines.insert(
                1,
                "occupancy: "
                + ", ".join(
                    f"{c}:{n}" for c, n in sorted(occupancy.items())
                ),
            )
        return "\n".join(lines)
