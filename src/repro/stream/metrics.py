"""Lightweight ingestion counters and timers.

:class:`StreamMetrics` tracks what an operator's dashboard needs from an
ingestion node: batches and antenna-hours ingested, newly discovered
antennas, and wall-clock spent in ingestion / classification / drift
checks, from which it derives throughput (antenna-hours per second) and
mean per-batch classification latency.  Counters checkpoint alongside
the accumulators; timers restart at zero on restore (wall-clock is a
property of the process, not the stream).

The class is a facade over a :class:`repro.obs.MetricsRegistry`:
counters are ``repro_stream_<name>_total`` families held as bound
children, and the timers are read from the ``stream.ingest``,
``stream.classify`` and ``stream.drift`` spans that
:class:`~repro.stream.profiler.StreamingProfiler` opens on this
registry (the sums of ``repro_stage_seconds{stage=...}``), so an
ingestion node exposes the same Prometheus text surface as a serving
node (``registry.prometheus_text()``).  All mutations are
thread-safe under the registry's per-family locks — an ingestion node may share its
metrics object between a reader thread and a checkpointing thread.
Each instance owns a private registry by default; pass a shared one to
merge components onto a single exposition surface.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

from repro.obs.registry import MetricsRegistry


class StreamMetrics:
    """Counters and timers for one ingestion process.

    Args:
        registry: back the metrics onto this
            :class:`~repro.obs.MetricsRegistry` (a fresh private one by
            default).
    """

    #: Counter names, in reporting order.
    COUNTERS = (
        "batches_ingested",
        "rows_ingested",
        "antennas_discovered",
        "classify_calls",
        "drift_checks",
        "checkpoints_written",
    )
    #: Timer name -> the span whose stage-seconds sum it reads, in
    #: reporting order.
    TIMERS = {
        "ingest_seconds": "stream.ingest",
        "classify_seconds": "stream.classify",
        "drift_seconds": "stream.drift",
    }

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._counters = {
            name: self.registry.counter(
                f"repro_stream_{name}_total",
                f"Ingestion counter: {name.replace('_', ' ')}",
            ).labels()
            for name in self.COUNTERS
        }
        self.registry.gauge(
            "repro_stream_rows_per_second",
            "Ingestion throughput in antenna-hours per second",
        ).set_function(self.rows_per_second)

    def incr(self, name: str, amount: int = 1) -> None:
        """Increment one counter (KeyError for an unknown name)."""
        self._counters[name].inc(amount)

    def count(self, name: str) -> int:
        """Current value of one counter (KeyError for an unknown name)."""
        return int(self._counters[name].value)

    def seconds(self, name: str) -> float:
        """Accumulated wall-clock of one timer: its span's stage seconds."""
        return self.registry.stage(self.TIMERS[name]).sum

    # ------------------------------------------------------------------
    # Derived rates
    # ------------------------------------------------------------------

    def rows_per_second(self) -> float:
        """Ingestion throughput in antenna-hours (rows) per second."""
        elapsed = self.seconds("ingest_seconds")
        return self.count("rows_ingested") / elapsed if elapsed > 0 else 0.0

    def classification_latency(self) -> float:
        """Mean wall-clock seconds per classification pass."""
        calls = self.count("classify_calls")
        return self.seconds("classify_seconds") / calls if calls else 0.0

    def summary(self) -> str:
        """Human-readable metrics block."""
        # Before any classification pass there is no latency to report;
        # "0.0 ms/batch" would read as a (suspiciously great) measurement.
        if self.count("classify_calls"):
            latency = f"{self.classification_latency() * 1e3:.1f} ms/batch"
        else:
            latency = "n/a"
        lines = [
            f"batches ingested:       {self.count('batches_ingested')}",
            f"antenna-hours ingested: {self.count('rows_ingested')}",
            f"antennas discovered:    {self.count('antennas_discovered')}",
            f"ingest throughput:      {self.rows_per_second():,.0f} "
            f"antenna-hours/s",
            f"classification passes:  {self.count('classify_calls')} "
            f"({latency})",
            f"drift checks:           {self.count('drift_checks')}",
            f"checkpoints written:    {self.count('checkpoints_written')}",
        ]
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable snapshot (same shape as ServeMetrics).

        ``classification_latency_ms`` is None rather than 0.0 before the
        first pass — an export consumer must be able to tell "fast" from
        "never ran".
        """
        calls = self.count("classify_calls")
        return {
            "counters": {name: self.count(name) for name in self.COUNTERS},
            "timers": {name: self.seconds(name) for name in self.TIMERS},
            "derived": {
                "rows_per_second": self.rows_per_second(),
                "classification_latency_ms": (
                    self.classification_latency() * 1e3 if calls else None
                ),
            },
            # Monotonic stamp so TSDB ingestion can reject a stale
            # (cached / re-served) snapshot.
            "snapshot_ts": time.monotonic(),
        }

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """Counters only — wall-clock does not survive a restart."""
        return {name: self.count(name) for name in self.COUNTERS}

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "StreamMetrics":
        """Rebuild metrics with restored counters and zeroed timers."""
        metrics = cls()
        for name in metrics.COUNTERS:
            if name in state:
                metrics._counters[name].inc(int(state[name]))
        return metrics
