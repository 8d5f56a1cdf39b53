"""Lightweight per-stage profiling hooks: wall/CPU time and peak memory.

Two attachment points:

* :func:`timed_stage` — the instrumentation primitive the pipeline,
  stream, and serve layers wrap their hot stages in.  It opens a tracing
  span (a no-op when tracing is off) and folds the stage's wall-clock
  into the shared registry's ``repro_stage_seconds{stage=...}``
  histogram.  Cheap enough to leave on permanently
  (``python -m bench run --trace 1`` reports the cost as
  ``bench.trace_overhead``).
* :func:`profile_stage` — the heavyweight on-demand profiler: wall
  seconds, CPU seconds (:func:`time.process_time`), peak RSS
  (``resource.getrusage``), and optionally peak *traced* allocation via
  :mod:`tracemalloc`.  Use it from notebooks, the ``obs`` CLI, or a
  one-off investigation, not from steady-state hot paths (tracemalloc
  slows allocation-heavy code substantially).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

from repro.obs.registry import MetricsRegistry, get_registry
from repro.obs.trace import span

try:  # resource is POSIX-only; profile records degrade gracefully without it.
    import resource as _resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    _resource = None

__all__ = ["StageStats", "profile_stage", "timed_stage"]

#: Bucket bounds for the shared per-stage wall-clock histogram: the
#: pipeline stages span ~1 ms (RCA) to tens of seconds (SHAP at scale).
STAGE_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0, 60.0,
)


def _peak_rss_bytes() -> Optional[int]:
    """Process peak resident set size, or None where unavailable."""
    if _resource is None:
        return None
    peak = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KiB on Linux, bytes on macOS.
    import sys

    return int(peak) if sys.platform == "darwin" else int(peak) * 1024


@dataclass
class StageStats:
    """Resource usage of one profiled stage.

    Attributes:
        name: stage name.
        wall_seconds: elapsed wall-clock.
        cpu_seconds: process CPU time consumed (user + system).
        peak_rss_bytes: process-wide peak RSS at stage exit (None on
            platforms without :mod:`resource`).  Note this is a process
            high-water mark, not a per-stage delta — it can only grow.
        peak_traced_bytes: peak tracemalloc allocation during the stage
            (None unless ``trace_memory=True``).
    """

    name: str
    wall_seconds: float = 0.0
    cpu_seconds: float = 0.0
    peak_rss_bytes: Optional[int] = None
    peak_traced_bytes: Optional[int] = None

    def summary(self) -> str:
        """One-line human-readable report."""
        parts = [
            f"{self.name}: {self.wall_seconds * 1e3:.1f} ms wall, "
            f"{self.cpu_seconds * 1e3:.1f} ms cpu"
        ]
        if self.peak_rss_bytes is not None:
            parts.append(f"peak rss {self.peak_rss_bytes / 2**20:.1f} MiB")
        if self.peak_traced_bytes is not None:
            parts.append(
                f"peak traced {self.peak_traced_bytes / 2**20:.1f} MiB"
            )
        return ", ".join(parts)


@contextmanager
def profile_stage(name: str, registry: Optional[MetricsRegistry] = None,
                  trace_memory: bool = False):
    """Profile one stage; yields a :class:`StageStats` filled at exit.

    Opens a span named ``name`` around the body, so profiled stages also
    appear in exported traces.  When ``registry`` is given (or the
    default registry otherwise), the wall-clock lands in
    ``repro_stage_seconds{stage=name}`` like :func:`timed_stage`.

    Args:
        name: stage name (also the span name and metric label).
        registry: registry to record into; defaults to the process one.
        trace_memory: measure peak allocation via :mod:`tracemalloc`
            (slow; only for investigations).
    """
    import tracemalloc

    stats = StageStats(name=name)
    started_tracemalloc = False
    if trace_memory and not tracemalloc.is_tracing():
        tracemalloc.start()
        started_tracemalloc = True
    if trace_memory:
        tracemalloc.reset_peak()
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    stage_span = span(name, profiled=True)
    try:
        with stage_span:
            yield stats
    finally:
        stats.wall_seconds = time.perf_counter() - wall0
        stats.cpu_seconds = time.process_time() - cpu0
        stats.peak_rss_bytes = _peak_rss_bytes()
        if trace_memory:
            _, stats.peak_traced_bytes = tracemalloc.get_traced_memory()
            if started_tracemalloc:
                tracemalloc.stop()
        reg = registry if registry is not None else get_registry()
        record = stage_span.record
        reg.histogram(
            "repro_stage_seconds",
            "Wall-clock seconds per instrumented stage",
            labelnames=("stage",),
            buckets=STAGE_BUCKETS,
        ).labels(stage=name).observe(
            stats.wall_seconds,
            exemplar=record.trace_id if record is not None else None,
        )


class timed_stage:
    """Span + stage-seconds histogram around one hot-path stage.

    The permanent instrumentation wrapper: ``with
    timed_stage("pipeline.rca", rows=n):`` is what
    :class:`~repro.core.pipeline.ICNProfiler` and friends use.  Records
    a span when tracing is on and always folds the wall-clock into
    ``repro_stage_seconds{stage=...}`` on the default registry (or an
    explicit one).  Class-based for the same reason as
    :class:`repro.obs.trace.span`: no generator frame on the hot path.
    """

    __slots__ = ("_span", "_name", "_registry", "_start")

    def __init__(self, name: str,
                 registry: Optional[MetricsRegistry] = None,
                 **attributes) -> None:
        self._name = name
        self._registry = registry
        self._span = span(name, **attributes)
        self._start = 0.0

    def __enter__(self):
        record = self._span.__enter__()
        self._start = time.perf_counter()
        return record

    def __exit__(self, exc_type, exc, tb) -> bool:
        elapsed = time.perf_counter() - self._start
        self._span.__exit__(exc_type, exc, tb)
        reg = self._registry if self._registry is not None else get_registry()
        # When tracing is on, the closed span's trace id rides along as
        # the histogram exemplar — a slow stage points at its own trace.
        record = self._span.record
        reg.histogram(
            "repro_stage_seconds",
            "Wall-clock seconds per instrumented stage",
            labelnames=("stage",),
            buckets=STAGE_BUCKETS,
        ).labels(stage=self._name).observe(
            elapsed, exemplar=record.trace_id if record is not None else None
        )
        return False
