"""On-demand per-stage profiling: wall/CPU time and peak memory.

The permanent instrumentation of the pipeline, stream, and serve layers
is :class:`repro.obs.trace.span`, which times every stage into
``repro_stage_seconds{stage=...}``.  :func:`profile_stage` is the
heavyweight on-demand profiler around one such span: wall seconds, CPU
seconds (:func:`time.process_time`), peak RSS (``resource.getrusage``),
and optionally peak *traced* allocation via :mod:`tracemalloc`.  Use it
from notebooks, the ``obs`` CLI, or a one-off investigation, not from
steady-state hot paths (tracemalloc slows allocation-heavy code
substantially).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

from repro.obs.registry import MetricsRegistry
from repro.obs.trace import span

try:  # resource is POSIX-only; profile records degrade gracefully without it.
    import resource as _resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    _resource = None

__all__ = ["StageStats", "profile_stage"]


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

    Opens a span named ``name`` around the body, so a profiled stage
    appears in exported traces and its wall-clock lands in
    ``repro_stage_seconds{stage=name}`` on ``registry``.

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
    try:
        with span(name, registry=registry, profiled=True):
            yield stats
    finally:
        stats.wall_seconds = time.perf_counter() - wall0
        stats.cpu_seconds = time.process_time() - cpu0
        stats.peak_rss_bytes = _peak_rss_bytes()
        if trace_memory:
            _, stats.peak_traced_bytes = tracemalloc.get_traced_memory()
            if started_tracemalloc:
                tracemalloc.stop()
