"""Run one workload: set it up, time it, check it, report it.

A workload is a module of this package exposing ``SETUP_REPEATS`` and
five functions::

    setup(seed, smoke, probe) -> state        # inputs built from the seed
    measure(state, seconds, traced) -> Phase  # the measured run
    check(state, phase) -> [Check]            # independent oracles
    layers(state, phase) -> {metric: value}   # per-layer numbers
    close(state)                              # stop what setup started

:func:`run_workload` runs beside a :class:`~bench.speed.SpeedProbe` on
the core the process is pinned to (see :mod:`bench.speed`).  It times
``setup`` ``SETUP_REPEATS`` times and reports the median, scaled to full
speed; measures once with tracing off for the end-to-end metrics; checks
the outputs; and with ``trace`` measures again with the program's tracing
on.  The per-layer metrics come only from that traced phase.  Metric
names and units are read from ``BENCHMARK.json``; a run that would emit a
different set of metrics fails instead.
"""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import sys
import time
from dataclasses import dataclass, field
from importlib import import_module
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from bench.speed import SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Workload name -> module of this package implementing it.
WORKLOADS = {
    "pipeline-paper": "bench.pipeline",
    "serve-batch": "bench.serve_batch",
    "serve-http": "bench.serve_http",
    "stream-day": "bench.stream",
}

#: An open-loop run whose generator fell this far behind schedule
#: (p99 of send time - due time) measured its own lateness, not the
#: system's: the run is flagged invalid and ``compare`` skips it.
MAX_GEN_LAG_P99_MS = 5.0

#: Span ring size for traced phases; the per-layer numbers come from
#: registry histograms and counters, the spans only feed the Chrome trace.
TRACE_CAPACITY = 20_000


def use_source_tree() -> None:
    """Put the program's ``src`` on ``sys.path``; exit 2 when it is absent."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"bench: program source not found under {src}\n")
        raise SystemExit(2)
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


def load_spec() -> dict:
    with open(SPEC_PATH) as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# What a workload hands back
# ----------------------------------------------------------------------


@dataclass
class Phase:
    """One measured phase of a workload.

    A phase is cut into rounds: one second of a serve workload, one
    replayed day of stream-day, one pipeline pass.  Each metric is the
    round's value in the least disturbed round (:func:`least_disturbed`),
    divided by the round's slowdown where it is CPU-bound (see the
    workload).

    Attributes:
        p50_ms: median time to one result within a round.
        cpu_ms_per_op: CPU time of the processes doing the work, per op.
        slowdown: median over the rounds of the host's slowdown
            (:meth:`~bench.speed.SpeedProbe.slowdown`).
        attempted: operations attempted in the measured window.
        failed: of those, errors, non-2xx answers, sheds and timeouts.
        gen_lag_p99_ms: open-loop generator lateness (None when closed).
        slices: the raw per-round values and slowdowns, kept in the
            report.
        data: workload-private outputs for ``check`` and ``layers``.
    """

    p50_ms: float
    cpu_ms_per_op: float
    slowdown: float
    attempted: int
    failed: int
    gen_lag_p99_ms: Optional[float] = None
    slices: Dict[str, List[float]] = field(default_factory=dict)
    data: Dict[str, object] = field(default_factory=dict)

    def metrics(self) -> Dict[str, float]:
        return {"p50_ms": self.p50_ms, "cpu_ms_per_op": self.cpu_ms_per_op}


@dataclass
class Check:
    """One correctness check against an independent oracle."""

    name: str
    ok: bool
    detail: str = ""


# ----------------------------------------------------------------------
# Reading what the program exports
# ----------------------------------------------------------------------


def _series(snapshot: Mapping, family: str, labels: Mapping[str, str]):
    entry = snapshot.get(family)
    if entry is None:
        return None
    for series in entry["series"]:
        if series["labels"] == dict(labels):
            return series
    return None


class RegistryDelta:
    """Differences between two ``MetricsRegistry.to_dict()`` exports."""

    def __init__(self, before: Mapping, after: Mapping) -> None:
        self.before = before
        self.after = after

    def counter(self, family: str) -> float:
        after = _series(self.after, family, {})
        before = _series(self.before, family, {})
        return (after["value"] if after else 0.0) - (
            before["value"] if before else 0.0
        )

    def histogram(
        self, family: str, **labels: str
    ) -> Tuple[List[Tuple[float, int]], float, int]:
        """``(cumulative buckets, sum, count)`` observed between exports."""
        after = _series(self.after, family, labels)
        if after is None:
            return [], 0.0, 0
        before = _series(self.before, family, labels)
        old = before["buckets"] if before else {}
        buckets = [
            (float(bound), int(count) - int(old.get(bound, 0)))
            for bound, count in after["buckets"].items()
        ]
        total = after["sum"] - (before["sum"] if before else 0.0)
        count = after["count"] - (before["count"] if before else 0)
        return buckets, total, int(count)

    def stage(self, name: str) -> Tuple[float, int]:
        """``(seconds, calls)`` of one ``repro_stage_seconds`` stage."""
        _, total, count = self.histogram("repro_stage_seconds", stage=name)
        return total, count


def histogram_quantile(buckets: Sequence[Tuple[float, int]], q: float) -> float:
    """Quantile from cumulative buckets, interpolated inside the bucket."""
    if not buckets or buckets[-1][1] == 0:
        return 0.0
    rank = q * buckets[-1][1]
    lower, below = 0.0, 0
    for bound, cumulative in buckets:
        if cumulative >= rank:
            if math.isinf(bound):
                return lower
            inside = cumulative - below
            return lower + (bound - lower) * (rank - below) / inside
        lower, below = bound, cumulative
    return lower


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def least_disturbed(values: Sequence[float],
                    slowdowns: Optional[Sequence[float]] = None) -> float:
    """The lowest per-round value, each first divided by its round's
    slowdown when slowdowns are given: the round the host disturbed least.

    The probe tracks plain interpreter work well, but in a slow spell the
    serve-http server's CPU per request and stream-day's classify latency
    grew further than it read (up to 1.4 times its reading).  Between runs
    in fast and slow spells the lowest round moved 0.3-7.5%, the median
    round up to 18% (bench/README.md, *Host speed*).
    """
    if slowdowns is not None:
        values = [v / s for v, s in zip(values, slowdowns)]
    return min(values)


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------


def _git_commit() -> Optional[str]:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _version(package: str) -> Optional[str]:
    try:
        return version(package)
    except PackageNotFoundError:
        return None


def _cpu_model() -> Optional[str]:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance() -> Dict[str, object]:
    return {
        "commit": _git_commit(),
        "cpu_count": os.cpu_count(),
        "cores_used": (sorted(os.sched_getaffinity(0))
                       if hasattr(os, "sched_getaffinity") else None),
        "cpu_model": _cpu_model(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": _version("scipy"),
    }


# ----------------------------------------------------------------------
# Running one workload
# ----------------------------------------------------------------------


def _checked(values: Mapping[str, float], declared: Mapping[str, str],
             kind: str) -> Dict[str, float]:
    if set(values) != set(declared):
        raise ValueError(f"{kind} metrics {sorted(values)} do not match the ones "
                         f"BENCHMARK.json declares: {sorted(declared)}")
    out = {}
    for name, value in values.items():
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"{kind} metric {name} is {value}")
        out[name] = value
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool, out_dir: Path) -> int:
    """Run one workload in this process; returns the exit code."""
    spec = load_spec()
    end_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    module = import_module(WORKLOADS[name])
    from repro.obs import disable_tracing, enable_tracing

    started = time.time()
    load_start = os.getloadavg()
    probe = SpeedProbe().start()
    state = None
    setup_times: List[float] = []
    setup_slowdowns: List[float] = []
    layer_values: Optional[Dict[str, float]] = None
    try:
        for _ in range(1 if smoke else module.SETUP_REPEATS):
            if state is not None:
                module.close(state)
                state = None
            t0 = time.perf_counter()
            state = module.setup(seed, smoke, probe)
            t1 = time.perf_counter()
            setup_times.append(t1 - t0)
            setup_slowdowns.append(probe.slowdown(t0, t1))
        phase = module.measure(state, seconds, traced=False)
        checks = module.check(state, phase)
        setup_s = statistics.median(t / s for t, s in zip(setup_times, setup_slowdowns))
        metrics = {"setup_s": setup_s, **phase.metrics()}
        metrics = _checked(metrics, end_units, "end-to-end")
        attempted = phase.attempted + len(checks)
        failed = phase.failed + sum(not c.ok for c in checks)
        if trace:
            store = enable_tracing(capacity=TRACE_CAPACITY)
            try:
                traced = module.measure(state, seconds, traced=True)
            finally:
                disable_tracing()
            attempted += traced.attempted
            failed += traced.failed
            values = dict.fromkeys(layer_units, 0.0)
            values.update(module.layers(state, traced))
            values["bench.trace_overhead"] = (
                traced.cpu_ms_per_op / phase.cpu_ms_per_op - 1.0
            )
            values["bench.host_slowdown"] = traced.slowdown
            if traced.gen_lag_p99_ms is not None:
                values["bench.gen_lag_p99_ms"] = traced.gen_lag_p99_ms
            layer_values = _checked(values, layer_units, "per-layer")
            out_dir.mkdir(parents=True, exist_ok=True)
            store.export_chrome(out_dir / f"trace-{name}.json")
    finally:
        if state is not None:
            module.close(state)
        probe.close()

    lag = phase.gen_lag_p99_ms
    invalid = (
        f"generator lag p99 {lag:.2f} ms > {MAX_GEN_LAG_P99_MS} ms"
        if lag is not None and lag > MAX_GEN_LAG_P99_MS else None
    )
    correct = all(c.ok for c in checks)
    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "smoke": smoke,
        "started": started,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "valid": invalid is None,
        "invalid_reason": invalid,
        "metrics": {k: {"value": v, "unit": end_units[k]} for k, v in metrics.items()},
        "layers": (
            {k: {"value": v, "unit": layer_units[k]} for k, v in layer_values.items()}
            if layer_values is not None else None
        ),
        "checks": [c.__dict__ for c in checks],
        "slowdown": phase.slowdown,
        "slices": phase.slices,
        "setup_runs_s": setup_times,
        "setup_slowdowns": setup_slowdowns,
        "host": provenance(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
    }
    runs = out_dir / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    stem = f"{name}-seed{seed}-{time.time_ns()}"
    with open(runs / f"{stem}.json", "w") as handle:
        json.dump(report, handle, indent=2)
    if layer_values is not None:
        with open(out_dir / f"layers-{name}.json", "w") as handle:
            json.dump(report["layers"], handle, indent=2)

    for check in checks:
        mark = "ok" if check.ok else "FAILED"
        print(f"# check {check.name}: {mark} {check.detail}")
    if invalid:
        print(f"# run invalid: {invalid}")
    for metric, entry in report["metrics"].items():
        print(f"{name} {metric} {entry['value']!r} {entry['unit']}")
    for metric, entry in (report["layers"] or {}).items():
        print(f"{name} {metric} {entry['value']!r} {entry['unit']}")
    shown = report["layers"] if trace else report["metrics"]
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": shown,
    }), flush=True)
    return 0 if correct else 1
