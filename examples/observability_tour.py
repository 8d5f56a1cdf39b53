#!/usr/bin/env python
"""A tour of ``repro.obs``: metrics, traces, structured logs, stage timing.

Scenario: the pipeline runs unattended — a nightly refit, a streaming
ingester, a serving node — and an operator needs to see inside it.
This example enables tracing, runs the full fit + SHAP pipeline, and
then walks the four telemetry surfaces: the Chrome-loadable trace of
the pipeline's stages, the Prometheus-text metrics registry, JSON-line
structured logs correlated to their spans, and the per-stage
``repro_stage_seconds`` series every span observes into.

Run:  python examples/observability_tour.py [TRACE_DIR]
Then: load the trace.json it writes into TRACE_DIR in chrome://tracing
      (or ui.perfetto.dev) for a flamegraph of where the pipeline spent
      its time.  Without TRACE_DIR the trace goes to a temporary
      directory that is removed on exit.
"""

import sys
import tempfile
from pathlib import Path

from repro import ICNProfiler, generate_dataset
from repro.obs import (
    disable_tracing,
    enable_tracing,
    get_logger,
    get_registry,
    set_log_stream,
    span,
)

from quickstart import reduced_specs


def main(work_dir: Path):
    print("=== Trace the full pipeline ===")
    store = enable_tracing(clear=True)
    dataset = generate_dataset(master_seed=0, specs=reduced_specs())
    with span("nightly.refit", antennas=dataset.n_antennas):
        profile = ICNProfiler(n_clusters=9).fit(
            dataset, align_to=dataset.archetypes()
        )
        profile.explain(samples_per_cluster=5)

    spans = store.spans()
    print(f"captured {len(spans)} spans:")
    for record in spans:
        indent = "  " if record.parent_id else ""
        print(f"  {indent}{record.name:<22} "
              f"{record.duration_s * 1e3:8.1f} ms  {record.attributes}")

    trace_path = work_dir / "trace.json"
    n_events = store.export_chrome(trace_path)
    print(f"wrote {trace_path} ({n_events} events) — "
          f"open in chrome://tracing")

    print("\n=== The metrics registry (Prometheus text) ===")
    registry = get_registry()
    stage_lines = [
        line for line in registry.prometheus_text().splitlines()
        if line.startswith("#") or "_count" in line
    ]
    print("\n".join(stage_lines))

    print("\n=== Structured logs join to their spans ===")
    set_log_stream(sys.stdout)  # JSON lines go to stderr by default
    log = get_logger("examples.tour")
    with span("tour.logging") as record:
        log.info("inside_span", note="carries trace_id + span_id")
    log.info("outside_span", note="no correlation ids")
    set_log_stream(None)
    print(f"(the first line's span_id matches span "
          f"{record.span_id!r} above)")

    print("\n=== Per-stage timing: every span feeds repro_stage_seconds ===")
    with span("tour.refit"):
        ICNProfiler(n_clusters=9).fit(dataset)
    refit = registry.stage("tour.refit")
    print(f"tour.refit: {refit.count} run, {refit.sum * 1e3:.1f} ms wall")
    print("\n".join(
        line for line in registry.prometheus_text().splitlines()
        if 'stage="tour.refit"' in line and "_bucket" not in line
    ))

    print("\n=== Exception safety: failed spans stay visible ===")
    try:
        with span("tour.failing"):
            raise ValueError("synthetic failure")
    except ValueError:
        pass
    failed = store.spans()[-1]
    print(f"span {failed.name!r}: error={failed.error}, "
          f"error_type={failed.attributes['error_type']}")

    disable_tracing()
    print("\ntracing disabled — span() is now a no-op "
          "(python -m bench run --trace 1 reports bench.trace_overhead)")


if __name__ == "__main__":
    if len(sys.argv) > 1:
        main(Path(sys.argv[1]))
    else:
        with tempfile.TemporaryDirectory(prefix="observability_tour_") as tmp:
            main(Path(tmp))
