"""Command-line interface: ``repro-icn`` / ``python -m repro``.

Subcommands:

* ``generate``   — synthesize a dataset and write it to a ``.npz`` file.
* ``profile``    — run the full pipeline and print the profile summary.
* ``scan``       — print the Fig. 2 k-selection table.
* ``figure``     — regenerate one paper figure as a terminal rendering.
* ``validate``   — run the dataset statistical checks.
* ``operations`` — print slice / cache / energy plans (paper Section 7).
* ``report``     — write a markdown operations report for the profile.
* ``stream``     — replay the dataset as hourly batches through the
  online profiler: per-day cluster occupancy, drift check, ingestion
  metrics, optional ``.npz`` checkpoint.
* ``serve``      — start the concurrent profile-serving HTTP endpoint
  (micro-batching, LRU+TTL cache, admission control; ``repro.serve``)
  with the SLO engine and burn-rate alerting attached: ``/healthz``
  readiness, ``/slo`` budget reports, alert gauges on ``/metrics``.
* ``obs``        — observability tooling (``repro.obs``):
  ``obs trace-export`` runs the instrumented pipeline end-to-end with
  tracing on and writes Chrome ``trace_event`` JSON for flamegraph
  viewing; ``obs dump`` runs it and dumps the metrics registry as
  Prometheus text or JSON; ``obs watch`` renders a live ANSI operator
  dashboard (qps/latency/cache/queue/SLO budgets/alerts) by polling a
  running serve node.
* ``chaos``      — run the scripted fault-injection scenario end-to-end
  (``repro.relia``): I/O-error burst, poisoned hour, duplicate/late
  hours, truncated checkpoint, worker crashes — with SLO burn-rate
  alerts asserted to fire and resolve; exits nonzero unless every
  resilience check passes.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

import numpy as np

from repro.core.pipeline import ICNProfiler
from repro.datagen.dataset import TrafficDataset, generate_dataset
from repro.relia.errors import CheckpointCorrupt
from repro.viz.render import (
    render_beeswarm_table,
    render_dendrogram_summary,
    render_distribution,
    render_heatmap,
    render_histogram,
    render_rsca_heatmap,
    render_sankey,
    render_scan,
)

#: Figures the CLI can regenerate.
FIGURES = ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
           "fig9", "fig10", "fig11")


def _load_or_generate(args) -> TrafficDataset:
    if getattr(args, "dataset", None):
        return TrafficDataset.load(args.dataset)
    return generate_dataset(master_seed=args.seed)


def _cmd_generate(args) -> int:
    dataset = generate_dataset(master_seed=args.seed)
    dataset.save(args.output)
    print(
        f"wrote {dataset.n_antennas} antennas x {dataset.n_services} services "
        f"to {args.output}"
    )
    return 0


def _cmd_profile(args) -> int:
    dataset = _load_or_generate(args)
    profiler = ICNProfiler(n_clusters=args.clusters)
    align = dataset.archetypes() if args.align else None
    profile = profiler.fit(dataset, align_to=align)
    print(profile.summary())
    return 0


def _cmd_scan(args) -> int:
    dataset = _load_or_generate(args)
    profiler = ICNProfiler()
    result = profiler.scan_cluster_counts(dataset, ks=range(2, args.max_k + 1))
    print(render_scan(result.ks, result.silhouette, result.dunn))
    return 0


def _cmd_validate(args) -> int:
    from repro.datagen.validate import validate_dataset, validation_report

    dataset = _load_or_generate(args)
    results = validate_dataset(dataset)
    print(validation_report(results))
    return 0 if all(result.passed for result in results) else 1


def _cmd_operations(args) -> int:
    from repro.apps import (
        cluster_aware_gain,
        fleet_energy_saving,
        plan_energy,
        plan_slices,
    )

    dataset = _load_or_generate(args)
    profiler = ICNProfiler(n_clusters=args.clusters)
    align = dataset.archetypes() if args.align else None
    profile = profiler.fit(dataset, align_to=align)
    print("slice templates:")
    for cluster, template in sorted(plan_slices(
            dataset, profile, max_antennas=40).items()):
        print(" ", template.describe())
    aware, global_hit = cluster_aware_gain(
        dataset.totals, profile.labels, dataset.catalog, budget=10
    )
    print(f"caching: cluster-aware hit {aware:.1%} vs global {global_hit:.1%}")
    energy = plan_energy(dataset, profile, max_antennas=40)
    for cluster in sorted(energy):
        print(" ", energy[cluster].describe())
    print(f"fleet energy saving: "
          f"{fleet_energy_saving(energy, profile.cluster_sizes()):.1%}")
    return 0


def _cmd_report(args) -> int:
    from repro.analysis.report import profile_report

    dataset = _load_or_generate(args)
    profiler = ICNProfiler(n_clusters=args.clusters)
    align = dataset.archetypes() if args.align else None
    profile = profiler.fit(dataset, align_to=align)
    text = profile_report(
        dataset, profile,
        outdoor_count=args.outdoor if args.outdoor else None,
        samples_per_cluster=args.shap_samples,
    )
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def _cmd_stream(args) -> int:
    from repro.stream import StreamingProfiler, replay_dataset

    if args.checkpoint:
        parent = Path(args.checkpoint).resolve().parent
        if not parent.is_dir():
            print(
                f"error: checkpoint directory {parent} does not exist",
                file=sys.stderr,
            )
            return 2

    dataset = _load_or_generate(args)
    profiler = ICNProfiler(n_clusters=args.clusters)
    align = dataset.archetypes() if args.align else None
    profile = profiler.fit(dataset, align_to=align)
    frozen = profile.freeze()
    print(
        f"frozen profile: {frozen.n_clusters} clusters over "
        f"{frozen.features.shape[0]} antennas"
    )

    n_hours = dataset.calendar.n_hours
    if args.days > 0:
        n_hours = min(n_hours, args.days * 24)
    antenna_ids = None
    if args.limit > 0:
        antenna_ids = [
            a.antenna_id for a in dataset.antennas[: args.limit]
        ]
    streamer = StreamingProfiler(
        frozen,
        window_hours=args.window_hours,
        classify_every=args.report_every,
        drift_threshold=args.drift_threshold,
    )
    n_replayed = len(antenna_ids) if antenna_ids is not None else dataset.n_antennas
    print(f"replaying {n_hours} hourly batches of {n_replayed} antennas ...")
    for batch in replay_dataset(
        dataset, window=slice(0, n_hours), antenna_ids=antenna_ids
    ):
        result = streamer.ingest(batch)
        if result.occupancy is not None:
            listing = ", ".join(
                f"{c}:{n}" for c, n in sorted(result.occupancy.items()) if n
            )
            print(f"  [{result.hour}] occupancy {listing}")

    signal = streamer.check_drift()
    print(signal.summary())
    if args.checkpoint:
        streamer.checkpoint(args.checkpoint)
        print(f"wrote checkpoint {args.checkpoint}")
    print(streamer.metrics.summary())
    return 0


def _serve_frozen_profile(args):
    """Resolve the profile to serve: a saved artifact or a fresh fit."""
    from repro.stream import FrozenProfile

    if args.frozen:
        return FrozenProfile.load(args.frozen)
    dataset = _load_or_generate(args)
    profiler = ICNProfiler(n_clusters=args.clusters)
    align = dataset.archetypes() if args.align else None
    profile = profiler.fit(dataset, align_to=align)
    return profile.freeze(service_totals=dataset.totals.sum(axis=0))


def _cmd_serve(args) -> int:
    from repro.obs import enable_tracing, get_registry, tracing_enabled
    from repro.obs.alerts import AlertManager, default_rules
    from repro.obs.prof import ContinuousProfiler
    from repro.obs.slo import SLOEngine, default_slos
    from repro.obs.tsdb import MetricsTSDB
    from repro.serve import ProfileService, ServeMetrics, make_server

    frozen = _serve_frozen_profile(args)
    # Back the node's metrics onto the process registry so the serve
    # counters, the SLO and alert gauges, and the recorded history all
    # share one exposition surface (ServeMetrics is private-registry by
    # default).
    registry = get_registry()
    # Tracing powers the exemplar chain: request spans hand their trace
    # ids to the latency histogram buckets, and a firing alert surfaces
    # the worst one.  The store is a bounded ring, so always-on is safe
    # for the lifetime of the node (restored on the way out so an
    # in-process caller — the test suite — is left untouched).
    was_tracing = tracing_enabled()
    enable_tracing()
    service = ProfileService(
        frozen,
        max_batch=args.max_batch,
        n_workers=args.workers,
        cache_size=args.cache_size,
        cache_ttl_s=args.cache_ttl,
        max_queue_depth=args.queue_depth,
        metrics=ServeMetrics(registry=registry),
    )
    # One scrape-driven history: every /metrics|/slo|/healthz|/query
    # hit ticks the engine, which records one TSDB snapshot.  The SLO
    # windows, /query and the obs-watch sparklines all read it, with
    # no background thread.
    tsdb = MetricsTSDB(registry)
    engine = SLOEngine(default_slos(window_s=args.slo_window), tsdb)
    manager = AlertManager(engine, default_rules(engine), registry=registry)
    engine.tick()
    profiler = None
    if args.profile:
        profiler = ContinuousProfiler(
            hz=args.profile_hz, registry=registry
        ).start()
    server = make_server(service, host=args.host, port=args.port,
                         verbose=args.verbose, slo_engine=engine,
                         alert_manager=manager, profiler=profiler,
                         tsdb=tsdb)
    host, port = server.server_address[:2]
    print(
        f"serving profile version {service.registry.current_version()} "
        f"({frozen.n_clusters} clusters, "
        f"{frozen.features.shape[0]} reference antennas) "
        f"on http://{host}:{port}"
    )
    print(
        f"  micro-batch <= {args.max_batch} rows, "
        f"{args.workers} workers, cache {args.cache_size}, "
        f"admission watermark {args.queue_depth}"
    )
    print(
        f"  SLOs: {len(engine.slos)} objectives over "
        f"{args.slo_window:.0f}s windows, {len(manager.alerts)} burn-rate "
        f"alerts — /healthz /slo /metrics /query"
    )
    if profiler is not None:
        print(
            f"  continuous profiler: {args.profile_hz:.0f} Hz, "
            f"<= {profiler.max_overhead:.0%} overhead — /debug/prof"
        )
    try:
        if args.max_requests > 0:
            for _ in range(args.max_requests):
                server.handle_request()
        else:
            server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        server.server_close()
        service.close()
        if profiler is not None:
            profiler.stop()
        if not was_tracing:
            from repro.obs import disable_tracing

            disable_tracing()
        print(service.metrics.summary())
    return 0


def _run_instrumented_pipeline(args):
    """Run the full pipeline (fit + SHAP) with tracing enabled.

    Returns ``(trace_store, registry, profile)`` — the observability
    state the ``obs`` subcommands export.  Tracing is restored to its
    prior state on the way out (retained spans stay exportable), so an
    in-process caller — the test suite — is left untouched.
    """
    from repro.obs import (
        disable_tracing,
        enable_tracing,
        get_registry,
        tracing_enabled,
    )

    was_tracing = tracing_enabled()
    store = enable_tracing(clear=True)
    try:
        dataset = _load_or_generate(args)
        profiler = ICNProfiler(n_clusters=args.clusters)
        align = dataset.archetypes() if args.align else None
        profile = profiler.fit(dataset, align_to=align)
        if args.shap_samples > 0:
            profile.explain(samples_per_cluster=args.shap_samples)
    finally:
        if not was_tracing:
            disable_tracing()
    return store, get_registry(), profile


def _cmd_obs_trace_export(args) -> int:
    store, registry, profile = _run_instrumented_pipeline(args)
    n_spans = store.export_chrome(args.output)
    stages = sorted({s.name for s in store.spans()})
    print(
        f"wrote {args.output}: {n_spans} spans over "
        f"{len(stages)} stages ({', '.join(stages)})"
    )
    if args.metrics_output:
        import json as json_module

        with open(args.metrics_output, "w") as handle:
            json_module.dump(registry.to_dict(), handle, indent=2,
                             sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.metrics_output}")
    print(profile.summary())
    return 0


def _cmd_obs_dump(args) -> int:
    import json as json_module

    _store, registry, _profile = _run_instrumented_pipeline(args)
    if args.format == "prometheus":
        text = registry.prometheus_text()
    else:
        text = json_module.dumps(registry.to_dict(), indent=2, sort_keys=True)
        text += "\n"
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"wrote {args.output}")
    else:
        print(text, end="")
    return 0


def _cmd_obs_watch(args) -> int:
    from repro.obs.dashboard import fetch_json, watch

    if fetch_json(args.url + "/metrics.json") is None:
        print(f"no serve node answering at {args.url}/metrics.json")
        return 1
    frames = watch(
        args.url,
        interval_s=args.interval,
        iterations=args.iterations if args.iterations > 0 else None,
        color=not args.no_color,
        clear=not args.no_clear,
    )
    return 0 if frames > 0 else 1


def _cmd_chaos(args) -> int:
    import json as json_module

    from repro.obs import get_registry, set_log_stream
    from repro.relia.chaos import run_chaos_scenario

    out_dir = Path(args.out) if args.out else None
    log_handle = None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        log_handle = open(out_dir / "chaos_log.jsonl", "w")
        set_log_stream(log_handle)
    try:
        report = run_chaos_scenario(
            seed=args.seed,
            work_dir=str(out_dir) if out_dir else None,
            scale=args.scale,
        )
    finally:
        if log_handle is not None:
            set_log_stream(None)
            log_handle.close()
    if out_dir is not None:
        with open(out_dir / "chaos_report.json", "w") as handle:
            json_module.dump(report.to_dict(), handle, indent=2,
                             sort_keys=True)
            handle.write("\n")
        with open(out_dir / "chaos_metrics.prom", "w") as handle:
            handle.write(get_registry().prometheus_text())
        print(f"wrote {out_dir}/chaos_log.jsonl, chaos_report.json, "
              f"chaos_metrics.prom, chaos_slo_report.json")
    print(report.summary())
    return 0 if report.ok else 1


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _port_number(text: str) -> int:
    value = int(text)
    if not 0 <= value <= 65535:
        raise argparse.ArgumentTypeError(
            f"port must be in [0, 65535], got {value}"
        )
    return value


def _cmd_figure(args) -> int:
    dataset = _load_or_generate(args)
    profiler = ICNProfiler(n_clusters=args.clusters)
    if args.figure == "fig1":
        from repro.core.rca import feature_histograms

        hists = feature_histograms(dataset.totals)
        for key in ("normalized", "rca", "rsca"):
            counts, edges = hists[key]
            print(render_histogram(counts, edges, title=f"Fig. 1 — {key}"))
            print()
        print(f"max RCA observed: {hists['max_rca']:.2f}")
        return 0
    if args.figure == "fig2":
        result = profiler.scan_cluster_counts(dataset, ks=range(2, 16))
        print(render_scan(result.ks, result.silhouette, result.dunn))
        return 0

    align = dataset.archetypes() if args.align else None
    profile = profiler.fit(dataset, align_to=align)
    if args.figure == "fig3":
        print(
            render_dendrogram_summary(
                profile.clustering.linkage_matrix_,
                profile.n_clusters,
                profile.cluster_sizes(),
                profile.groups(3),
            )
        )
    elif args.figure == "fig4":
        print(
            render_rsca_heatmap(
                profile.features, profile.labels, profile.service_names
            )
        )
    elif args.figure == "fig5":
        explanations = profile.explain(samples_per_cluster=40)
        for cluster in sorted(explanations):
            print(render_beeswarm_table(explanations[cluster], top=10))
            print()
    elif args.figure == "fig6":
        print(render_sankey(profile.environment_table().sankey_flows()))
    elif args.figure == "fig7":
        table = profile.environment_table()
        for cluster in sorted(profile.cluster_sizes()):
            composition = table.composition_of(cluster)
            top = sorted(composition.items(), key=lambda kv: kv[1],
                         reverse=True)
            listing = ", ".join(
                f"{env.value} {share:.0%}" for env, share in top if share > 0
            )
            print(f"cluster {cluster}: {listing}")
    elif args.figure == "fig8":
        table = profile.environment_table()
        for env in list(table.environments):
            dist = table.distribution_of(env)
            top = sorted(dist.items(), key=lambda kv: kv[1], reverse=True)
            listing = ", ".join(
                f"c{c} {share:.0%}" for c, share in top if share > 0
            )
            print(f"{env.value}: {listing}")
    elif args.figure == "fig9":
        outdoor_antennas, outdoor_totals = dataset.outdoor(count=args.outdoor)
        comparison = profile.classify_outdoor(outdoor_totals, dataset.totals)
        print(render_distribution(comparison.distribution))
    elif args.figure == "fig10":
        from repro.analysis.temporal import cluster_temporal_heatmap

        for cluster in sorted(profile.cluster_sizes()):
            heatmap = cluster_temporal_heatmap(
                dataset, profile.labels, cluster, max_antennas=60
            )
            print(
                render_heatmap(
                    heatmap.values,
                    [str(d) for d in heatmap.dates],
                    title=f"Fig. 10 — cluster {cluster}",
                )
            )
            print()
    elif args.figure == "fig11":
        from repro.analysis.temporal import service_temporal_heatmap

        panels = (
            ("Spotify", 0), ("Twitter", 0), ("Transportation Websites", 0),
            ("Netflix", 8), ("Waze", 8), ("Snapchat", 8),
            ("Microsoft Teams", 3), ("Netflix", 3), ("Waze", 1),
        )
        for service, cluster in panels:
            heatmap = service_temporal_heatmap(
                dataset, profile.labels, cluster, service, max_antennas=40
            )
            print(
                render_heatmap(
                    heatmap.values,
                    [str(d) for d in heatmap.dates],
                    title=f"Fig. 11 — {service}, cluster {cluster}",
                )
            )
            print()
    else:
        print(f"unknown figure {args.figure!r}; choose from {FIGURES}", file=sys.stderr)
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-icn",
        description="Reproduction of 'Characterizing Mobile Service Demands "
        "at Indoor Cellular Networks' (IMC '23)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="synthesize a dataset to .npz")
    gen.add_argument("output", help="output .npz path")
    gen.add_argument("--seed", type=int, default=0)
    gen.set_defaults(func=_cmd_generate)

    prof = sub.add_parser("profile", help="run the full pipeline")
    prof.add_argument("--dataset", help="existing .npz dataset (else generate)")
    prof.add_argument("--seed", type=int, default=0)
    prof.add_argument("--clusters", type=int, default=9)
    prof.add_argument("--align", action="store_true",
                      help="align cluster ids to the latent archetypes")
    prof.set_defaults(func=_cmd_profile)

    scan = sub.add_parser("scan", help="Fig. 2 k-selection scan")
    scan.add_argument("--dataset", help="existing .npz dataset (else generate)")
    scan.add_argument("--seed", type=int, default=0)
    scan.add_argument("--max-k", type=int, default=15)
    scan.set_defaults(func=_cmd_scan)

    val = sub.add_parser("validate", help="run dataset statistical checks")
    val.add_argument("--dataset", help="existing .npz dataset (else generate)")
    val.add_argument("--seed", type=int, default=0)
    val.set_defaults(func=_cmd_validate)

    ops = sub.add_parser("operations",
                         help="slice/cache/energy plans (Section 7)")
    ops.add_argument("--dataset", help="existing .npz dataset (else generate)")
    ops.add_argument("--seed", type=int, default=0)
    ops.add_argument("--clusters", type=int, default=9)
    ops.add_argument("--align", action="store_true")
    ops.set_defaults(func=_cmd_operations)

    rep = sub.add_parser("report", help="markdown operations report")
    rep.add_argument("--dataset", help="existing .npz dataset (else generate)")
    rep.add_argument("--seed", type=int, default=0)
    rep.add_argument("--clusters", type=int, default=9)
    rep.add_argument("--align", action="store_true")
    rep.add_argument("--output", help="write to this path (else stdout)")
    rep.add_argument("--outdoor", type=int, default=0,
                     help="include the outdoor comparison with N antennas")
    rep.add_argument("--shap-samples", type=int, default=15)
    rep.set_defaults(func=_cmd_report)

    stream = sub.add_parser(
        "stream",
        help="replay hourly batches through the online profiler",
    )
    stream.add_argument("--dataset", help="existing .npz dataset (else generate)")
    stream.add_argument("--seed", type=int, default=0)
    stream.add_argument("--clusters", type=int, default=9)
    stream.add_argument("--align", action="store_true",
                        help="align cluster ids to the latent archetypes")
    stream.add_argument("--days", type=int, default=7,
                        help="replay only the first N days (0 = full period)")
    stream.add_argument("--limit", type=int, default=0,
                        help="replay only the first N antennas (0 = all)")
    stream.add_argument("--window-hours", type=int, default=168,
                        help="sliding recent-history window span")
    stream.add_argument("--report-every", type=int, default=24,
                        help="classify and print occupancy every N batches")
    stream.add_argument("--drift-threshold", type=float, default=1.5)
    stream.add_argument("--checkpoint",
                        help="write accumulator state to this .npz at the end")
    stream.set_defaults(func=_cmd_stream)

    serve = sub.add_parser(
        "serve",
        help="start the concurrent profile-serving HTTP endpoint",
    )
    serve.add_argument("--dataset", help="existing .npz dataset (else generate)")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--clusters", type=int, default=9)
    serve.add_argument("--align", action="store_true",
                       help="align cluster ids to the latent archetypes")
    serve.add_argument("--frozen",
                       help="serve this FrozenProfile .npz instead of fitting")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=_port_number, default=8080,
                       help="listening port (0 = pick a free port)")
    serve.add_argument("--max-batch", type=_positive_int, default=64,
                       help="micro-batch row cap")
    serve.add_argument("--workers", type=_positive_int, default=2,
                       help="classification worker threads")
    serve.add_argument("--cache-size", type=int, default=4096,
                       help="result-cache capacity in vectors (0 disables)")
    serve.add_argument("--cache-ttl", type=float, default=None,
                       help="result-cache TTL in seconds (default: no TTL)")
    serve.add_argument("--queue-depth", type=_positive_int, default=256,
                       help="admission watermark: queued requests before shedding")
    serve.add_argument("--max-requests", type=int, default=0,
                       help="serve N requests then exit (0 = run forever)")
    serve.add_argument("--slo-window", type=float, default=3600.0,
                       help="rolling SLO window in seconds")
    serve.add_argument("--profile", action="store_true",
                       help="run the continuous sampling profiler "
                            "(GET /debug/prof)")
    serve.add_argument("--profile-hz", type=float, default=50.0,
                       help="profiler sampling frequency in Hz")
    serve.add_argument("--verbose", action="store_true",
                       help="log each HTTP request")
    serve.set_defaults(func=_cmd_serve)

    obs = sub.add_parser(
        "obs",
        help="observability tooling: trace export, metrics dumps, "
             "live dashboard",
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)

    def _add_obs_pipeline_args(parser) -> None:
        parser.add_argument("--dataset",
                            help="existing .npz dataset (else generate)")
        parser.add_argument("--seed", type=int, default=0)
        parser.add_argument("--clusters", type=int, default=9)
        parser.add_argument("--align", action="store_true",
                            help="align cluster ids to the latent archetypes")
        parser.add_argument("--shap-samples", type=int, default=15,
                            help="SHAP samples per cluster (0 skips the "
                                 "pipeline.shap stage)")

    trace_export = obs_sub.add_parser(
        "trace-export",
        help="run the instrumented pipeline and export Chrome trace JSON",
    )
    _add_obs_pipeline_args(trace_export)
    trace_export.add_argument("--output", default="trace.json",
                              help="Chrome trace_event JSON path")
    trace_export.add_argument("--metrics-output",
                              help="also dump the metrics registry as JSON")
    trace_export.set_defaults(func=_cmd_obs_trace_export)

    dump = obs_sub.add_parser(
        "dump",
        help="run the instrumented pipeline and dump the metrics registry",
    )
    _add_obs_pipeline_args(dump)
    dump.add_argument("--format", choices=("prometheus", "json"),
                      default="prometheus")
    dump.add_argument("--output", help="write to this path (else stdout)")
    dump.set_defaults(func=_cmd_obs_dump)

    watch = obs_sub.add_parser(
        "watch",
        help="live ANSI dashboard polling a running serve node",
    )
    watch.add_argument("--url", default="http://127.0.0.1:8080",
                       help="base URL of the serve node to poll")
    watch.add_argument("--interval", type=float, default=2.0,
                       help="seconds between dashboard refreshes")
    watch.add_argument("--iterations", type=int, default=0,
                       help="render N frames then exit (0 = until Ctrl-C)")
    watch.add_argument("--no-color", action="store_true",
                       help="plain-text output (no ANSI colors)")
    watch.add_argument("--no-clear", action="store_true",
                       help="append frames instead of repainting the screen")
    watch.set_defaults(func=_cmd_obs_watch)

    fig = sub.add_parser("figure", help="regenerate one paper figure")
    fig.add_argument("figure", choices=FIGURES)
    fig.add_argument("--dataset", help="existing .npz dataset (else generate)")
    fig.add_argument("--seed", type=int, default=0)
    fig.add_argument("--clusters", type=int, default=9)
    fig.add_argument("--align", action="store_true")
    fig.add_argument("--outdoor", type=int, default=2000,
                     help="outdoor antenna count for fig9")
    fig.set_defaults(func=_cmd_figure)

    chaos = sub.add_parser(
        "chaos",
        help="run the scripted fault-injection scenario end-to-end",
    )
    chaos.add_argument("--seed", type=int, default=0,
                       help="seeds dataset, fault plan, and jitter RNGs")
    chaos.add_argument("--out",
                       help="directory for chaos_log.jsonl, "
                            "chaos_report.json, chaos_metrics.prom, "
                            "chaos_slo_report.json")
    chaos.add_argument("--scale", type=float, default=0.05,
                       help="deployment scale vs the paper's Table 1")
    chaos.set_defaults(func=_cmd_chaos)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point.

    A missing ``--dataset``/``--frozen`` file or a corrupt archive exits
    2 with one line on stderr instead of a traceback.
    """
    from repro.stream.checkpoint import stored_path

    parser = build_parser()
    args = parser.parse_args(argv)
    for option, what in (("dataset", "dataset"), ("frozen", "frozen profile")):
        path = getattr(args, option, None)
        if path and not stored_path(path).is_file():
            print(f"error: {what} {path} does not exist", file=sys.stderr)
            return 2
    try:
        return args.func(args)
    except CheckpointCorrupt as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
