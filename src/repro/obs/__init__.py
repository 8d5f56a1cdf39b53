"""Unified telemetry: metrics registry, tracing spans, logs, profiling.

Every execution mode of the reproduction — the batch pipeline
(:mod:`repro.core.pipeline`), online ingestion (:mod:`repro.stream`),
and concurrent serving (:mod:`repro.serve`) — reports through this one
zero-dependency layer:

* :class:`MetricsRegistry` — process-wide counter/gauge/histogram
  families with labels, exposed as Prometheus text (the serve
  endpoint's ``GET /metrics``) or JSON (``repro-icn obs dump``); every
  latency quantile is interpolated from a histogram's buckets
  (:func:`~repro.obs.registry.bucket_quantile`);
* :func:`span` — the one timing primitive: every span observes its
  wall-clock into ``repro_stage_seconds{stage=<name>}``, and with
  tracing on it is also recorded into a :class:`TraceStore` ring buffer
  with Chrome ``trace_event`` export for flamegraphs
  (``repro-icn obs trace-export``);
* :func:`get_logger` — structured JSON-lines logging carrying the
  active trace/span ids;
* :class:`MetricsTSDB` — the one rolling metric history, recorded once
  per scrape, with ``rate()``/``delta()``/``quantile()`` queries behind
  ``GET /query`` and the ``repro-icn obs watch`` sparklines;
* :class:`SLOEngine` / :class:`AlertManager` — declarative SLOs judged
  as window increases of that history, with error-budget accounting
  and multi-window burn-rate alerting;
* :func:`run_checks` / :func:`service_health_checks` — liveness and
  readiness probes behind the serve endpoint's ``GET /healthz``;
* :class:`TraceContext` / :func:`inject` / :func:`extract` — W3C
  ``traceparent`` propagation so spans on both sides of an HTTP (or
  process) boundary assemble into one trace;
* :class:`ContinuousProfiler` — always-on stack sampling with a hard
  overhead budget, served at ``GET /debug/prof`` (speedscope /
  collapsed stacks).

Quickstart::

    from repro import generate_dataset, ICNProfiler
    from repro.obs import enable_tracing, get_registry, get_trace_store

    store = enable_tracing()
    dataset = generate_dataset(master_seed=0)
    profile = ICNProfiler(n_clusters=9).fit(dataset)
    profile.explain(samples_per_cluster=10)

    store.export_chrome("trace.json")          # chrome://tracing
    print(get_registry().prometheus_text())    # scrape-able metrics
"""

from repro.obs.registry import (
    DEFAULT_BUCKETS,
    Counter,
    Exemplar,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    set_registry,
)
from repro.obs.trace import (
    DEFAULT_TRACE_CAPACITY,
    SpanRecord,
    TraceContext,
    TraceStore,
    current_context,
    current_span,
    current_span_id,
    current_trace_id,
    disable_tracing,
    enable_tracing,
    extract,
    get_trace_store,
    inject,
    span,
    tracing_enabled,
)
from repro.obs.logs import (
    LEVELS,
    StructLogger,
    get_logger,
    set_log_level,
    set_log_stream,
)
from repro.obs.slo import SLO, SLOEngine, default_slos
from repro.obs.alerts import (
    ALERT_STATES,
    Alert,
    AlertManager,
    BurnRateRule,
    default_rules,
)
from repro.obs.health import (
    HealthCheck,
    HealthReport,
    run_checks,
    service_health_checks,
)
from repro.obs.prof import ContinuousProfiler
from repro.obs.tsdb import MetricsTSDB, QueryError

__all__ = [
    "ALERT_STATES",
    "Alert",
    "AlertManager",
    "BurnRateRule",
    "ContinuousProfiler",
    "Counter",
    "DEFAULT_BUCKETS",
    "DEFAULT_TRACE_CAPACITY",
    "Exemplar",
    "Gauge",
    "HealthCheck",
    "HealthReport",
    "Histogram",
    "LEVELS",
    "MetricsRegistry",
    "MetricsTSDB",
    "QueryError",
    "SLO",
    "SLOEngine",
    "SpanRecord",
    "StructLogger",
    "TraceContext",
    "TraceStore",
    "current_context",
    "current_span",
    "current_span_id",
    "current_trace_id",
    "default_rules",
    "default_slos",
    "disable_tracing",
    "enable_tracing",
    "extract",
    "get_logger",
    "get_registry",
    "get_trace_store",
    "inject",
    "run_checks",
    "service_health_checks",
    "set_log_level",
    "set_log_stream",
    "set_registry",
    "span",
    "tracing_enabled",
]
