"""Stdlib HTTP endpoint over a :class:`ProfileService`.

A :class:`~http.server.ThreadingHTTPServer` front-end — one handler
thread per connection, all funnelling into the shared service (whose
micro-batcher aggregates them).  JSON in, JSON out, no dependencies:

* ``GET  /healthz``      — liveness + readiness: runs the standard
  :func:`repro.obs.health.service_health_checks` probe set (profile
  loaded, queue headroom, breaker state, error budgets) and answers
  200 while healthy, 503 with the failing checks otherwise;
* ``GET  /slo``          — JSON error-budget report from the attached
  :class:`~repro.obs.slo.SLOEngine` plus the
  :class:`~repro.obs.alerts.AlertManager` alert states (404 when the
  server was built without an engine);
* ``GET  /clusters``     — per-cluster occupancy/centroid summaries;
* ``GET  /metrics``      — Prometheus text exposition of the node's
  :class:`~repro.obs.MetricsRegistry` (qps, latency histograms and
  quantiles, cache, shed, queue depth, profile version);
* ``GET  /metrics.json`` — :meth:`ProfileService.metrics_snapshot`;
* ``GET  /query``        — metric-history queries against the attached
  :class:`~repro.obs.tsdb.MetricsTSDB`, the SLO engine's own when one
  is attached (404 when the server has neither):
  ``?expr=rate(repro_serve_requests_total[60s])`` with an optional
  ``&range=N`` seconds override; answers the evaluated value plus the
  per-interval sample series behind it;
* ``GET  /debug/prof``   — the attached continuous profiler's
  (:class:`~repro.obs.prof.ContinuousProfiler`; 404 when absent) view
  of the trailing ``?seconds=N``: speedscope JSON by default,
  collapsed-stack text with ``&format=collapsed``;
* ``POST /classify``     — body ``{"vectors": [[...], ...]}`` (RSCA rows)
  or ``{"volumes": [[...], ...]}`` (raw per-service MB); responds
  ``{"labels": [...], "version": V, "cached": C, "degraded": bool}``.

Every scrape of ``/metrics``, ``/metrics.json``, ``/slo``, ``/query``,
or ``/healthz`` first records the one metric history (through the SLO
engine's tick when one is attached, which also refreshes its gauges)
and re-evaluates the alert rules, so the exported series are current as
of the scrape — no background evaluator thread needed.

Trace propagation: every request runs inside a ``serve.http`` span, and
when the request carries a W3C ``traceparent`` header the span parents
onto the caller's trace (see :func:`repro.obs.trace.extract`) — a
client-side trace and the server-side handler/vote spans assemble into
one tree in the Chrome export.

Transport: status line, headers and body go through a buffered
``wfile`` flushed once per response, on a socket with ``TCP_NODELAY``
set, so a response that fits the buffer leaves in one send and none
waits on the client's delayed ACK on a kept-alive connection.  Each
connection's socket operations time out after :data:`READ_TIMEOUT_S`:
an idle keep-alive connection is then closed, and a request body that
stops short of its ``Content-Length`` is answered 408.  Any reply that leaves
a declared body unread carries ``Connection: close``, so unread bytes
are never parsed as the next request.

Error mapping: malformed input -> 400; body not received in time -> 408;
body over :data:`MAX_BODY_BYTES` -> 413; no profile loaded -> 503;
admission shed -> 429 with a ``Retry-After`` header; unknown path ->
404.  Anything unexpected inside a handler -> 500 with a **structured
JSON body** (``error``/``error_type``/``request_id``/``trace_id``) —
never a bare status line — and a structured log line carrying the same
correlation ids, so an operator can join the client-visible failure to
the server-side trace.
"""

from __future__ import annotations

import itertools
import json
import socket
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional

import numpy as np

from repro.obs import current_trace_id, get_logger, span
from repro.obs.alerts import AlertManager
from repro.obs.health import run_checks, service_health_checks
from repro.obs.prof import ContinuousProfiler
from repro.obs.slo import SLOEngine
from repro.obs.trace import extract
from repro.obs.tsdb import MetricsTSDB, QueryError
from repro.serve.scheduler import ShedRequest
from repro.serve.service import ProfileService

#: Largest request body accepted, in bytes (guards the JSON parser).
MAX_BODY_BYTES = 8 * 1024 * 1024
#: Seconds a connection's socket may block on one read or write: bounds
#: how long an idle keep-alive connection or a short body pins a thread.
READ_TIMEOUT_S = 10.0

_log = get_logger("repro.serve.http")
_request_ids = itertools.count(1)


class ServeHandler(BaseHTTPRequestHandler):
    """JSON request handler bound to the server's :class:`ProfileService`."""

    server_version = "repro-serve/1.0"
    protocol_version = "HTTP/1.1"
    # Status line, headers and body collect in the write buffer and leave
    # in one send; with Nagle off nothing waits on the peer's delayed ACK.
    wbufsize = -1
    disable_nagle_algorithm = True
    #: Whether this request declared a body no route has read yet.
    _body_unread = False

    @property
    def service(self) -> ProfileService:
        return self.server.service  # type: ignore[attr-defined]

    def setup(self) -> None:
        # Read at connection time so the module constant stays tunable.
        self.timeout = READ_TIMEOUT_S
        super().setup()

    def handle_expect_100(self) -> bool:
        # The client holds its body back until this interim answer.
        accepted = super().handle_expect_100()
        self.wfile.flush()
        return accepted

    # ------------------------------------------------------------------
    # Responses
    # ------------------------------------------------------------------

    def _respond(self, status: int, payload: dict,
                 headers: Optional[dict] = None) -> None:
        body = json.dumps(payload).encode("utf-8")
        self._respond_bytes(status, body, "application/json", headers)

    def _respond_bytes(self, status: int, body: bytes, content_type: str,
                       headers: Optional[dict] = None) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        if self._body_unread:
            # Unread body bytes would be parsed as the next request.
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)
        self.wfile.flush()

    def _error(self, status: int, message: str,
               headers: Optional[dict] = None) -> None:
        self._respond(status, {"error": message}, headers)

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib handler naming
        self._handle(self._route_get)

    def do_POST(self) -> None:  # noqa: N802 - stdlib handler naming
        self._handle(self._route_post)

    def _handle(self, route) -> None:
        """Run one route inside a span with last-resort error mapping.

        A route that raises anything its own mapping did not anticipate
        must still produce a structured JSON 500 (clients parse every
        body) and a correlated server-side log line — a silent bare 500
        is an operational dead end.
        """
        request_id = f"req-{next(_request_ids):08x}"
        self._body_unread = (
            self.headers.get("Content-Length", "0").strip() != "0"
            or "Transfer-Encoding" in self.headers
        )
        # A caller that propagates trace context (HttpServeClient does,
        # any W3C-instrumented client will) parents this request's span
        # tree onto its own trace instead of rooting a fresh one.
        parent = extract(dict(self.headers.items()))
        with span("serve.http", parent=parent,
                  registry=self.service.metrics.registry, method=self.command,
                  path=self.path, request_id=request_id) as record:
            try:
                route()
            except Exception as exc:  # noqa: BLE001 - last-resort mapping
                if record is not None:
                    record.attributes["error"] = True
                    record.attributes["error_type"] = type(exc).__name__
                trace_id = current_trace_id()
                _log.error(
                    "unhandled_handler_error",
                    request_id=request_id,
                    method=self.command,
                    path=self.path,
                    error_type=type(exc).__name__,
                    error=str(exc),
                )
                self.service.metrics.incr("errors")
                try:
                    self._respond(500, {
                        "error": "internal server error",
                        "error_type": type(exc).__name__,
                        "detail": str(exc),
                        "request_id": request_id,
                        "trace_id": trace_id,
                    })
                except OSError:
                    # Client already hung up; the log line above is all
                    # that remains of this request.
                    pass

    def _refresh_slo(self) -> None:
        """Record the history once and re-judge the alerts for this scrape."""
        engine = getattr(self.server, "slo_engine", None)
        tsdb = getattr(self.server, "tsdb", None)
        if engine is not None:
            engine.tick()
        elif tsdb is not None:
            tsdb.record()
        manager = getattr(self.server, "alert_manager", None)
        if manager is not None:
            manager.evaluate()

    def _query_params(self) -> Dict[str, str]:
        """Single-valued query parameters of this request's URL."""
        query = urllib.parse.urlsplit(self.path).query
        return {
            name: values[-1]
            for name, values in urllib.parse.parse_qs(query).items()
        }

    def _route_query(self) -> None:
        """``GET /query?expr=...&range=...`` against the attached TSDB."""
        tsdb = getattr(self.server, "tsdb", None)
        if tsdb is None:
            self._error(404, "no metrics TSDB attached to this server")
            return
        self._refresh_slo()
        params = self._query_params()
        expr = params.get("expr")
        if not expr:
            self._error(400, "missing required parameter 'expr'")
            return
        range_s: Optional[float] = None
        if "range" in params:
            try:
                range_s = float(params["range"])
            except ValueError:
                self._error(400, f"invalid range {params['range']!r}")
                return
        try:
            self._respond(200, tsdb.query(expr, range_s=range_s))
        except QueryError as exc:
            self._error(400, str(exc))

    def _route_prof(self) -> None:
        """``GET /debug/prof?seconds=N&format=...`` from the profiler."""
        profiler = getattr(self.server, "profiler", None)
        if profiler is None:
            self._error(404, "no continuous profiler attached to this server")
            return
        params = self._query_params()
        seconds: Optional[float] = None
        if "seconds" in params:
            try:
                seconds = float(params["seconds"])
            except ValueError:
                self._error(400, f"invalid seconds {params['seconds']!r}")
                return
            if seconds <= 0:
                self._error(400, "seconds must be positive")
                return
        fmt = params.get("format", "speedscope")
        if fmt == "collapsed":
            self._respond_bytes(
                200,
                profiler.collapsed_text(seconds=seconds).encode("utf-8"),
                "text/plain; charset=utf-8",
            )
        elif fmt == "speedscope":
            self._respond(200, profiler.speedscope(seconds=seconds))
        else:
            self._error(
                400, f"unknown format {fmt!r} (speedscope or collapsed)"
            )

    def _route_get(self) -> None:
        if self.path.startswith("/query"):
            self._route_query()
            return
        if self.path.startswith("/debug/prof"):
            self._route_prof()
            return
        if self.path == "/healthz":
            self._refresh_slo()
            engine = getattr(self.server, "slo_engine", None)
            report = run_checks(
                service_health_checks(self.service, engine=engine)
            )
            body = report.to_dict()
            # Kept from the pre-SLO handler: clients and tests key off
            # the served profile version in the health body.
            body["profile_version"] = self.service.registry.current_version()
            self._respond(200 if report.ok else 503, body)
        elif self.path == "/slo":
            self._refresh_slo()
            engine = getattr(self.server, "slo_engine", None)
            if engine is None:
                self._error(404, "no SLO engine attached to this server")
                return
            body = engine.report()
            manager = getattr(self.server, "alert_manager", None)
            body["alerts"] = manager.report() if manager is not None else []
            self._respond(200, body)
        elif self.path == "/clusters":
            try:
                self._respond(200, self.service.cluster_summaries())
            except RuntimeError as exc:
                self._error(503, str(exc))
        elif self.path == "/metrics":
            self._refresh_slo()
            self._respond_bytes(
                200,
                self.service.metrics.registry.prometheus_text().encode(
                    "utf-8"),
                "text/plain; version=0.0.4; charset=utf-8",
            )
        elif self.path == "/metrics.json":
            self._refresh_slo()
            self._respond(200, self.service.metrics_snapshot())
        else:
            self._error(404, f"unknown path {self.path!r}")

    def _route_post(self) -> None:
        if self.path != "/classify":
            self._error(404, f"unknown path {self.path!r}")
            return
        payload = self._read_json()
        if payload is None:
            return
        vectors = payload.get("vectors")
        volumes = payload.get("volumes")
        if (vectors is None) == (volumes is None):
            self._error(
                400, "body must contain exactly one of 'vectors' or 'volumes'"
            )
            return
        try:
            if vectors is not None:
                result = self.service.classify(np.asarray(vectors, dtype=float))
            else:
                result = self.service.classify_volumes(
                    np.asarray(volumes, dtype=float)
                )
        except ShedRequest as exc:
            self._error(
                429, str(exc), {"Retry-After": f"{exc.retry_after:.3f}"}
            )
        except (TypeError, ValueError, OverflowError) as exc:
            self._error(400, str(exc))
        except RuntimeError as exc:
            self._error(503, str(exc))
        else:
            self._respond(
                200,
                {
                    "labels": [int(label) for label in result.labels],
                    "version": result.version,
                    "cached": result.n_cached,
                    "degraded": bool(result.degraded),
                },
            )

    def _read_json(self) -> Optional[dict]:
        """The request body as a JSON object, or None once an error is sent."""
        if "Transfer-Encoding" in self.headers:
            self._error(411, "request body needs a Content-Length")
            return None
        declared = self.headers.get("Content-Length", "0").strip()
        if not (declared.isascii() and declared.isdigit()):
            self._error(400, "invalid Content-Length")
            return None
        length = int(declared)
        if length == 0:
            self._error(400, "empty request body")
            return None
        if length > MAX_BODY_BYTES:
            self._error(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
            return None
        try:
            raw = self.rfile.read(length)
        except socket.timeout:
            self._error(
                408, f"request body not received within {READ_TIMEOUT_S} s"
            )
            return None
        self._body_unread = False
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (ValueError, RecursionError):
            # ValueError covers undecodable bytes, malformed JSON and
            # integer literals past Python's int-string digit limit;
            # RecursionError, arrays nested past the parser's depth.
            self._error(400, "request body is not valid JSON")
            return None
        if not isinstance(payload, dict):
            self._error(400, "request body must be a JSON object")
            return None
        return payload

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)


class ServeHTTPServer(ThreadingHTTPServer):
    """Threaded HTTP server owning a shared :class:`ProfileService`.

    When built with an :class:`SLOEngine` (and optionally an
    :class:`AlertManager`), the server exposes ``GET /slo`` and folds
    budget state into ``GET /healthz`` readiness; both are refreshed on
    every scrape.  The engine's TSDB is the server's ``tsdb`` (it backs
    ``GET /query``); a different one is rejected.
    """

    daemon_threads = True

    def __init__(self, address, service: ProfileService,
                 verbose: bool = False,
                 slo_engine: Optional[SLOEngine] = None,
                 alert_manager: Optional[AlertManager] = None,
                 profiler: Optional[ContinuousProfiler] = None,
                 tsdb: Optional[MetricsTSDB] = None) -> None:
        if slo_engine is not None:
            if tsdb is None:
                tsdb = slo_engine.tsdb
            elif tsdb is not slo_engine.tsdb:
                raise ValueError(
                    "tsdb must be the SLO engine's own history"
                )
        super().__init__(address, ServeHandler)
        self.service = service
        self.verbose = verbose
        self.slo_engine = slo_engine
        self.alert_manager = alert_manager
        self.profiler = profiler
        self.tsdb = tsdb


def make_server(service: ProfileService, host: str = "127.0.0.1",
                port: int = 8080, **options) -> ServeHTTPServer:
    """Bind a :class:`ServeHTTPServer` (``port=0`` picks a free port).

    ``options`` are the server's keyword arguments: ``verbose``,
    ``slo_engine``, ``alert_manager``, ``profiler`` and ``tsdb``.
    """
    return ServeHTTPServer((host, port), service, **options)
