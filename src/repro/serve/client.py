"""HTTP client for the serving subsystem.

:class:`HttpServeClient` speaks the JSON protocol of
:mod:`repro.serve.http` over kept-alive :mod:`http.client` connections,
for end-to-end checks against a live server.  In-process callers use
:class:`~repro.serve.service.ProfileService` directly.

Trace propagation: every :class:`HttpServeClient` request runs inside a
``client.request`` span and carries the active trace as a W3C
``traceparent`` header (:func:`repro.obs.trace.inject`), so the server's
``serve.http`` span tree parents onto the caller's trace — one merged
trace across the process boundary.
"""

from __future__ import annotations

import http.client
import json
import threading
import urllib.parse
from typing import Dict, List, Optional

import numpy as np

from repro.obs.trace import inject, span
from repro.serve.scheduler import ShedRequest


class HttpServeClient:
    """Keep-alive client for the JSON endpoint.

    Connections persist across calls: each call takes an idle one (or
    opens one) and hands it back when done, so a thread calling in
    sequence keeps reusing one connection and concurrent threads hold
    one each.  A request that fails because the server closed an idle
    connection (see :data:`repro.serve.http.READ_TIMEOUT_S`) is sent
    again; only a failure on a fresh connection is raised.  :meth:`close`
    (or leaving a ``with`` block) closes the idle connections.

    Raises:
        ShedRequest: on HTTP 429 (mirrors the in-process behaviour).
        RuntimeError: on any other non-2xx response.
    """

    def __init__(self, base_url: str, timeout: float = 10.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        parts = urllib.parse.urlsplit(self.base_url)
        self._connection_class = (
            http.client.HTTPSConnection if parts.scheme == "https"
            else http.client.HTTPConnection
        )
        self._netloc = parts.netloc
        self._prefix = parts.path
        self._idle: List[http.client.HTTPConnection] = []
        self._lock = threading.Lock()

    def close(self) -> None:
        """Close the idle connections (calls made later open new ones)."""
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    def __enter__(self) -> "HttpServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _send(self, method: str, path: str, body: Optional[bytes],
              headers: Dict[str, str]) -> bytes:
        """One exchange on a kept-alive connection; the raw 2xx body."""
        while True:
            with self._lock:
                conn = self._idle.pop() if self._idle else None
            if conn is None:
                conn = self._connection_class(self._netloc,
                                              timeout=self.timeout)
            reused = conn.sock is not None
            try:
                conn.request(method, self._prefix + path, body, headers)
                response = conn.getresponse()
                payload = response.read()
            except ConnectionError:
                conn.close()
                if reused:
                    continue  # the server closed this idle connection
                raise
            except BaseException:
                conn.close()
                raise
            break
        with self._lock:
            self._idle.append(conn)
        if response.status == 429:
            retry_after = float(response.getheader("Retry-After", "0.05"))
            raise ShedRequest(-1, -1, retry_after)
        if not 200 <= response.status < 300:
            text = payload.decode("utf-8", errors="replace")
            raise RuntimeError(f"HTTP {response.status}: {text}")
        return payload

    def _request(self, path: str, payload: Optional[dict] = None) -> bytes:
        body = None
        headers: Dict[str, str] = {}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        with span("client.request", path=path, url=self.base_url):
            # Inside the span so the header names *this* request's span
            # as the remote parent (a no-op when tracing is off).
            inject(headers)
            return self._send("POST" if body is not None else "GET",
                              path, body, headers)

    def _json(self, path: str, payload: Optional[dict] = None) -> dict:
        return json.loads(self._request(path, payload).decode("utf-8"))

    def classify(self, vectors) -> dict:
        """POST /classify with RSCA rows; returns the raw JSON answer."""
        return self._json(
            "/classify", {"vectors": np.asarray(vectors, dtype=float).tolist()}
        )

    def classify_volumes(self, volumes) -> dict:
        """POST /classify with raw volumes; returns the raw JSON answer."""
        return self._json(
            "/classify", {"volumes": np.asarray(volumes, dtype=float).tolist()}
        )

    def healthz(self) -> dict:
        """GET /healthz."""
        return self._json("/healthz")

    def clusters(self) -> dict:
        """GET /clusters."""
        return self._json("/clusters")

    def metrics(self) -> dict:
        """GET /metrics.json — the structured node snapshot."""
        return self._json("/metrics.json")

    def metrics_text(self) -> str:
        """GET /metrics — the Prometheus text exposition."""
        return self._request("/metrics").decode("utf-8")
