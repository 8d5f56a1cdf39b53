"""``repro-icn obs watch`` — a live ANSI terminal dashboard for one node.

Polls a serving node's ``GET /metrics.json`` (plus, when available,
``GET /slo``, ``GET /healthz``, and ``GET /query``) and renders an
operator view in the terminal: traffic (qps, requests, errors, shed),
the p50/p95/p99 latency trio, cache and queue pressure, profile
version, SLO error-budget bars, any pending/firing alerts, and — when
the node records history into a :class:`~repro.obs.tsdb.MetricsTSDB` —
unicode sparklines of request rate, error rate, and queue depth backed
by the node's real sample rings rather than client-side guesswork.
Pure stdlib — :mod:`urllib` for the polling, ANSI escape codes for the
paint.

The renderer (:func:`render_dashboard`) is a pure function from the
three JSON payloads to a string, so tests exercise layout and
colour-threshold logic without sockets or timing; :func:`watch` is the
thin poll-clear-paint loop the CLI drives.  Colours degrade gracefully:
pass ``color=False`` (or pipe to a non-TTY via the CLI) for plain text.
"""

from __future__ import annotations

import json
import math
import time
import urllib.error
import urllib.parse
import urllib.request
from typing import Callable, Dict, List, Optional, TextIO

from repro.obs.tsdb import sparkline

__all__ = [
    "DEFAULT_HISTORY_EXPRS",
    "fetch_history",
    "fetch_json",
    "render_dashboard",
    "watch",
]

#: Sparkline panes painted by default: label -> /query expression.
DEFAULT_HISTORY_EXPRS: Dict[str, str] = {
    "req/s": "rate(repro_serve_requests_total[120s])",
    "err/s": "rate(repro_serve_errors_total[120s])",
    "queue": "repro_serve_queue_depth[120s]",
}

#: ANSI escape codes used by the renderer.
_RESET = "\x1b[0m"
_BOLD = "\x1b[1m"
_DIM = "\x1b[2m"
_RED = "\x1b[31m"
_GREEN = "\x1b[32m"
_YELLOW = "\x1b[33m"
_CLEAR = "\x1b[2J\x1b[H"

#: Width of the error-budget bar, characters.
_BAR_WIDTH = 24


def fetch_json(url: str, timeout_s: float = 2.0) -> Optional[dict]:
    """GET ``url`` and parse the JSON body; None on any failure.

    Health endpoints answer 503 with a JSON body when unhealthy — that
    body is still returned (the dashboard wants the failing checks, not
    just the status code).
    """
    try:
        with urllib.request.urlopen(url, timeout=timeout_s) as response:
            payload = json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        try:
            payload = json.loads(exc.read().decode("utf-8"))
        except (ValueError, OSError):
            return None
    except (urllib.error.URLError, OSError, ValueError):
        return None
    return payload if isinstance(payload, dict) else None


def _paint(text: str, code: str, color: bool) -> str:
    return f"{code}{text}{_RESET}" if color else text


def _budget_bar(remaining: float, color: bool) -> str:
    """``[######----] 62%`` — clamped to [0, 1] for the bar itself."""
    clamped = max(0.0, min(1.0, remaining))
    filled = int(round(clamped * _BAR_WIDTH))
    bar = "#" * filled + "-" * (_BAR_WIDTH - filled)
    if remaining < 0.0:
        code = _RED
    elif remaining < 0.25:
        code = _YELLOW
    else:
        code = _GREEN
    return f"[{_paint(bar, code, color)}] {remaining * 100:6.1f}%"


def _fmt(value: object, spec: str = "", fallback: str = "n/a") -> str:
    if value is None:
        return fallback
    # NaN formats "successfully" as the string "nan", which reads like a
    # metric named nan rather than an absent value — treat it as n/a
    # (quantiles of an empty histogram arrive as NaN, not None).
    if isinstance(value, float) and math.isnan(value):
        return fallback
    try:
        return format(value, spec) if spec else str(value)
    except (TypeError, ValueError):
        return fallback


def _history_values(payload: dict) -> List[float]:
    """Sparkline-able values from one ``/query`` response body.

    ``rate()`` responses carry the raw cumulative counter samples; the
    painted history is the per-interval rate between consecutive
    samples (what an operator means by "qps over time").  Everything
    else paints the sample values as-is.
    """
    series = payload.get("series") or []
    if not series:
        return []
    samples = series[0].get("samples") or []
    pairs = [
        (float(t), float(v)) for t, v in samples
        if isinstance(t, (int, float)) and isinstance(v, (int, float))
    ]
    if payload.get("fn") == "rate":
        return [
            (v1 - v0) / (t1 - t0)
            for (t0, v0), (t1, v1) in zip(pairs, pairs[1:]) if t1 > t0
        ]
    return [v for _, v in pairs]


def fetch_history(
    base_url: str,
    exprs: Optional[Dict[str, str]] = None,
    timeout_s: float = 2.0,
) -> Dict[str, List[float]]:
    """Poll ``GET /query`` once per expression; label -> value history.

    Nodes without a TSDB answer 404 (an ``error`` JSON body) — those
    panes are silently absent rather than painted empty.
    """
    base = base_url.rstrip("/")
    history: Dict[str, List[float]] = {}
    for label, expr in (exprs or DEFAULT_HISTORY_EXPRS).items():
        url = f"{base}/query?expr={urllib.parse.quote(expr)}"
        payload = fetch_json(url, timeout_s=timeout_s)
        if payload is None or payload.get("error") is not None:
            continue
        values = _history_values(payload)
        if values:
            history[label] = values
    return history


def render_dashboard(
    metrics: Optional[dict],
    slo: Optional[dict] = None,
    health: Optional[dict] = None,
    color: bool = True,
    url: str = "",
    history: Optional[Dict[str, List[float]]] = None,
) -> str:
    """Render one dashboard frame from the polled JSON payloads.

    Args:
        metrics: the ``/metrics.json`` body (None paints an unreachable
            banner instead of panes).
        slo: the ``/slo`` body (``slos`` + ``alerts`` lists), optional.
        health: the ``/healthz`` body, optional.
        color: emit ANSI colour codes.
        url: node URL shown in the header.
        history: label -> value series (see :func:`fetch_history`),
            painted as unicode sparklines when non-empty.
    """
    lines: List[str] = []
    title = "repro-icn serving node"
    if url:
        title += f" @ {url}"
    lines.append(_paint(title, _BOLD, color))
    if metrics is None:
        lines.append(_paint("  node unreachable", _RED, color))
        return "\n".join(lines) + "\n"

    counters = metrics.get("counters", {}) or {}
    derived = metrics.get("derived", {}) or {}
    cache = metrics.get("cache", {}) or {}

    status = None
    if health is not None:
        healthy = health.get("status") == "ok"
        status = _paint(
            "HEALTHY" if healthy else "UNHEALTHY",
            _GREEN if healthy else _RED, color,
        )
    version = metrics.get("profile_version")
    lines.append(
        f"  profile v{_fmt(version)}"
        + (f"  ·  {status}" if status is not None else "")
    )
    lines.append("")

    lines.append(_paint("traffic", _BOLD, color))
    lines.append(
        f"  qps {_fmt(derived.get('qps'), '8.1f')}"
        f"   requests {_fmt(counters.get('requests'), '>10')}"
        f"   errors {_fmt(counters.get('errors'), '>8')}"
        f"   shed {_fmt(counters.get('shed_requests'), '>8')}"
    )
    lines.append(
        f"  latency ms   p50 {_fmt(derived.get('p50_ms'), '7.2f')}"
        f"   p95 {_fmt(derived.get('p95_ms'), '7.2f')}"
        f"   p99 {_fmt(derived.get('p99_ms'), '7.2f')}"
    )
    hit_rate = derived.get("cache_hit_rate")
    lines.append(
        f"  cache hit {_fmt(hit_rate, '6.1%')}"
        f"   entries {_fmt(cache.get('size'), '>8')}"
        f"   queue {_fmt(metrics.get('queue_depth'), '>4')}"
        f"/{_fmt(metrics.get('max_queue_depth'))}"
        f"   mean batch {_fmt(derived.get('mean_batch_size'), '5.1f')}"
    )
    lines.append("")

    if history:
        lines.append(_paint("history", _BOLD, color))
        width = max(len(label) for label in history)
        for label, values in history.items():
            spark = sparkline(values)
            latest = values[-1] if values else None
            lines.append(
                f"  {label:<{width}}  {spark:<32}  {_fmt(latest, '10.2f')}"
            )
        lines.append("")

    if health is not None:
        failing = [
            check for check in health.get("checks", [])
            if not check.get("ok", True)
        ]
        if failing:
            lines.append(_paint("failing checks", _BOLD, color))
            for check in failing:
                code = _RED if check.get("critical") else _YELLOW
                lines.append(
                    "  "
                    + _paint(f"{check.get('name')}: {check.get('detail')}",
                             code, color)
                )
            lines.append("")

    if slo is not None:
        entries = slo.get("slos", []) or []
        if entries:
            lines.append(_paint("error budgets", _BOLD, color))
            width = max(len(str(e.get("name", ""))) for e in entries)
            for entry in entries:
                remaining = float(
                    entry.get("error_budget_remaining", 1.0) or 0.0
                )
                lines.append(
                    f"  {str(entry.get('name', '')):<{width}}  "
                    + _budget_bar(remaining, color)
                    + f"  compliance {_fmt(entry.get('compliance'), '8.4%')}"
                )
            lines.append("")
        alerts = slo.get("alerts", []) or []
        noisy = [
            a for a in alerts if a.get("state") in ("pending", "firing")
        ]
        lines.append(_paint("alerts", _BOLD, color))
        if not noisy:
            lines.append(
                "  " + _paint("none pending or firing", _DIM, color)
            )
        for alert in noisy:
            code = _RED if alert.get("state") == "firing" else _YELLOW
            line = (
                f"{alert.get('state', '?').upper():>7}  "
                f"{alert.get('name')}  "
                f"burn {_fmt(alert.get('burn_long'), '.1f')}"
                f"/{_fmt(alert.get('burn_short'), '.1f')}"
                f" > {_fmt(alert.get('burn_threshold'), '.1f')}"
            )
            trace_id = alert.get("exemplar_trace_id")
            if trace_id:
                line += f"  trace {trace_id}"
            lines.append("  " + _paint(line, code, color))
        lines.append("")

    return "\n".join(lines) + "\n"


def watch(
    base_url: str,
    interval_s: float = 2.0,
    iterations: Optional[int] = None,
    stream: Optional[TextIO] = None,
    color: bool = True,
    clear: bool = True,
    sleep: Callable[[float], None] = time.sleep,
) -> int:
    """Poll the node and repaint until interrupted; returns frames painted.

    Args:
        base_url: node root, e.g. ``http://127.0.0.1:8080``.
        interval_s: seconds between polls.
        iterations: stop after this many frames (None runs until
            Ctrl-C).
        stream: output stream (``sys.stdout`` when None).
        color / clear: ANSI colour codes and screen-clear between
            frames.
        sleep: injectable pause for tests.
    """
    import sys

    out = stream if stream is not None else sys.stdout
    base = base_url.rstrip("/")
    frames = 0
    endpoints: Dict[str, str] = {
        "metrics": f"{base}/metrics.json",
        "slo": f"{base}/slo",
        "health": f"{base}/healthz",
    }
    try:
        while iterations is None or frames < iterations:
            metrics = fetch_json(endpoints["metrics"])
            slo = fetch_json(endpoints["slo"])
            health = fetch_json(endpoints["health"])
            history = fetch_history(base)
            frame = render_dashboard(
                metrics, slo=slo, health=health, color=color, url=base,
                history=history,
            )
            if clear:
                out.write(_CLEAR)
            out.write(frame)
            out.flush()
            frames += 1
            if iterations is not None and frames >= iterations:
                break
            sleep(interval_s)
    except KeyboardInterrupt:
        pass
    return frames
