"""In-process metrics time series: ring buffers, rate/delta/quantile queries.

The :class:`~repro.obs.registry.MetricsRegistry` answers "what is the
cumulative value *now*"; this module remembers what the answer was.  A
:class:`MetricsTSDB` walks the registry on every :meth:`~MetricsTSDB.record`
call (the serve HTTP layer records once per scrape — no background
thread) and appends one ``(t, value)`` sample per concrete series into a
fixed-capacity :class:`SeriesRing`.  Histograms fan out into
``<name>_count``, ``<name>_sum``, and per-bound ``<name>_bucket`` rings
so distribution quantiles can be computed *over a trailing window*
instead of over the process lifetime.

This history is the only one: the SLO engine (:mod:`repro.obs.slo`)
judges its windows from the recorded good and total series, and asks
(:meth:`~MetricsTSDB.retain`) for deeper rings on the few series it
reads.  A counter or histogram series first seen at a
record starts from 0 at the previous record's time, so events counted
before its first sample still land in every window that spans them.

On top of the rings sits a deliberately small query language — the
subset of PromQL the dashboards actually need::

    repro_serve_requests_total                 # latest recorded value
    rate(repro_serve_requests_total[60s])      # per-second increase
    delta(repro_serve_queue_depth[30s])        # last - first over window
    quantile(0.99, repro_serve_request_latency_seconds[60s])

Selectors accept an optional ``{label=value,...}`` filter.  ``rate`` and
``delta`` anchor on the recorded samples inside the window (at least two
samples required) and handle counter resets by summing positive
per-interval increases, so the evaluated number is a pure function of
the recorded samples — tests hand-compute it.  ``quantile`` applies the
standard Prometheus linear interpolation to the *windowed* bucket
increases of a histogram family.

``GET /query?expr=...&range=...`` on a serve node exposes
:meth:`MetricsTSDB.query` verbatim, and ``repro-icn obs watch`` paints
its ``samples`` arrays as sparklines.
"""

from __future__ import annotations

import bisect
import math
from itertools import accumulate
import re
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs.registry import (
    Histogram,
    MetricsRegistry,
    _format_value,
    bucket_quantile,
    get_registry,
)

__all__ = [
    "MetricsTSDB",
    "QueryError",
    "SeriesRing",
    "sparkline",
]


class QueryError(ValueError):
    """A query expression that cannot be parsed or evaluated."""


class SeriesRing:
    """Fixed-capacity append-only ring of ``(t, value)`` samples.

    Appends must arrive in non-decreasing time order (the TSDB
    serializes its records); a time that slips backwards is clamped to
    the newest recorded time rather than corrupting the order
    invariant.  All reads return copies, so callers never hold the lock
    while iterating.
    """

    __slots__ = ("capacity", "_times", "_values", "_lock")

    def __init__(self, capacity: int = 720) -> None:
        if capacity < 2:
            raise ValueError(f"capacity must be >= 2, got {capacity}")
        self.capacity = int(capacity)
        self._times: List[float] = []
        self._values: List[float] = []
        self._lock = threading.Lock()

    def append(self, t: float, value: float) -> float:
        """Record one sample; returns the (possibly clamped) time used."""
        t = float(t)
        with self._lock:
            if self._times and t < self._times[-1]:
                t = self._times[-1]
            self._times.append(t)
            self._values.append(float(value))
            if len(self._times) > self.capacity:
                del self._times[:-self.capacity]
                del self._values[:-self.capacity]
        return t

    def __len__(self) -> int:
        with self._lock:
            return len(self._times)

    def latest(self) -> Optional[Tuple[float, float]]:
        """Newest ``(t, value)`` sample, or None when empty."""
        with self._lock:
            if not self._times:
                return None
            return self._times[-1], self._values[-1]

    def samples(self, range_s: Optional[float] = None,
                now: Optional[float] = None) -> List[Tuple[float, float]]:
        """Samples with ``t >= now - range_s`` (all samples when None)."""
        with self._lock:
            times = list(self._times)
            values = list(self._values)
        if range_s is None or not times:
            return list(zip(times, values))
        end = float(now) if now is not None else times[-1]
        start = end - float(range_s)
        return [
            (t, v) for t, v in zip(times, values)
            if start <= t <= end
        ]

    def bounds(self, range_s: float, now: Optional[float] = None) -> Tuple[
        Optional[Tuple[float, float]], Optional[Tuple[float, float]]
    ]:
        """``(anchor, end)`` samples delimiting the trailing window.

        ``anchor`` is the latest sample at or before ``now - range_s``
        (the oldest sample when history is shorter than the window, so
        short histories still produce honest deltas), ``end`` the latest
        sample at or before ``now``.  ``(None, None)`` when the ring is
        empty or every sample is newer than ``now``.
        """
        with self._lock:
            times = self._times
            if not times:
                return None, None
            t = float(now) if now is not None else times[-1]
            end_index = bisect.bisect_right(times, t) - 1
            if end_index < 0:
                return None, None
            anchor_index = max(
                0, bisect.bisect_right(times, t - float(range_s)) - 1
            )
            return (
                (times[anchor_index], self._values[anchor_index]),
                (times[end_index], self._values[end_index]),
            )

    def delta(self, range_s: float, now: Optional[float] = None) -> float:
        """``end - anchor`` over the trailing window (0.0 when empty)."""
        anchor, end = self.bounds(range_s, now=now)
        if anchor is None or end is None:
            return 0.0
        return end[1] - anchor[1]

    def increase(self, range_s: float,
                 now: Optional[float] = None) -> Tuple[float, float]:
        """``(total_increase, elapsed_s)`` over the trailing window.

        Counter-reset aware: sums only the positive per-interval
        increments, so a process restart mid-window contributes the
        post-restart growth instead of a huge negative delta.  Elapsed
        is the time between the first and last in-window samples.
        """
        window = self.samples(range_s=range_s, now=now)
        if len(window) < 2:
            return 0.0, 0.0
        total = 0.0
        for (_, prev), (_, curr) in zip(window, window[1:]):
            if curr > prev:
                total += curr - prev
            elif curr < prev:
                # Reset: the counter restarted from ~0 and climbed to
                # `curr`; count the visible post-reset growth.
                total += curr
        return total, window[-1][0] - window[0][0]


#: ``name`` or ``name{label=value,...}`` with a trailing ``[Ns]`` range.
_SELECTOR_RE = re.compile(
    r"^\s*(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"(?:\[(?P<range>[0-9]*\.?[0-9]+)s\])?\s*$"
)
_FUNC_RE = re.compile(
    r"^\s*(?P<fn>rate|delta|quantile)\s*\((?P<body>.*)\)\s*$", re.DOTALL
)

#: A fully resolved series key: (series name, sorted label items).
_SeriesKey = Tuple[str, Tuple[Tuple[str, str], ...]]


def _parse_labels(text: Optional[str]) -> Dict[str, str]:
    labels: Dict[str, str] = {}
    if not text or not text.strip():
        return labels
    for part in text.split(","):
        if "=" not in part:
            raise QueryError(
                f"malformed label matcher {part.strip()!r} (want key=value)"
            )
        key, _, value = part.partition("=")
        labels[key.strip()] = value.strip().strip('"')
    return labels


class MetricsTSDB:
    """Rolling history of a :class:`MetricsRegistry`'s families.

    Args:
        registry: source of truth to snapshot (process-wide default
            registry when None).
        capacity: per-series ring size.  At one scrape per 2 s the
            default 720 samples hold ~24 minutes of history — plenty
            for rate windows and dashboard sparklines.  Series named in
            :meth:`retain` keep their own depth instead.
        min_interval_s: implicit-clock :meth:`record` calls closer
            together than this (or behind the last record) are
            coalesced into no-ops, so a scrape storm (every
            ``/metrics``, ``/query``, and ``/healthz`` hit records)
            cannot flush the ring with near-duplicate samples.
        clock: time source (monotonic by default; tests inject a
            synthetic one).
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        capacity: int = 720,
        min_interval_s: float = 0.25,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.registry = registry if registry is not None else get_registry()
        self.capacity = int(capacity)
        self.min_interval_s = float(min_interval_s)
        self.clock = clock
        self._lock = threading.Lock()
        self._series: Dict[_SeriesKey, SeriesRing] = {}
        self._retained: List[Tuple[str, Dict[str, str], int]] = []
        #: Records taken (coalesced calls excluded), and the newest's time.
        self.records = 0
        self.last_record: Optional[float] = None

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    def retain(self, name: str, labels: Dict[str, str],
               capacity: int) -> None:
        """Keep ``capacity`` samples of every series matching the selector.

        Applies to rings recorded already and to those created later;
        when several calls match one series the deepest wins.
        """
        rule = (name, dict(labels), max(2, int(capacity)))
        with self._lock:
            self._retained.append(rule)
            for key, ring in self._series.items():
                ring.capacity = self._depth(key)

    def _depth(self, key: _SeriesKey) -> int:
        name, labels = key
        items = dict(labels)
        depths = [
            capacity for rule_name, rule_labels, capacity in self._retained
            if rule_name == name
            and all(items.get(k) == v for k, v in rule_labels.items())
        ]
        return max(depths) if depths else self.capacity

    def _append(self, name: str, labels: Tuple[Tuple[str, str], ...],
                t: float, value: float, since: Optional[float]) -> None:
        """Append one sample; a new series seeded at 0 when ``since``."""
        key = (name, labels)
        ring = self._series.get(key)
        if ring is None:
            ring = SeriesRing(self._depth(key))
            self._series[key] = ring
            if since is not None:
                ring.append(since, 0.0)
        ring.append(t, value)

    def record(self, now: Optional[float] = None) -> int:
        """Snapshot every registry family; returns series touched.

        Records are serialized.  An explicit ``now`` behind the last
        record raises ``ValueError``; the implicit clock is rate-limited
        by ``min_interval_s``, and a reading behind the last record is
        coalesced like one that comes too soon.  Each series is read
        once: a histogram through one :meth:`Histogram.snapshot`.
        """
        with self._lock:
            last = self.last_record
            if now is not None:
                t = float(now)
                if last is not None and t < last:
                    raise ValueError(
                        f"record time {t} precedes last record {last}"
                    )
            else:
                t = self.clock()
                if last is not None and t - last < self.min_interval_s:
                    return 0
            self.last_record = t
            self.records += 1
            touched = 0
            for family in self.registry.families():
                # Cumulative series first seen now start from 0 at the
                # previous record, so their early events are windowed.
                since = last if family.kind != "gauge" else None
                for label_values, child in family.series():
                    labels = tuple(
                        zip(family.labelnames,
                            tuple(str(v) for v in label_values))
                    )
                    if family.kind != "histogram":
                        self._append(family.name, labels, t,
                                     float(child.value), since)
                        touched += 1
                        continue
                    assert isinstance(child, Histogram)
                    counts, total, count = child.snapshot()
                    self._append(f"{family.name}_count", labels, t,
                                 float(count), since)
                    self._append(f"{family.name}_sum", labels, t,
                                 float(total), since)
                    bounds = child.buckets + (math.inf,)
                    for bound, cumulative in zip(bounds, accumulate(counts)):
                        le = labels + (("le", _format_value(bound)),)
                        self._append(f"{family.name}_bucket", le, t,
                                     float(cumulative), since)
                    touched += 2 + len(bounds)
            return touched

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def series_names(self) -> List[str]:
        """Distinct recorded series names, sorted."""
        with self._lock:
            return sorted({name for name, _ in self._series})

    def select(self, name: str,
               labels: Optional[Dict[str, str]] = None) -> List[
                   Tuple[Dict[str, str], SeriesRing]]:
        """Rings recorded under ``name`` whose labels match the filter."""
        wanted = labels or {}
        with self._lock:
            items = sorted(
                (key_labels, ring)
                for (key_name, key_labels), ring in self._series.items()
                if key_name == name
            )
        matched = [(dict(key_labels), ring) for key_labels, ring in items]
        return [
            (series_labels, ring) for series_labels, ring in matched
            if all(series_labels.get(k) == v for k, v in wanted.items())
        ]

    def samples(self, name: str,
                labels: Optional[Dict[str, str]] = None,
                range_s: Optional[float] = None,
                now: Optional[float] = None) -> List[Tuple[float, float]]:
        """Merged in-window samples of every matching series.

        With one matching series this is its sample list verbatim; with
        several, samples are concatenated in time order (sparkline
        consumers sum per-series rates instead via :meth:`query`).
        """
        merged: List[Tuple[float, float]] = []
        for _, ring in self.select(name, labels):
            merged.extend(ring.samples(range_s=range_s, now=now))
        merged.sort(key=lambda sample: sample[0])
        return merged

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def rate(self, name: str, range_s: float,
             labels: Optional[Dict[str, str]] = None,
             now: Optional[float] = None) -> Optional[float]:
        """Summed per-second increase across matching series.

        None when no matching series holds two in-window samples (a
        rate over a single point is undefined, not zero).
        """
        total = 0.0
        defined = False
        for _, ring in self.select(name, labels):
            increase, elapsed = ring.increase(range_s, now=now)
            if elapsed > 0:
                total += increase / elapsed
                defined = True
        return total if defined else None

    def delta(self, name: str, range_s: float,
              labels: Optional[Dict[str, str]] = None,
              now: Optional[float] = None) -> Optional[float]:
        """Summed ``end - anchor`` across matching series (None if none)."""
        total = 0.0
        defined = False
        for _, ring in self.select(name, labels):
            anchor, end = ring.bounds(range_s, now=now)
            if anchor is not None and end is not None:
                total += end[1] - anchor[1]
                defined = True
        return total if defined else None

    def quantile_over_time(self, q: float, name: str, range_s: float,
                           labels: Optional[Dict[str, str]] = None,
                           now: Optional[float] = None) -> Optional[float]:
        """Quantile of a histogram family's *windowed* distribution.

        Computes the per-bucket count increase over the trailing window
        (summed across matching label sets), then interpolates inside
        the target bucket like Prometheus (:func:`bucket_quantile`, the
        same estimate as :meth:`Histogram.quantile`).  None when the
        family recorded no bucket series or saw no observations inside
        the window.
        """
        if not 0.0 <= q <= 1.0:
            raise QueryError(f"quantile must be in [0, 1], got {q}")
        by_bound: Dict[float, float] = {}
        for series_labels, ring in self.select(f"{name}_bucket", labels):
            le = series_labels.get("le")
            if le is None:
                continue
            bound = math.inf if le == "+Inf" else float(le)
            by_bound[bound] = by_bound.get(bound, 0.0) + max(
                0.0, ring.delta(range_s, now=now)
            )
        return bucket_quantile(q, sorted(by_bound.items()))

    def latest(self, name: str,
               labels: Optional[Dict[str, str]] = None) -> Optional[float]:
        """Sum of the newest sample of every matching series."""
        total = 0.0
        defined = False
        for _, ring in self.select(name, labels):
            newest = ring.latest()
            if newest is not None:
                total += newest[1]
                defined = True
        return total if defined else None

    # ------------------------------------------------------------------
    # The query endpoint
    # ------------------------------------------------------------------

    def query(self, expr: str, range_s: Optional[float] = None,
              now: Optional[float] = None) -> Dict[str, object]:
        """Evaluate one expression; the ``GET /query`` response body.

        Args:
            expr: ``name``, ``rate(name[Ns])``, ``delta(name[Ns])``, or
                ``quantile(q, name[Ns])``; selectors accept a
                ``{label=value}`` filter.
            range_s: overrides (or supplies) the ``[Ns]`` window.
            now: window end (newest recorded sample when None).

        Returns a dict with the evaluated ``value`` (None when
        undefined), the parsed ``fn``/``metric``/``range_s``, and a
        ``series`` list carrying each matching ring's in-window
        ``samples`` for sparklines.  Raises :class:`QueryError` on a
        malformed expression or an unknown series.
        """
        fn, q, name, labels, parsed_range = _parse_expr(expr)
        window = range_s if range_s is not None else parsed_range
        if fn != "latest" and window is None:
            raise QueryError(
                f"{fn}() needs a range: {fn}({name}[60s]) or &range=60"
            )
        lookup = f"{name}_bucket" if fn == "quantile" else name
        matched = self.select(lookup, labels)
        if not matched:
            known = ", ".join(self.series_names()) or "<none recorded yet>"
            raise QueryError(
                f"no recorded series matches {name!r}"
                + (f" with labels {labels}" if labels else "")
                + f"; recorded series: {known}"
            )
        value: Optional[float]
        if fn == "rate":
            assert window is not None
            value = self.rate(name, window, labels=labels, now=now)
        elif fn == "delta":
            assert window is not None
            value = self.delta(name, window, labels=labels, now=now)
        elif fn == "quantile":
            assert q is not None and window is not None
            value = self.quantile_over_time(
                q, name, window, labels=labels, now=now
            )
        else:
            value = self.latest(name, labels=labels)
        series = [
            {
                "labels": series_labels,
                "samples": [
                    [t, v] for t, v in ring.samples(range_s=window, now=now)
                ],
            }
            for series_labels, ring in matched
        ]
        return {
            "expr": expr,
            "fn": fn,
            "metric": name,
            "labels": labels,
            "quantile": q,
            "range_s": window,
            "value": value,
            "series": series,
        }


def _parse_selector(text: str) -> Tuple[str, Dict[str, str],
                                        Optional[float]]:
    match = _SELECTOR_RE.match(text)
    if match is None:
        raise QueryError(
            f"malformed selector {text.strip()!r} "
            "(want name, name{label=value}, or name[60s])"
        )
    range_s = match.group("range")
    return (
        match.group("name"),
        _parse_labels(match.group("labels")),
        float(range_s) if range_s is not None else None,
    )


def _parse_expr(expr: str) -> Tuple[
    str, Optional[float], str, Dict[str, str], Optional[float]
]:
    """``(fn, quantile, name, labels, range_s)`` of one expression."""
    if not expr or not expr.strip():
        raise QueryError("empty expression")
    match = _FUNC_RE.match(expr)
    if match is None:
        name, labels, range_s = _parse_selector(expr)
        return "latest", None, name, labels, range_s
    fn = match.group("fn")
    body = match.group("body").strip()
    if fn == "quantile":
        head, sep, tail = body.partition(",")
        if not sep:
            raise QueryError(
                "quantile() takes two arguments: quantile(0.99, name[60s])"
            )
        try:
            q = float(head.strip())
        except ValueError:
            raise QueryError(
                f"invalid quantile {head.strip()!r}"
            ) from None
        if not 0.0 <= q <= 1.0:
            raise QueryError(f"quantile must be in [0, 1], got {q}")
        name, labels, range_s = _parse_selector(tail)
        return fn, q, name, labels, range_s
    name, labels, range_s = _parse_selector(body)
    return fn, None, name, labels, range_s


def sparkline(values: Sequence[float], width: int = 32) -> str:
    """Render values as a unicode sparkline (``▁▂▃▄▅▆▇█``).

    The newest ``width`` values are kept; NaNs render as spaces; a flat
    series paints the mid-level glyph so "steady" and "empty" look
    different.
    """
    glyphs = "▁▂▃▄▅▆▇█"
    tail = [float(v) for v in values][-max(1, int(width)):]
    finite = [v for v in tail if math.isfinite(v)]
    if not finite:
        return ""
    low, high = min(finite), max(finite)
    span = high - low
    out = []
    for v in tail:
        if not math.isfinite(v):
            out.append(" ")
        elif span <= 0:
            out.append(glyphs[3])
        else:
            index = int((v - low) / span * (len(glyphs) - 1))
            out.append(glyphs[index])
    return "".join(out)
