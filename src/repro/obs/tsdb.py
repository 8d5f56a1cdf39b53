"""In-process metrics time series: ring buffers, rate/delta/quantile queries.

The :class:`~repro.obs.registry.MetricsRegistry` answers "what is the
cumulative value *now*"; this module remembers what the answer was.  A
:class:`MetricsTSDB` walks the registry on every :meth:`~MetricsTSDB.record`
call (the serve HTTP layer records once per scrape — no background
thread) and appends one ``(t, value)`` sample per concrete series into a
fixed-capacity :class:`SeriesRing` (storage only: the TSDB's one lock
guards every ring).  Histograms fan out into ``<name>_count``,
``<name>_sum``, and per-bound ``<name>_bucket`` rings so distribution
quantiles can be computed *over a trailing window* instead of over the
process lifetime.

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
    delta(repro_serve_queue_depth[30s])        # end - anchor of window
    quantile(0.99, repro_serve_request_latency_seconds[60s])

Selectors accept an optional ``{label=value,...}`` filter.  Every
window is read by one rule: its *end* is a series' latest sample at or
before ``now``, its *anchor* the latest sample at or before ``now -
range``, or the oldest sample when none is that old.  ``delta`` is end
minus anchor; ``rate`` is that over the time between the two samples
(None when the window holds one sample); ``quantile`` applies the
standard Prometheus linear interpolation (:func:`bucket_quantile`) to
the windowed bucket increases, each clamped at 0; and
:meth:`MetricsTSDB.increase` is the SLO engine's signed-selector
increase.  A recorded counter never falls (``Counter.inc`` rejects
negative amounts), so no reading needs a reset rule, and every
evaluated number is a pure function of the recorded samples — tests
hand-compute it.  A query's ``samples`` run from anchor to end, so its
value can be recomputed from them.

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
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

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
    """Fixed-capacity ring of ``(t, value)`` samples in time order.

    Storage only: the owning :class:`MetricsTSDB` appends to it and
    reads it under its one lock, and its records never go back in time.
    """

    __slots__ = ("capacity", "times", "values")

    def __init__(self, capacity: int = 720) -> None:
        if capacity < 2:
            raise ValueError(f"capacity must be >= 2, got {capacity}")
        self.capacity = int(capacity)
        self.times: List[float] = []
        self.values: List[float] = []

    def append(self, t: float, value: float) -> None:
        """Record one sample, evicting the oldest past ``capacity``."""
        self.times.append(t)
        self.values.append(value)
        if len(self.times) > self.capacity:
            del self.times[:-self.capacity]
            del self.values[:-self.capacity]

    def __len__(self) -> int:
        return len(self.times)


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

#: One signed selector of an :meth:`MetricsTSDB.increase` sum:
#: ``(sign, series name, label filter)``.
_Term = Tuple[float, str, Dict[str, str]]


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
        # Reentrant, so a reader holding it can select its series.
        self._lock = threading.RLock()
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
        depths = [
            capacity for rule_name, wanted, capacity in self._retained
            if rule_name == name and wanted.items() <= dict(labels).items()
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
        wanted = (labels or {}).items()
        with self._lock:
            matched = sorted(
                (key_labels, ring)
                for (key_name, key_labels), ring in self._series.items()
                if key_name == name and wanted <= dict(key_labels).items()
            )
        return [(dict(key_labels), ring) for key_labels, ring in matched]

    def _windows(self, name: str, labels: Optional[Dict[str, str]],
                 range_s: float, now: Optional[float]) -> Iterator[
                     Tuple[Dict[str, str], SeriesRing, int, int]]:
        """``(labels, ring, anchor, end)`` of each matching series' window.

        The one window rule every query reads through: ``end`` indexes
        the latest sample at or before ``now`` (the series' newest when
        None), ``anchor`` the latest sample at or before ``now -
        range_s``, or the oldest sample when none is that old.  A series
        with no sample at or before ``now`` has no window and is
        skipped.  The caller holds the lock.
        """
        for series_labels, ring in self.select(name, labels):
            times = ring.times
            t = times[-1] if now is None else float(now)
            end = bisect.bisect_right(times, t) - 1
            if end >= 0:
                anchor = max(0, bisect.bisect_right(times, t - range_s) - 1)
                yield series_labels, ring, anchor, end

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def rate(self, name: str, range_s: float,
             labels: Optional[Dict[str, str]] = None,
             now: Optional[float] = None) -> Optional[float]:
        """Summed ``(end - anchor) / (t_end - t_anchor)`` of matching series.

        None when no matching series' window holds two samples apart in
        time (a rate over a single point is undefined, not zero).
        """
        with self._lock:
            rates = [
                (ring.values[end] - ring.values[anchor])
                / (ring.times[end] - ring.times[anchor])
                for _, ring, anchor, end in self._windows(
                    name, labels, range_s, now
                )
                if ring.times[end] > ring.times[anchor]
            ]
        return sum(rates) if rates else None

    def delta(self, name: str, range_s: float,
              labels: Optional[Dict[str, str]] = None,
              now: Optional[float] = None) -> Optional[float]:
        """Summed ``end - anchor`` across matching series (None if none)."""
        with self._lock:
            deltas = [
                ring.values[end] - ring.values[anchor]
                for _, ring, anchor, end in self._windows(
                    name, labels, range_s, now
                )
            ]
        return sum(deltas) if deltas else None

    def increase(self, terms: Sequence[_Term], range_s: float,
                 now: Optional[float] = None) -> float:
        """Window increase of a signed sum of ``(sign, name, labels)`` terms.

        The sum is read at every matching series' anchor and at its end,
        each reading clamped at 0, and the increase clamped at 0: a
        ``total - bad`` sum whose ``bad`` outruns ``total`` reads 0.
        This is how the SLO engine reads its good and total events.
        """
        anchor_sum = end_sum = 0.0
        with self._lock:
            for sign, name, labels in terms:
                for _, ring, anchor, end in self._windows(
                    name, labels, range_s, now
                ):
                    anchor_sum += sign * ring.values[anchor]
                    end_sum += sign * ring.values[end]
        return max(0.0, max(0.0, end_sum) - max(0.0, anchor_sum))

    def quantile_over_time(self, q: float, name: str, range_s: float,
                           labels: Optional[Dict[str, str]] = None,
                           now: Optional[float] = None) -> Optional[float]:
        """Quantile of a histogram family's *windowed* distribution.

        Computes the per-bucket count increase over the trailing window
        (summed across matching label sets, each clamped at 0), then
        interpolates inside the target bucket like Prometheus
        (:func:`bucket_quantile`).  None when the family recorded no
        bucket series or saw no observations inside the window.
        """
        if not 0.0 <= q <= 1.0:
            raise QueryError(f"quantile must be in [0, 1], got {q}")
        by_bound: Dict[float, float] = {}
        with self._lock:
            for series_labels, ring, anchor, end in self._windows(
                f"{name}_bucket", labels, range_s, now
            ):
                le = series_labels.get("le")
                if le is None:
                    continue
                bound = math.inf if le == "+Inf" else float(le)
                by_bound[bound] = by_bound.get(bound, 0.0) + max(
                    0.0, ring.values[end] - ring.values[anchor]
                )
        return bucket_quantile(q, sorted(by_bound.items()))

    def latest(self, name: str,
               labels: Optional[Dict[str, str]] = None) -> Optional[float]:
        """Sum of the newest sample of every matching series."""
        with self._lock:
            newest = [ring.values[-1] for _, ring in self.select(name, labels)]
        return sum(newest) if newest else None

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
        ``series`` list carrying each matching series' window samples,
        anchor to end (the whole history up to ``now`` for a bare
        selector), for sparklines.  Raises :class:`QueryError` on a
        malformed expression or an unknown series.
        """
        fn, q, name, labels, parsed_range = _parse_expr(expr)
        window = range_s if range_s is not None else parsed_range
        if fn != "latest" and window is None:
            raise QueryError(
                f"{fn}() needs a range: {fn}({name}[60s]) or &range=60"
            )
        lookup = f"{name}_bucket" if fn == "quantile" else name
        if not self.select(lookup, labels):
            known = ", ".join(self.series_names()) or "<none recorded yet>"
            raise QueryError(
                f"no recorded series matches {name!r}"
                + (f" with labels {labels}" if labels else "")
                + f"; recorded series: {known}"
            )
        if fn == "latest":
            value = self.latest(name, labels=labels)
        elif fn == "quantile":
            assert q is not None and window is not None
            value = self.quantile_over_time(q, name, window, labels, now)
        else:
            assert window is not None
            evaluate = self.rate if fn == "rate" else self.delta
            value = evaluate(name, window, labels=labels, now=now)
        with self._lock:
            series = [
                {
                    "labels": series_labels,
                    "samples": [
                        [t, v] for t, v in zip(ring.times[anchor:end + 1],
                                               ring.values[anchor:end + 1])
                    ],
                }
                for series_labels, ring, anchor, end in self._windows(
                    lookup, labels, math.inf if window is None else window,
                    now,
                )
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
