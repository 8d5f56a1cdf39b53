"""Process-wide metrics registry: counters, gauges, histograms, exposition.

A zero-dependency miniature of the Prometheus client-library data model.
A :class:`MetricsRegistry` owns named metric *families*; a family owns
one child time-series per label-value combination (an unlabeled family
owns exactly one child).  Families are get-or-create: asking twice for
``registry.counter("requests_total")`` returns the same object, which is
what lets independently constructed components (the stream profiler, the
serving facade, the pipeline stages) share one exposition surface
without passing handles around.

Exposition comes in two shapes:

* :meth:`MetricsRegistry.prometheus_text` — the Prometheus text format
  (``# HELP`` / ``# TYPE`` headers, cumulative histogram buckets with an
  ``+Inf`` bound, escaped label values), scrapeable by any Prometheus-
  compatible collector via the serve endpoint's ``GET /metrics``;
* :meth:`MetricsRegistry.to_dict` — a JSON-serializable snapshot for
  dashboards, tests, and the ``repro-icn obs dump`` CLI.

Histograms additionally retain **exemplars**: ``observe(value,
exemplar=trace_id)`` keeps the trace id of the latest observation per
bucket, so a latency spike visible in the exposition links straight to a
replayable trace in the :class:`~repro.obs.trace.TraceStore` (rendered
in the OpenMetrics ``# {trace_id="..."} value`` suffix of bucket lines
and as an ``exemplars`` list in the JSON snapshot).

Every mutation takes the owning family's lock, so the registry is safe
under the serving layer's worker/handler thread mix.
"""

from __future__ import annotations

import math
from itertools import accumulate
import re
import threading
import time
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Exemplar",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "bucket_quantile",
    "get_registry",
    "set_registry",
]

#: Default histogram bucket upper bounds (seconds-flavoured, like
#: Prometheus' defaults), spanning sub-millisecond to ten seconds.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Bucket bounds of the serve request-latency histograms (seconds);
#: the latency SLO counts its good events at one of these bounds.
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0,
)

#: The histogram every :class:`~repro.obs.trace.span` observes into.
STAGE_METRIC = "repro_stage_seconds"

#: Bucket bounds of :data:`STAGE_METRIC`: the pipeline stages span ~1 ms
#: (RCA) to tens of seconds (SHAP at scale).
STAGE_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0, 60.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", r"\\").replace("\n", r"\n").replace('"', r'\"')
    )


def _format_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def bucket_quantile(
    q: float, buckets: Sequence[Tuple[float, float]]
) -> Optional[float]:
    """Quantile ``q`` in [0, 1] of ``(upper_bound, cumulative_count)``
    pairs ending at ``+Inf`` (:meth:`Histogram.cumulative_buckets`).

    Prometheus' ``histogram_quantile``: linear interpolation inside the
    bucket holding the target rank, the lowest bucket starting at 0 and
    the ``+Inf`` bucket clamped to the highest finite bound.  None when
    the buckets hold no observation.
    """
    total = buckets[-1][1] if buckets else 0
    if total <= 0:
        return None
    target = q * total
    previous_bound = 0.0
    previous_count = 0.0
    for bound, count in buckets:
        if count >= target:
            if math.isinf(bound):
                return previous_bound
            if count == previous_count:
                return bound
            fraction = (target - previous_count) / (count - previous_count)
            return previous_bound + fraction * (bound - previous_bound)
        previous_bound = 0.0 if math.isinf(bound) else bound
        previous_count = count
    return previous_bound


class _Child:
    """One concrete time-series (a family member with fixed label values)."""

    __slots__ = ("_lock",)

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock


class Counter(_Child):
    """Monotonically increasing value."""

    __slots__ = ("_value",)

    def __init__(self, lock: threading.Lock) -> None:
        super().__init__(lock)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError(f"counters can only increase, got {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        """Current cumulative value."""
        with self._lock:
            return self._value


class Gauge(_Child):
    """Value that can go up, down, or be computed at scrape time."""

    __slots__ = ("_value", "_fn")

    def __init__(self, lock: threading.Lock) -> None:
        super().__init__(lock)
        self._value = 0.0
        self._fn: Optional[Callable[[], float]] = None

    def set(self, value: float) -> None:
        """Pin the gauge to ``value``."""
        with self._lock:
            self._value = float(value)
            self._fn = None

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (may be negative)."""
        with self._lock:
            self._value += amount
            self._fn = None

    def dec(self, amount: float = 1.0) -> None:
        """Subtract ``amount``."""
        self.inc(-amount)

    def set_function(self, fn: Callable[[], float]) -> None:
        """Compute the gauge by calling ``fn`` at every scrape."""
        with self._lock:
            self._fn = fn

    @property
    def value(self) -> float:
        """Current value (calls the scrape function if one is set)."""
        with self._lock:
            fn = self._fn
            if fn is None:
                return self._value
        return float(fn())


class Exemplar(NamedTuple):
    """One retained worst-case observation with its trace correlation.

    Attributes:
        value: the observed value (e.g. request latency in seconds).
        trace_id: trace id active when the observation was made — the
            join key into the :class:`~repro.obs.trace.TraceStore`.
        bucket_le: upper bound of the histogram bucket the observation
            fell into (``math.inf`` for the overflow bucket).
        ts: ``time.monotonic()`` at observation time — exemplar slots
            keep the latest observation per bucket indefinitely, so
            consumers that need *recent* worst cases (alert exemplar
            capture) filter on this instead of trusting slot contents.
    """

    value: float
    trace_id: str
    bucket_le: float
    ts: float = 0.0


class Histogram(_Child):
    """Bucketed distribution with sum, count, and per-bucket exemplars.

    Passing ``exemplar=<trace_id>`` to :meth:`observe` retains that
    trace id in the slot of the bucket the value fell into (latest
    observation wins per bucket).  Because high-latency observations
    land in high buckets, the retained exemplars of the top non-empty
    buckets *are* the recent worst-case observations —
    :meth:`worst_exemplars` walks them bound-descending so a p99 spike
    on a dashboard points at a replayable trace.
    """

    __slots__ = ("buckets", "_counts", "_sum", "_count", "_exemplars")

    def __init__(self, lock: threading.Lock,
                 buckets: Sequence[float]) -> None:
        super().__init__(lock)
        self.buckets = tuple(buckets)
        self._counts = [0] * (len(self.buckets) + 1)  # last slot = +Inf
        self._sum = 0.0
        self._count = 0
        self._exemplars: List[Optional[Exemplar]] = (
            [None] * (len(self.buckets) + 1)
        )

    def observe(self, value: float, exemplar: Optional[str] = None) -> None:
        """Fold one observation into the distribution.

        Args:
            value: the observed value.
            exemplar: optional trace id to retain for this observation's
                bucket (the hot-path cost when None is a single branch).
        """
        value = float(value)
        slot = len(self.buckets)
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                slot = index
                break
        with self._lock:
            self._counts[slot] += 1
            self._sum += value
            self._count += 1
            if exemplar is not None:
                bound = (
                    self.buckets[slot] if slot < len(self.buckets)
                    else math.inf
                )
                self._exemplars[slot] = Exemplar(
                    value, str(exemplar), bound, time.monotonic()
                )

    def exemplars(self) -> List[Exemplar]:
        """Retained exemplars in bucket order (empty slots skipped)."""
        with self._lock:
            return [e for e in self._exemplars if e is not None]

    def worst_exemplars(self, k: int = 1) -> List[Exemplar]:
        """Up to ``k`` retained exemplars, highest bucket first.

        The first entry is the most recent observation in the worst
        non-empty bucket — the trace to open when a latency quantile
        spikes.
        """
        with self._lock:
            worst = [e for e in reversed(self._exemplars) if e is not None]
        return worst[:max(0, int(k))]

    @property
    def count(self) -> int:
        """Total observations."""
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        """Sum of all observed values."""
        with self._lock:
            return self._sum

    def snapshot(self) -> Tuple[List[int], float, int]:
        """Consistent ``(per-bucket counts, sum, count)`` triple."""
        with self._lock:
            return list(self._counts), self._sum, self._count

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs ending at ``+Inf``."""
        counts, _, _ = self.snapshot()
        return list(zip(self.buckets + (math.inf,), accumulate(counts)))


class _Family:
    """A named metric with a fixed type, help string, and label schema."""

    def __init__(self, name: str, help_text: str, kind: str,
                 labelnames: Sequence[str],
                 buckets: Optional[Sequence[float]] = None) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        self.name = name
        self.help_text = help_text
        self.kind = kind
        self.labelnames = tuple(labelnames)
        self.buckets = tuple(buckets) if buckets is not None else None
        self._lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], _Child] = {}
        self._unlabeled: Optional[_Child] = None

    def _make_child(self) -> _Child:
        if self.kind == "counter":
            return Counter(self._lock)
        if self.kind == "gauge":
            return Gauge(self._lock)
        assert self.buckets is not None
        return Histogram(self._lock, self.buckets)

    def labels(self, *values, **kwargs):
        """The child series for one label-value combination (created lazily)."""
        if values and kwargs:
            raise ValueError("pass label values positionally or by name, not both")
        if kwargs:
            try:
                values = tuple(str(kwargs[name]) for name in self.labelnames)
            except KeyError as exc:
                raise ValueError(
                    f"metric {self.name!r} is missing label {exc.args[0]!r}"
                ) from None
            if len(kwargs) != len(self.labelnames):
                extra = set(kwargs) - set(self.labelnames)
                raise ValueError(
                    f"metric {self.name!r} got unexpected labels {sorted(extra)}"
                )
        else:
            values = tuple(str(v) for v in values)
        if len(values) != len(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.labelnames}, "
                f"got {len(values)} values"
            )
        with self._lock:
            child = self._children.get(values)
            if child is None:
                child = self._make_child()
                self._children[values] = child
            return child

    def _default_child(self):
        child = self._unlabeled  # bound once: it never changes
        if child is None:
            if self.labelnames:
                raise ValueError(
                    f"metric {self.name!r} is labeled {self.labelnames}; "
                    f"call .labels(...) first"
                )
            child = self._unlabeled = self.labels()
        return child

    # Unlabeled convenience: family.inc() / .set() / .observe() delegate
    # to the single implicit child.

    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._default_child().dec(amount)

    def set(self, value: float) -> None:
        self._default_child().set(value)

    def set_function(self, fn: Callable[[], float]) -> None:
        self._default_child().set_function(fn)

    def observe(self, value: float, exemplar: Optional[str] = None) -> None:
        self._default_child().observe(value, exemplar=exemplar)

    def exemplars(self) -> List["Exemplar"]:
        return self._default_child().exemplars()

    def worst_exemplars(self, k: int = 1) -> List["Exemplar"]:
        return self._default_child().worst_exemplars(k)

    @property
    def value(self) -> float:
        return self._default_child().value

    @property
    def count(self) -> int:
        return self._default_child().count

    @property
    def sum(self) -> float:
        return self._default_child().sum

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        return self._default_child().cumulative_buckets()

    def series(self) -> List[Tuple[Tuple[str, ...], _Child]]:
        """All ``(label_values, child)`` pairs, label-sorted for stable output."""
        with self._lock:
            return sorted(self._children.items())


class MetricsRegistry:
    """Thread-safe collection of metric families with exposition."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, _Family] = {}
        self._stages: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # Family constructors (get-or-create)
    # ------------------------------------------------------------------

    def _family(self, name: str, help_text: str, kind: str,
                labelnames: Sequence[str],
                buckets: Optional[Sequence[float]] = None) -> _Family:
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = _Family(name, help_text, kind, labelnames, buckets)
                self._families[name] = family
                return family
        if family.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as {family.kind}, "
                f"requested {kind}"
            )
        if family.labelnames != tuple(labelnames):
            raise ValueError(
                f"metric {name!r} already registered with labels "
                f"{family.labelnames}, requested {tuple(labelnames)}"
            )
        return family

    def counter(self, name: str, help_text: str = "",
                labelnames: Sequence[str] = ()) -> _Family:
        """Get or create a counter family."""
        return self._family(name, help_text, "counter", labelnames)

    def gauge(self, name: str, help_text: str = "",
              labelnames: Sequence[str] = ()) -> _Family:
        """Get or create a gauge family."""
        return self._family(name, help_text, "gauge", labelnames)

    def histogram(self, name: str, help_text: str = "",
                  labelnames: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> _Family:
        """Get or create a histogram family with the given bucket bounds."""
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        family = self._family(name, help_text, "histogram", labelnames,
                              buckets=bounds)
        if family.buckets != bounds:
            raise ValueError(
                f"metric {name!r} already registered with buckets "
                f"{family.buckets}"
            )
        return family

    def stage(self, name: str) -> Histogram:
        """The ``repro_stage_seconds{stage=name}`` child spans observe into,
        cached until :meth:`reset` or :meth:`unregister` drops its family."""
        child = self._stages.get(name)
        if child is None:
            family = self.histogram(
                STAGE_METRIC, "Wall-clock seconds per instrumented stage",
                labelnames=("stage",), buckets=STAGE_BUCKETS,
            )
            child = family.labels(name)
            with self._lock:
                # A reset that raced the lookup must not be cached over.
                if self._families.get(STAGE_METRIC) is family:
                    self._stages[name] = child
        return child

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def families(self) -> List[_Family]:
        """All registered families in name order."""
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    def get(self, name: str) -> Optional[_Family]:
        """The family registered under ``name``, or None."""
        with self._lock:
            return self._families.get(name)

    def unregister(self, name: str) -> None:
        """Drop one family (missing names are ignored)."""
        with self._lock:
            self._families.pop(name, None)
            self._stages.clear()

    def reset(self) -> None:
        """Drop every family (test isolation helper)."""
        with self._lock:
            self._families.clear()
            self._stages.clear()

    # ------------------------------------------------------------------
    # Exposition
    # ------------------------------------------------------------------

    def prometheus_text(self) -> str:
        """Render every family in the Prometheus text exposition format."""
        lines: List[str] = []
        for family in self.families():
            lines.append(f"# HELP {family.name} {family.help_text}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for label_values, child in family.series():
                base = _label_string(family.labelnames, label_values)
                if family.kind == "histogram":
                    assert isinstance(child, Histogram)
                    _, total, count = child.snapshot()
                    by_bound = {e.bucket_le: e for e in child.exemplars()}
                    for bound, cumulative in child.cumulative_buckets():
                        le = _label_string(
                            family.labelnames + ("le",),
                            label_values + (_format_value(bound),),
                        )
                        line = f"{family.name}_bucket{le} {cumulative}"
                        hit = by_bound.get(bound)
                        if hit is not None:
                            # OpenMetrics exemplar syntax; scrapers that
                            # speak only the classic text format should
                            # strip everything after " # ".
                            line += (
                                f' # {{trace_id="{hit.trace_id}"}}'
                                f" {_format_value(hit.value)}"
                            )
                        lines.append(line)
                    lines.append(
                        f"{family.name}_sum{base} {_format_value(total)}"
                    )
                    lines.append(f"{family.name}_count{base} {count}")
                else:
                    lines.append(
                        f"{family.name}{base} {_format_value(child.value)}"
                    )
        return "\n".join(lines) + "\n" if lines else ""

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable snapshot of every family."""
        out: Dict[str, object] = {}
        for family in self.families():
            entry: Dict[str, object] = {
                "type": family.kind,
                "help": family.help_text,
            }
            series = []
            for label_values, child in family.series():
                labels = dict(zip(family.labelnames, label_values))
                if family.kind == "histogram":
                    assert isinstance(child, Histogram)
                    counts, total, count = child.snapshot()
                    series.append({
                        "labels": labels,
                        "buckets": {
                            _format_value(bound): cumulative
                            for bound, cumulative
                            in child.cumulative_buckets()
                        },
                        "sum": total,
                        "count": count,
                        "exemplars": [
                            {
                                "bucket": _format_value(e.bucket_le),
                                "value": e.value,
                                "trace_id": e.trace_id,
                            }
                            for e in child.exemplars()
                        ],
                    })
                else:
                    series.append({"labels": labels, "value": child.value})
            entry["series"] = series
            out[family.name] = entry
        return out


def _label_string(names: Iterable[str], values: Iterable[str]) -> str:
    pairs = [
        f'{name}="{_escape_label_value(value)}"'
        for name, value in zip(names, values)
    ]
    return "{" + ",".join(pairs) + "}" if pairs else ""


#: The process-wide default registry shared by all instrumented layers.
_default_registry = MetricsRegistry()
_default_lock = threading.Lock()


def get_registry() -> MetricsRegistry:
    """The process-wide default :class:`MetricsRegistry`."""
    return _default_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide registry; returns the previous one."""
    global _default_registry
    with _default_lock:
        previous = _default_registry
        _default_registry = registry
    return previous
