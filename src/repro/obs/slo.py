"""Declarative SLIs/SLOs with rolling windows and error-budget accounting.

The metrics registry *emits* signals; this module *judges* them.  An
:class:`SLO` declares a service-level objective — "99.9% of requests
succeed", "99% of requests finish under 250 ms" — as two short sums of
metric selectors (``good`` and ``total``) over the existing
counter/histogram families, a target fraction, and a budget window.
The :class:`SLOEngine` reads both sums as window increases of one
:class:`~repro.obs.tsdb.MetricsTSDB` history — the same anchor-to-end
rule as the TSDB's ``rate``/``delta``/``quantile`` queries, read through
:meth:`~repro.obs.tsdb.MetricsTSDB.increase` — and derives the three
quantities an operator actually acts on:

* **compliance** — the good/total ratio over a rolling window;
* **burn rate** — how many times faster than "exactly on target" the
  error budget is being consumed over a window (burn 1.0 spends the
  whole budget in exactly the budget window; burn 14.4 spends a 30-day
  budget in ~2 days — the classic fast-page threshold);
* **error-budget remaining** — the fraction of the window's allowed
  bad events still unspent (negative when overspent).

A selector is a TSDB series selector (``name`` or
``name{label=value}``) and a leading ``-`` subtracts it, so an error
rate is ``good=("requests_total", "-errors_total")`` and a latency SLI
counts a histogram's bucket against its count::

    good=('repro_serve_request_latency_seconds_bucket{le="0.25"}',)
    total=("repro_serve_request_latency_seconds_count",)

:func:`default_slos` declares the standard set over the live serving /
streaming / resilience families — availability, p99 latency,
degraded-answer rate, shed rate, stream quarantine rate, and
checkpoint-failure rate — which is what ``repro-icn serve`` exposes at
``GET /slo`` and what the chaos scenario asserts against.

Everything takes explicit ``now`` timestamps (seconds on any monotonic
timeline), so scripted scenarios and tests drive the engine through a
synthetic clock and get bit-identical verdicts on every run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.obs.registry import LATENCY_BUCKETS, _format_value
from repro.obs.tsdb import MetricsTSDB, _parse_selector, _Term

__all__ = ["SLO", "SLOEngine", "default_slos"]

#: An SLO side as declared: one selector, or several to sum.
_Selectors = Union[str, Sequence[str]]

#: The request-latency histogram the serve SLOs judge.
_LATENCY = "repro_serve_request_latency_seconds"


def _parse_terms(selectors: Sequence[str]) -> List[_Term]:
    """Parse ``[-]name{labels}`` selectors (no ``[Ns]`` range)."""
    terms: List[_Term] = []
    for text in selectors:
        body = text.strip()
        sign = -1.0 if body.startswith("-") else 1.0
        name, labels, range_s = _parse_selector(body.lstrip("-"))
        if range_s is not None:
            raise ValueError(
                f"SLO selector {text!r} takes no range; the window is the "
                f"SLO's"
            )
        terms.append((sign, name, labels))
    return terms


@dataclass(frozen=True)
class SLO:
    """One declarative service-level objective.

    Attributes:
        name: stable identifier (the ``slo`` label of every exported
            series).
        objective: target good/total fraction in (0, 1), e.g. 0.999.
        window_s: error-budget window in seconds (the period the budget
            is spread over).
        good: selectors whose signed sum counts good events (a single
            string is one selector).
        total: selectors whose signed sum counts all events.
        kind: informational category (``availability`` / ``latency`` /
            ``quality``) carried into reports.
        description: human-readable one-liner.
        exemplar_metric: histogram family whose worst exemplars explain
            violations of this SLO (e.g. the request-latency histogram)
            — alerts attach its trace ids when they fire.
    """

    name: str
    objective: float
    window_s: float
    good: _Selectors
    total: _Selectors
    kind: str = "availability"
    description: str = ""
    exemplar_metric: Optional[str] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.objective < 1.0:
            raise ValueError(
                f"objective must be in (0, 1), got {self.objective}"
            )
        if self.window_s <= 0:
            raise ValueError(
                f"window_s must be positive, got {self.window_s}"
            )
        for side in ("good", "total"):
            value = getattr(self, side)
            selectors = (value,) if isinstance(value, str) else tuple(value)
            _parse_terms(selectors)  # malformed selectors fail here
            object.__setattr__(self, side, selectors)


class SLOEngine:
    """Judges SLOs over one metric history: compliance / burn / budget.

    Call :meth:`tick` periodically (the serve HTTP layer ticks on every
    scrape; scripted scenarios tick with explicit synthetic timestamps).
    A tick records the TSDB once and refreshes the exported gauges from
    one read of each SLO's window.  Every window is read by the TSDB's
    one rule (:meth:`MetricsTSDB.increase`): each series from its
    latest sample at or before the window start (or its oldest sample)
    to its latest at or before ``now``, so every derived value is a
    pure function of the recorded samples.

    Args:
        slos: objectives to track.
        tsdb: the history to record and read; the ``repro_slo_*``
            gauges go to its registry, and its clock is the default
            ``now``.
        max_samples: ring depth of the series the SLOs read; at one
            scrape per 15 s the default holds ~3.5 days — enough for a
            3-day burn window.  Every other series keeps the TSDB's own
            capacity.
    """

    def __init__(
        self,
        slos: Sequence[SLO],
        tsdb: MetricsTSDB,
        max_samples: int = 20000,
    ) -> None:
        names = [slo.name for slo in slos]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate SLO names in {names}")
        self.tsdb = tsdb
        self.registry = tsdb.registry
        self.max_samples = int(max_samples)
        self._slos: Dict[str, SLO] = {slo.name: slo for slo in slos}
        self._terms: Dict[str, Tuple[List[_Term], List[_Term]]] = {
            slo.name: (_parse_terms(slo.good), _parse_terms(slo.total))
            for slo in slos
        }
        for good, total in self._terms.values():
            for _, series, labels in good + total:
                tsdb.retain(series, labels, self.max_samples)
        objective_gauge = self.registry.gauge(
            "repro_slo_objective", "Declared SLO target fraction",
            labelnames=("slo",),
        )
        self._compliance_gauge = self.registry.gauge(
            "repro_slo_compliance",
            "Good-event fraction over the SLO's budget window",
            labelnames=("slo",),
        )
        self._budget_gauge = self.registry.gauge(
            "repro_slo_error_budget_remaining",
            "Unspent fraction of the SLO's error budget "
            "(negative when overspent)",
            labelnames=("slo",),
        )
        for slo in slos:
            objective_gauge.labels(slo=slo.name).set(slo.objective)

    @property
    def slos(self) -> List[SLO]:
        """The tracked objectives, in declaration order."""
        return list(self._slos.values())

    def get(self, name: str) -> SLO:
        """The SLO registered under ``name`` (KeyError when unknown)."""
        return self._slos[name]

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------

    def tick(self, now: Optional[float] = None) -> float:
        """Record the history once and refresh the gauges; returns ``now``.

        An explicit ``now`` behind the last record raises
        ``ValueError`` (:meth:`MetricsTSDB.record`) before anything
        changes.  An implicit tick the TSDB coalesces — too soon after
        the last record, or behind it — judges the gauges at the last
        record, so concurrent scrapes never fail one another.  Each
        SLO's window is read once for both gauges.
        """
        self.tsdb.record(now)
        t = float(now) if now is not None else self.tsdb.last_record
        assert t is not None
        for name, slo in self._slos.items():
            compliance, budget = _judge(
                slo.objective, *self._events(name, slo.window_s, t)
            )
            self._compliance_gauge.labels(slo=name).set(compliance)
            self._budget_gauge.labels(slo=name).set(budget)
        return t

    def _events(self, name: str, window_s: float,
                now: Optional[float]) -> Tuple[float, float]:
        """``(good, total)`` event increases over the trailing window
        (:meth:`MetricsTSDB.increase` of each side's selectors)."""
        t = float(now) if now is not None else self.tsdb.clock()
        good, total = self._terms[name]
        return (self.tsdb.increase(good, window_s, now=t),
                self.tsdb.increase(total, window_s, now=t))

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------

    def compliance(self, name: str, window_s: Optional[float] = None,
                   now: Optional[float] = None) -> float:
        """Good fraction over the trailing window (1.0 with no events)."""
        slo = self._slos[name]
        return _judge(slo.objective, *self._events(
            name, window_s if window_s is not None else slo.window_s, now
        ))[0]

    def burn_rate(self, name: str, window_s: float,
                  now: Optional[float] = None) -> float:
        """Budget consumption speed over the window, in budgets-per-window.

        1.0 means "errors arriving exactly at the rate the objective
        allows"; N means the budget is being spent N times too fast.
        """
        error_fraction = 1.0 - self.compliance(name, window_s, now)
        return error_fraction / (1.0 - self._slos[name].objective)

    def budget_remaining(self, name: str,
                         now: Optional[float] = None) -> float:
        """Unspent error-budget fraction over the SLO's own window.

        1.0 with no bad events, 0.0 exactly at the objective, negative
        when overspent.  With no traffic in the window the budget is
        untouched (1.0).
        """
        slo = self._slos[name]
        return _judge(slo.objective, *self._events(name, slo.window_s, now))[1]

    def n_samples(self, name: str) -> int:
        """Records behind one SLO's windows (a series not yet seen reads 0)."""
        self._slos[name]  # KeyError for an unknown SLO
        return min(self.tsdb.records, max(2, self.max_samples))

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def report(self, now: Optional[float] = None) -> Dict[str, object]:
        """JSON-serializable budget report (the ``GET /slo`` body)."""
        t = float(now) if now is not None else self.tsdb.clock()
        slos = []
        for name, slo in self._slos.items():
            compliance, budget = _judge(
                slo.objective, *self._events(name, slo.window_s, t)
            )
            entry: Dict[str, object] = {
                "name": name,
                "kind": slo.kind,
                "description": slo.description,
                "objective": slo.objective,
                "window_s": slo.window_s,
                "compliance": compliance,
                "error_budget_remaining": budget,
                "n_samples": self.n_samples(name),
            }
            slos.append(entry)
        return {"slos": slos}


def _judge(objective: float, good: float,
           total: float) -> Tuple[float, float]:
    """``(compliance, error budget remaining)`` of one window's events.

    Compliance is the good fraction; the budget is 1.0 with no bad
    events, 0.0 exactly at the objective and negative when overspent.
    A window without events reads ``(1.0, 1.0)``.
    """
    if total <= 0:
        return 1.0, 1.0
    return (min(1.0, good / total),
            1.0 - (total - good) / ((1.0 - objective) * total))


def default_slos(latency_threshold_s: float = 0.25,
                 window_s: float = 3600.0) -> List[SLO]:
    """The standard objective set over the live metric families.

    Covers the serving path (availability, p99-style latency, degraded
    answers, shed rate), the streaming path (quarantine rate), and the
    checkpoint path (corruption rate).  ``window_s`` defaults to one
    hour — long enough to smooth scrape noise, short enough that a
    replay scenario exercises a full budget cycle.  The latency
    threshold snaps up to the smallest request-latency bucket bound at
    or above it (cumulative counts exist only at bucket bounds).
    """
    threshold = float(latency_threshold_s)
    bound = next((b for b in LATENCY_BUCKETS if b >= threshold), math.inf)
    requests = "repro_serve_requests_total"
    folded = "repro_stream_batches_folded_total"
    loads = "repro_checkpoint_loads_total"
    # (name, objective, kind, good, total, exemplar_metric, description)
    table: List[Tuple[str, float, str, _Selectors, _Selectors,
                      Optional[str], str]] = [
        ("serve-availability", 0.999, "availability",
         (requests, "-repro_serve_errors_total"), requests, _LATENCY,
         "Requests answered without server-side error"),
        ("serve-latency", 0.99, "latency",
         f'{_LATENCY}_bucket{{le="{_format_value(bound)}"}}',
         f"{_LATENCY}_count", _LATENCY,
         f"Requests finishing within {threshold * 1e3:.0f} ms"),
        ("serve-degraded", 0.95, "quality",
         (requests, "-repro_degraded_answers_total"), requests, _LATENCY,
         "Requests answered at full fidelity (not the nearest-centroid "
         "fallback)"),
        ("serve-shed", 0.99, "availability",
         requests, (requests, "repro_serve_shed_requests_total"), None,
         "Requests admitted past load shedding"),
        ("stream-quarantine", 0.99, "quality",
         folded, (folded, "repro_quarantined_batches_total"), None,
         "Ingested batches folded (not quarantined)"),
        # Per load *attempt*, not per save: corruptions increment on
        # every failed load, so a retry loop hammering one corrupt file
        # would otherwise push corruptions past saves and clamp
        # compliance to 0% off a single bad checkpoint.  Each retry adds
        # one attempt and one corruption, so the ratio stays an honest
        # failure rate.
        ("checkpoint-integrity", 0.95, "quality",
         (loads, "-repro_checkpoint_corruptions_total"), loads, None,
         "Checkpoint load attempts that validate without corruption"),
    ]
    return [
        SLO(name=name, objective=objective, window_s=window_s, good=good,
            total=total, kind=kind, description=description,
            exemplar_metric=exemplar)
        for name, objective, kind, good, total, exemplar, description
        in table
    ]
