"""Hierarchical tracing spans with a ring-buffer store and Chrome export.

The tracing layer answers "where did the time go" for one run of any
execution mode — batch pipeline, stream ingestion, or query serving —
without external dependencies.  ``with span("cluster.fit"):`` opens a
timed span; spans opened inside it become children (a per-thread stack
tracks the active span), a span whose body raises still closes and is
recorded with ``error=true``, and finished spans land in a bounded
:class:`TraceStore` ring buffer so a long-running server never grows
its trace memory unboundedly.

A span is also the one timing primitive: traced or not, it observes
its wall-clock into ``repro_stage_seconds{stage=<name>}``.  Recording
is **off by default**, and then a span costs two clock reads and one
histogram observation, so instrumentation stays in hot paths
(``python -m bench run --trace 1`` reports the cost of recording as
``bench.trace_overhead``).  Turn it on with :func:`enable_tracing`,
then export with :meth:`TraceStore.export_chrome` — the output is
Chrome ``trace_event`` JSON that loads directly into
``chrome://tracing`` / Perfetto for flamegraph viewing.

Correlation: :func:`current_trace_id` / :func:`current_span_id` expose
the active ids so structured log lines (:mod:`repro.obs.logs`) and HTTP
error bodies can be joined back to their trace.

Propagation: a trace no longer ends at a process or socket boundary.
:func:`current_context` captures the active span as a serializable
:class:`TraceContext`; :func:`inject` writes it into a headers mapping
as a W3C ``traceparent`` value and :func:`extract` reads it back on the
far side, where ``span(..., parent=ctx)`` parents the local span tree
onto the caller's trace.  Spans recorded in a child process travel back
via :meth:`TraceStore.export_spans` / :meth:`TraceStore.merge`, so one
Chrome/Perfetto export shows the request crossing every boundary with
parent links intact.
"""

from __future__ import annotations

import itertools
import json
import os
import re
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, MutableMapping, Optional, Union

from repro.obs.registry import MetricsRegistry, get_registry

__all__ = [
    "DEFAULT_TRACE_CAPACITY",
    "SpanRecord",
    "TraceContext",
    "TraceStore",
    "current_context",
    "current_span",
    "current_span_id",
    "current_trace_id",
    "disable_tracing",
    "enable_tracing",
    "extract",
    "get_trace_store",
    "inject",
    "span",
    "tracing_enabled",
]

#: Default ring-buffer capacity (finished spans retained).
DEFAULT_TRACE_CAPACITY = 8192

# Monotonic id source; next() on itertools.count is atomic under the GIL.
_ids = itertools.count(1)


def _new_id() -> str:
    return f"{next(_ids):012x}"


#: Native id width — ids are lowercase hex, at least this many chars.
_ID_WIDTH = 12

#: ``traceparent`` header grammar (W3C Trace Context, version 00).
_TRACEPARENT_RE = re.compile(
    r"^([0-9a-f]{2})-([0-9a-f]{32})-([0-9a-f]{16})-([0-9a-f]{2})$"
)

#: Canonical header name (HTTP header lookup is case-insensitive).
TRACEPARENT_HEADER = "traceparent"


def _canonical_id(hex_id: str) -> str:
    """Strip zero-padding back to the native width (>= ``_ID_WIDTH``).

    :meth:`TraceContext.to_traceparent` left-pads ids with zeros to the
    W3C field widths; canonicalizing on extraction makes the round trip
    exact, so a server-side span carries byte-identical ids to the
    client span that caused it.  Foreign ids wider than the native
    width are kept verbatim.
    """
    stripped = hex_id.lstrip("0") or "0"
    return stripped.rjust(_ID_WIDTH, "0")


@dataclass(frozen=True)
class TraceContext:
    """A serializable reference to one span, for crossing boundaries.

    Attributes:
        trace_id: the trace the span belongs to (lowercase hex).
        span_id: the span itself (lowercase hex) — the parent of
            whatever the receiving side opens with ``span(parent=...)``.
        sampled: W3C sampled flag; carried through verbatim.
    """

    trace_id: str
    span_id: str
    sampled: bool = True

    def __post_init__(self) -> None:
        for name, value in (("trace_id", self.trace_id),
                            ("span_id", self.span_id)):
            if not value or not re.fullmatch(r"[0-9a-f]+", value):
                raise ValueError(
                    f"{name} must be non-empty lowercase hex, got {value!r}"
                )

    def to_traceparent(self) -> str:
        """This context as a W3C ``traceparent`` header value.

        Ids are left-padded with zeros to the mandated widths (32 hex
        chars for the trace id, 16 for the span id); ids wider than a
        field keep their low-order chars.
        """
        trace = self.trace_id.rjust(32, "0")[-32:]
        parent = self.span_id.rjust(16, "0")[-16:]
        flags = "01" if self.sampled else "00"
        return f"00-{trace}-{parent}-{flags}"

    @classmethod
    def from_traceparent(cls, header: str) -> Optional["TraceContext"]:
        """Parse a ``traceparent`` value; None when malformed.

        Per the W3C spec: version ``ff`` and all-zero trace or span ids
        are invalid.  Unknown (forward-compatible) versions are accepted
        as long as the version-00 prefix shape parses.
        """
        match = _TRACEPARENT_RE.match(header.strip().lower())
        if match is None:
            return None
        version, trace, parent, flags = match.groups()
        if version == "ff":
            return None
        if set(trace) == {"0"} or set(parent) == {"0"}:
            return None
        return cls(
            trace_id=_canonical_id(trace),
            span_id=_canonical_id(parent),
            sampled=bool(int(flags, 16) & 0x01),
        )


def current_context() -> Optional["TraceContext"]:
    """The innermost open span on this thread as a :class:`TraceContext`."""
    active = current_span()
    if active is None:
        return None
    return TraceContext(trace_id=active.trace_id, span_id=active.span_id)


def inject(
    headers: MutableMapping[str, str],
    context: Optional[TraceContext] = None,
) -> MutableMapping[str, str]:
    """Write ``context`` (or the active span's) into a headers mapping.

    A no-op when there is no context to propagate — callers can inject
    unconditionally and pay nothing while tracing is off.  Returns the
    mapping for chaining.
    """
    ctx = context if context is not None else current_context()
    if ctx is not None:
        headers[TRACEPARENT_HEADER] = ctx.to_traceparent()
    return headers


def extract(headers: Mapping[str, str]) -> Optional[TraceContext]:
    """Read a :class:`TraceContext` from a headers mapping, or None.

    Header-name lookup is case-insensitive (HTTP headers arrive in
    arbitrary casing); malformed values are ignored rather than raised,
    because a propagation bug in a caller must never fail the request.
    """
    value = headers.get(TRACEPARENT_HEADER)
    if value is None:
        for name in headers:
            if name.lower() == TRACEPARENT_HEADER:
                value = headers[name]
                break
    if value is None:
        return None
    return TraceContext.from_traceparent(value)


@dataclass
class SpanRecord:
    """One finished (or still-open) span.

    Attributes:
        name: the stage name, e.g. ``"pipeline.cluster"``.
        trace_id: id shared by every span of one root-to-leaf tree.
        span_id: this span's unique id.
        parent_id: enclosing span's id (None for roots).
        thread_id: OS thread ident the span ran on.
        start_s: start offset in seconds on the store's monotonic clock.
        duration_s: wall-clock seconds (0.0 while still open).
        attributes: user attributes; ``error``/``error_type`` are set
            automatically when the span body raises.
        error: True when the span closed by exception.
        pid: OS process id the span ran in — preserved through
            :meth:`to_dict` / :meth:`from_dict` so spans merged from a
            child process keep their own Chrome/Perfetto process lane.
    """

    name: str
    trace_id: str
    span_id: str
    parent_id: Optional[str]
    thread_id: int
    start_s: float
    duration_s: float = 0.0
    attributes: Dict[str, object] = field(default_factory=dict)
    error: bool = False
    pid: int = field(default_factory=os.getpid)

    def to_chrome_event(self) -> Dict[str, object]:
        """This span as one Chrome ``trace_event`` complete ("X") event.

        Every event's ``args`` carries ``trace_id`` / ``span_id`` (and
        ``parent_id`` for non-roots), so an exported trace file is
        greppable by the ids that appear in logs, alert payloads, and
        histogram exemplars.
        """
        args = dict(self.attributes)
        args["trace_id"] = self.trace_id
        args["span_id"] = self.span_id
        if self.parent_id is not None:
            args["parent_id"] = self.parent_id
        return {
            "name": self.name,
            "cat": "repro" + (",error" if self.error else ""),
            "ph": "X",
            "ts": self.start_s * 1e6,
            "dur": self.duration_s * 1e6,
            "pid": self.pid,
            "tid": self.thread_id,
            "args": args,
        }

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form (the cross-process wire format)."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "thread_id": self.thread_id,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "attributes": dict(self.attributes),
            "error": self.error,
            "pid": self.pid,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "SpanRecord":
        """Rebuild a span from :meth:`to_dict` output.

        Raises:
            ValueError: when a required field is missing or mistyped.
        """
        try:
            attributes = payload.get("attributes") or {}
            if not isinstance(attributes, dict):
                raise TypeError("attributes must be a mapping")
            parent = payload.get("parent_id")
            return cls(
                name=str(payload["name"]),
                trace_id=str(payload["trace_id"]),
                span_id=str(payload["span_id"]),
                parent_id=None if parent is None else str(parent),
                thread_id=int(payload.get("thread_id", 0)),  # type: ignore[arg-type]
                start_s=float(payload.get("start_s", 0.0)),  # type: ignore[arg-type]
                duration_s=float(payload.get("duration_s", 0.0)),  # type: ignore[arg-type]
                attributes=dict(attributes),
                error=bool(payload.get("error", False)),
                pid=int(payload.get("pid", 0)),  # type: ignore[arg-type]
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"not a serialized span: {exc}") from None


class TraceStore:
    """Bounded ring buffer of finished spans."""

    def __init__(self, capacity: int = DEFAULT_TRACE_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._spans: deque = deque(maxlen=self.capacity)
        self._lock = threading.Lock()
        self._epoch = time.perf_counter()

    def now(self) -> float:
        """Seconds since this store's epoch (the trace timeline)."""
        return time.perf_counter() - self._epoch

    def add(self, record: SpanRecord) -> None:
        """Append one finished span (oldest spans fall off at capacity)."""
        with self._lock:
            self._spans.append(record)

    def spans(self) -> List[SpanRecord]:
        """Retained spans, oldest first."""
        with self._lock:
            return list(self._spans)

    def clear(self) -> None:
        """Drop every retained span."""
        with self._lock:
            self._spans.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def to_chrome(self) -> Dict[str, object]:
        """The retained spans as a Chrome ``trace_event`` JSON object."""
        return {
            "traceEvents": [s.to_chrome_event() for s in self.spans()],
            "displayTimeUnit": "ms",
        }

    def export_chrome(self, path: Union[str, "os.PathLike[str]"]) -> int:
        """Write Chrome trace JSON to ``path``; returns the span count."""
        trace = self.to_chrome()
        events = trace["traceEvents"]
        assert isinstance(events, list)
        with open(path, "w") as handle:
            json.dump(trace, handle, indent=2, default=str)
            handle.write("\n")
        return len(events)

    # ------------------------------------------------------------------
    # Cross-process assembly
    # ------------------------------------------------------------------

    def to_payload(self) -> Dict[str, object]:
        """Retained spans as a JSON-serializable transfer payload."""
        return {"spans": [record.to_dict() for record in self.spans()]}

    def export_spans(self, path: Union[str, "os.PathLike[str]"]) -> int:
        """Write the transfer payload to ``path``; returns the span count.

        The complement of :meth:`merge_file`: a child process (a future
        shared-memory serve worker, a subprocess in a test) exports its
        spans on exit and the parent folds them into its own store, so
        one Chrome export covers the whole process tree.
        """
        payload = self.to_payload()
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        spans = payload["spans"]
        assert isinstance(spans, list)
        return len(spans)

    def merge(
        self,
        spans: Union[Mapping[str, object], Iterable[Mapping[str, object]],
                     Iterable[SpanRecord]],
    ) -> int:
        """Fold spans exported elsewhere into this store; returns count added.

        Accepts a :meth:`to_payload` mapping, an iterable of serialized
        span dicts, or :class:`SpanRecord` objects directly.  Spans
        whose ``span_id`` is already retained are skipped, so merging
        the same child export twice is idempotent.  Merged spans keep
        their ids verbatim — parent links that cross the process
        boundary (a child span parented on this process's trace via
        ``span(parent=...)``) stay intact in the Chrome export.
        """
        if isinstance(spans, Mapping):
            listed = spans.get("spans", [])
            if not isinstance(listed, list):
                raise ValueError("payload 'spans' must be a list")
            entries: List[object] = list(listed)
        else:
            entries = list(spans)
        with self._lock:
            known = {record.span_id for record in self._spans}
        added = 0
        for entry in entries:
            record = (
                entry if isinstance(entry, SpanRecord)
                else SpanRecord.from_dict(entry)  # type: ignore[arg-type]
            )
            if record.span_id in known:
                continue
            known.add(record.span_id)
            self.add(record)
            added += 1
        return added

    def merge_file(self, path: Union[str, "os.PathLike[str]"]) -> int:
        """Merge a :meth:`export_spans` file; returns spans added."""
        with open(path) as handle:
            payload = json.load(handle)
        if not isinstance(payload, dict):
            raise ValueError(f"{path}: not a span export payload")
        return self.merge(payload)


class _TraceState:
    """Module-global tracing switches (one per process)."""

    __slots__ = ("enabled", "store")

    def __init__(self) -> None:
        self.enabled = False
        self.store = TraceStore()


_state = _TraceState()
_local = threading.local()


def _stack() -> List[SpanRecord]:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = []
        _local.stack = stack
    return stack


def enable_tracing(capacity: Optional[int] = None,
                   clear: bool = False) -> TraceStore:
    """Turn span recording on; returns the active :class:`TraceStore`.

    Args:
        capacity: replace the store with a fresh one of this capacity.
        clear: drop previously retained spans (implied by ``capacity``).
    """
    if capacity is not None:
        _state.store = TraceStore(capacity)
    elif clear:
        _state.store.clear()
    _state.enabled = True
    return _state.store


def disable_tracing() -> None:
    """Turn span recording off (retained spans stay exportable)."""
    _state.enabled = False


def tracing_enabled() -> bool:
    """Whether spans are currently being recorded."""
    return _state.enabled


def get_trace_store() -> TraceStore:
    """The active span ring buffer."""
    return _state.store


def current_span() -> Optional[SpanRecord]:
    """The innermost open span on this thread, or None."""
    stack = getattr(_local, "stack", None)
    return stack[-1] if stack else None


def current_trace_id() -> Optional[str]:
    """Trace id of the active span tree on this thread, or None."""
    active = current_span()
    return active.trace_id if active is not None else None


def current_span_id() -> Optional[str]:
    """Span id of the innermost open span on this thread, or None."""
    active = current_span()
    return active.span_id if active is not None else None


class span:
    """Context manager timing one named stage as a hierarchical span.

    ``with span("pipeline.rca", rows=n):`` observes the body's
    wall-clock into ``repro_stage_seconds{stage=<name>}`` on
    ``registry`` (the default registry when None), traced or not.  With
    tracing enabled it also records a :class:`SpanRecord` whose trace
    id becomes the histogram exemplar.  Nesting is automatic: spans
    opened inside the body become children.  If the body raises, the
    span still closes, gains ``error=true`` plus an ``error_type``
    attribute, and the exception propagates unchanged.

    ``parent`` accepts an explicit :class:`TraceContext` — extracted
    from an incoming HTTP header, handed across a thread pool, or
    shipped to a worker process — and overrides the thread-local stack,
    so the opened span joins the caller's trace instead of rooting a
    new one.  Spans opened *inside* the body still nest normally.

    Implemented as a plain class rather than ``@contextmanager`` so the
    hot path costs no generator frame.
    """

    __slots__ = ("name", "attributes", "record", "parent", "registry",
                 "_start")

    def __init__(self, name: str, parent: Optional[TraceContext] = None,
                 registry: Optional[MetricsRegistry] = None,
                 **attributes) -> None:
        self.name = name
        self.attributes = attributes
        self.parent = parent
        self.registry = registry
        self.record: Optional[SpanRecord] = None
        self._start = 0.0

    def __enter__(self) -> Optional[SpanRecord]:
        if _state.enabled:
            stack = _stack()
            if self.parent is not None:
                trace_id = self.parent.trace_id
                parent_id: Optional[str] = self.parent.span_id
            else:
                parent = stack[-1] if stack else None
                trace_id = parent.trace_id if parent else _new_id()
                parent_id = parent.span_id if parent else None
            record = SpanRecord(
                name=self.name,
                trace_id=trace_id,
                span_id=_new_id(),
                parent_id=parent_id,
                thread_id=threading.get_ident(),
                start_s=_state.store.now(),
                attributes=dict(self.attributes),
            )
            stack.append(record)
            self.record = record
        self._start = time.perf_counter()
        return self.record

    def __exit__(self, exc_type, exc, tb) -> bool:
        elapsed = time.perf_counter() - self._start
        record = self.record
        trace_id = None
        if record is not None:
            trace_id = record.trace_id
            stack = _stack()
            # The record may not be stack-top if the body leaked spans
            # across threads; remove defensively rather than corrupting
            # siblings.
            if stack and stack[-1] is record:
                stack.pop()
            elif record in stack:
                stack.remove(record)
            record.duration_s = elapsed
            if exc_type is not None:
                record.error = True
                record.attributes["error"] = True
                record.attributes["error_type"] = exc_type.__name__
            _state.store.add(record)
        registry = self.registry if self.registry is not None else get_registry()
        registry.stage(self.name).observe(elapsed, exemplar=trace_id)
        return False
