"""Micro-batching scheduler with a worker pool and admission control.

The forest vote is cheaper per row when rows are stacked: its fixed
per-call numpy overhead is paid once per batch instead of once per
query.  The :class:`MicroBatcher` exploits that without a timer —
incoming requests land on a bounded queue; an idle worker takes the
first pending request plus whatever else is already queued, up to
``max_batch`` rows, stacks the feature rows, classifies them in one
call, and scatters the labels back to the waiting requests.  Batching
is work-conserving (Clipper's adaptive batching without its batch-size
controller): under load, batches grow from the backlog that queued
while the last vote ran; with no backlog, a lone request runs at once
instead of waiting for co-riders.

Admission control is the bounded queue itself: when the queue holds
``max_queue_depth`` requests the node is past its high-watermark and
further submissions are *shed* immediately with a suggested retry delay
(:class:`ShedRequest`) rather than queued into ever-growing latency —
fail fast and let the load balancer retry elsewhere.

Each executed batch records its rows and assembly time, and each request
its queue wait, on the batcher's
:class:`~repro.serve.metrics.ServeMetrics`.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.obs import get_logger, get_registry
from repro.relia.errors import WorkerCrash
from repro.relia.faults import fault_point
from repro.serve.metrics import ServeMetrics

#: Sentinel instructing a worker to exit.
_STOP = object()

# Rate-limited: shed/crash events arrive per-request under overload;
# 100 lines/s keeps the hot path and the sink safe (suppressed lines
# land in repro_logs_suppressed_total).
_log = get_logger("repro.serve.scheduler", sample=100.0)


class ShedRequest(RuntimeError):
    """Raised when admission control rejects a request (queue over watermark).

    Attributes:
        depth: queue depth observed at rejection.
        watermark: the configured admission limit.
        retry_after: suggested client back-off in seconds (maps to an
            HTTP ``Retry-After`` header).
    """

    def __init__(self, depth: int, watermark: int, retry_after: float) -> None:
        super().__init__(
            f"request shed: queue depth {depth} at watermark {watermark}; "
            f"retry after {retry_after:.3f}s"
        )
        self.depth = depth
        self.watermark = watermark
        self.retry_after = retry_after


class _WorkItem:
    """One submitted request: feature rows in, labels + version out."""

    __slots__ = ("features", "done", "labels", "version", "error",
                 "enqueued_at", "retries")

    def __init__(self, features: np.ndarray) -> None:
        self.features = features
        self.done = threading.Event()
        self.labels: Optional[np.ndarray] = None
        self.version: Optional[int] = None
        self.error: Optional[BaseException] = None
        self.enqueued_at = time.monotonic()
        self.retries = 0


class MicroBatcher:
    """Collect concurrent requests into vectorized classification batches.

    Args:
        classify_fn: callable ``(features) -> (labels, version)`` run once
            per batch on the stacked rows; must be thread-safe.
        max_batch: target rows per batch.  A drain stops adding requests
            once it holds at least this many rows (a single over-sized
            request still runs alone, never split).
        n_workers: classification worker threads.
        max_queue_depth: admission watermark — queued requests beyond
            which submissions are shed.
        shed_retry_after_s: back-off suggested to shed clients.
        metrics: records each executed batch's rows, each request's
            queue wait and each batch's assembly time (a private
            :class:`~repro.serve.metrics.ServeMetrics` by default).
        max_item_retries: times a request held by a crashed worker is
            requeued before it is failed with :class:`WorkerCrash` —
            a request is never dropped silently either way.
        on_worker_crash: optional callback ``(worker_index, error)`` per
            worker death (health hook; called before the respawn).
    """

    def __init__(
        self,
        classify_fn: Callable[[np.ndarray], Tuple[np.ndarray, int]],
        max_batch: int = 64,
        n_workers: int = 2,
        max_queue_depth: int = 256,
        shed_retry_after_s: float = 0.05,
        metrics: Optional[ServeMetrics] = None,
        max_item_retries: int = 2,
        on_worker_crash: Optional[Callable[[int, BaseException], None]] = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        if max_queue_depth < 1:
            raise ValueError(
                f"max_queue_depth must be >= 1, got {max_queue_depth}"
            )
        self._classify = classify_fn
        self.max_batch = int(max_batch)
        self.n_workers = int(n_workers)
        self.max_queue_depth = int(max_queue_depth)
        self.shed_retry_after_s = float(shed_retry_after_s)
        if max_item_retries < 0:
            raise ValueError(
                f"max_item_retries must be >= 0, got {max_item_retries}"
            )
        self.metrics = metrics if metrics is not None else ServeMetrics()
        self.max_item_retries = int(max_item_retries)
        self._on_worker_crash = on_worker_crash
        self._queue: "queue.Queue" = queue.Queue(maxsize=self.max_queue_depth)
        self._threads: List[threading.Thread] = []
        self._started = False
        self._stopped = False
        self._lifecycle = threading.Lock()
        self._next_worker = 0
        self._crashes = 0
        self._inflight: Dict[int, List[_WorkItem]] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def _spawn_worker(self) -> None:
        # Caller holds the lifecycle lock.
        index = self._next_worker
        self._next_worker += 1
        thread = threading.Thread(
            target=self._worker_main,
            args=(index,),
            name=f"repro-serve-worker-{index}",
            daemon=True,
        )
        thread.start()
        self._threads.append(thread)

    def start(self) -> None:
        """Spawn the worker pool (idempotent)."""
        with self._lifecycle:
            if self._started:
                return
            self._started = True
            for _ in range(self.n_workers):
                self._spawn_worker()

    def stop(self, timeout: float = 5.0) -> None:
        """Drain the pool: workers finish gathered batches, then exit.

        Requests still queued when the pool exits are failed with a
        ``RuntimeError`` so no caller blocks forever.
        """
        with self._lifecycle:
            if not self._started or self._stopped:
                self._stopped = True
                return
            self._stopped = True
        for _ in self._threads:
            self._queue.put(_STOP)
        for thread in self._threads:
            thread.join(timeout)
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is _STOP:
                continue
            item.error = RuntimeError("micro-batcher stopped")
            item.done.set()

    def __enter__(self) -> "MicroBatcher":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def queue_depth(self) -> int:
        """Requests currently queued (approximate, racy by nature)."""
        return self._queue.qsize()

    def submit(self, features: np.ndarray) -> _WorkItem:
        """Enqueue one request; sheds when the queue is at the watermark."""
        if self._stopped:
            raise RuntimeError("micro-batcher stopped")
        if not self._started:
            raise RuntimeError("micro-batcher not started")
        item = _WorkItem(np.asarray(features, dtype=float))
        try:
            self._queue.put_nowait(item)
        except queue.Full:
            raise ShedRequest(
                self._queue.qsize(),
                self.max_queue_depth,
                self.shed_retry_after_s,
            ) from None
        return item

    @staticmethod
    def wait(item: _WorkItem,
             timeout: Optional[float] = None) -> Tuple[np.ndarray, int]:
        """Block for one submitted request's ``(labels, version)``."""
        if not item.done.wait(timeout):
            raise TimeoutError("classification did not complete in time")
        if item.error is not None:
            raise item.error
        assert item.labels is not None and item.version is not None
        return item.labels, item.version

    # ------------------------------------------------------------------
    # Worker pool
    # ------------------------------------------------------------------

    def _gather(self, first: _WorkItem) -> Tuple[List[_WorkItem], bool]:
        """Drain what is already queued behind ``first``; never wait."""
        batch = [first]
        rows = first.features.shape[0]
        saw_stop = False
        while rows < self.max_batch:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is _STOP:
                # Preserve the sentinel count for the other workers, then
                # let this worker finish the batch it already holds.
                self._queue.put(_STOP)
                saw_stop = True
                break
            batch.append(item)
            rows += item.features.shape[0]
        return batch, saw_stop

    def _execute(self, batch: List[_WorkItem]) -> None:
        # Hand the classifier one C-contiguous block: the compiled-forest
        # kernel's level-order gathers stride row-major through the batch.
        stacked = np.ascontiguousarray(
            batch[0].features
            if len(batch) == 1
            else np.vstack([item.features for item in batch])
        )
        try:
            labels, version = self._classify(stacked)
        except BaseException as exc:  # propagate to every waiting caller
            for item in batch:
                item.error = exc
                item.done.set()
            return
        self.metrics.observe_batch(int(stacked.shape[0]))
        offset = 0
        for item in batch:
            rows = item.features.shape[0]
            item.labels = np.asarray(labels[offset:offset + rows])
            item.version = int(version)
            offset += rows
            item.done.set()

    def _worker_loop(self, index: int) -> None:
        while True:
            item = self._queue.get()
            if item is _STOP:
                return
            self._inflight[index] = [item]
            gather_start = time.monotonic()
            batch, saw_stop = self._gather(item)
            self._inflight[index] = batch
            # Chaos hook: a crash here kills the worker while it holds a
            # gathered batch — the supervisor must requeue every member.
            fault_point("serve.worker", worker=index)
            now = time.monotonic()
            self.metrics.observe_assembly(now - gather_start)
            for member in batch:
                self.metrics.observe_queue_wait(now - member.enqueued_at)
            self._execute(batch)
            self._inflight.pop(index, None)
            if saw_stop:
                return

    def _worker_main(self, index: int) -> None:
        """Worker entry point: run the loop, supervise its death.

        A crash (injected or real) with a gathered batch in hand must
        never drop requests silently: every in-flight item is either
        requeued for another worker (up to ``max_item_retries`` times)
        or failed with :class:`WorkerCrash` so its caller unblocks.  A
        replacement worker is spawned unless the pool is stopping.
        """
        try:
            self._worker_loop(index)
        except BaseException as exc:
            stranded = self._inflight.pop(index, [])
            with self._lifecycle:
                self._crashes += 1
                crashes = self._crashes
            get_registry().counter(
                "repro_worker_crashes_total",
                "Micro-batcher worker threads that died and were respawned",
            ).inc()
            _log.error(
                "worker_crashed", worker=index,
                error_type=type(exc).__name__, error=str(exc),
                stranded_requests=len(stranded), total_crashes=crashes,
            )
            for item in stranded:
                item.retries += 1
                if item.retries > self.max_item_retries:
                    item.error = WorkerCrash(
                        f"request abandoned after {item.retries} worker "
                        f"crashes"
                    )
                    item.done.set()
                    continue
                try:
                    self._queue.put_nowait(item)
                except queue.Full:
                    item.error = exc
                    item.done.set()
            if self._on_worker_crash is not None:
                self._on_worker_crash(index, exc)
            with self._lifecycle:
                if self._started and not self._stopped:
                    self._spawn_worker()

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------

    def alive_workers(self) -> int:
        """Worker threads currently alive."""
        with self._lifecycle:
            return sum(1 for t in self._threads if t.is_alive())

    def crash_count(self) -> int:
        """Worker deaths observed (and supervised) so far."""
        with self._lifecycle:
            return self._crashes
