"""Tests for the micro-batching scheduler and admission control."""

import threading
import time

import numpy as np
import pytest

from repro.serve.metrics import ServeMetrics
from repro.serve.scheduler import MicroBatcher, ShedRequest


def _echo_classify(features):
    """Labels each row with its own first-column value (for routing checks)."""
    return features[:, 0].astype(int), 1


class _GatedVote:
    """Echo classifier that records batch sizes and blocks until released."""

    def __init__(self):
        self.batch_rows = []
        self.entered = threading.Event()
        self.release = threading.Event()

    def __call__(self, features):
        self.batch_rows.append(features.shape[0])
        self.entered.set()
        self.release.wait(10.0)
        return _echo_classify(features)


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_batch": 0},
            {"n_workers": 0},
            {"max_queue_depth": 0},
            {"max_item_retries": -1},
        ],
    )
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            MicroBatcher(_echo_classify, **kwargs)

    def test_submit_before_start_raises(self):
        batcher = MicroBatcher(_echo_classify)
        with pytest.raises(RuntimeError, match="not started"):
            batcher.submit(np.zeros((1, 2)))

    def test_submit_after_stop_raises(self):
        batcher = MicroBatcher(_echo_classify)
        batcher.start()
        batcher.stop()
        with pytest.raises(RuntimeError, match="stopped"):
            batcher.submit(np.zeros((1, 2)))


class TestBatching:
    def test_results_route_back_to_the_right_request(self):
        with MicroBatcher(_echo_classify, max_batch=8,
                          n_workers=2) as batcher:
            items = [
                batcher.submit(np.full((rows, 3), value, dtype=float))
                for value, rows in [(10, 1), (20, 3), (30, 2)]
            ]
            for value, item in zip([10, 20, 30], items):
                labels, version = MicroBatcher.wait(item, timeout=5.0)
                assert labels.tolist() == [value] * item.features.shape[0]
                assert version == 1

    def test_concurrent_submissions_aggregate_into_batches(self):
        # The first vote blocks until all 63 other requests have queued
        # from 8 threads, so the drains that follow see the whole
        # backlog: no timer decides the batch shapes.
        vote = _GatedVote()
        n_requests = 64
        with MicroBatcher(vote, max_batch=16, n_workers=1,
                          max_queue_depth=n_requests) as batcher:
            items = [batcher.submit(np.full((1, 2), 0.0))]
            assert vote.entered.wait(5.0)
            barrier = threading.Barrier(8)

            def submitter(start):
                barrier.wait()
                for value in range(max(start, 1), start + 8):
                    items.append(
                        batcher.submit(np.full((1, 2), value, dtype=float))
                    )

            threads = [
                threading.Thread(target=submitter, args=(base * 8,))
                for base in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            vote.release.set()
            results = sorted(
                int(MicroBatcher.wait(item, timeout=10.0)[0][0])
                for item in items
            )
        assert results == list(range(n_requests))
        assert vote.batch_rows == [1, 16, 16, 16, 15]

    def test_oversized_request_runs_alone(self):
        sizes = []

        def classify(features):
            sizes.append(features.shape[0])
            return np.zeros(features.shape[0], dtype=int), 1

        with MicroBatcher(classify, max_batch=4, n_workers=1) as batcher:
            item = batcher.submit(np.zeros((10, 2)))
            labels, _ = MicroBatcher.wait(item, timeout=5.0)
        assert labels.size == 10
        assert sizes == [10]

    def test_metrics_see_batch_rows_and_waits(self):
        metrics = ServeMetrics()
        with MicroBatcher(_echo_classify, max_batch=8, n_workers=1,
                          metrics=metrics) as batcher:
            MicroBatcher.wait(batcher.submit(np.zeros((3, 2))), timeout=5.0)
        assert metrics.batch_size_histogram() == {4: 1}
        export = metrics.registry.to_dict()
        for family in ("repro_serve_batch_rows",
                       "repro_serve_queue_wait_seconds",
                       "repro_serve_batch_assembly_seconds"):
            [series] = export[family]["series"]
            assert series["count"] == 1, family


class TestWorkConserving:
    """An idle worker votes at once; backlog, not a timer, forms batches."""

    def test_lone_request_runs_alone_before_a_second_arrives(self):
        vote = _GatedVote()
        with MicroBatcher(vote, max_batch=64, n_workers=1) as batcher:
            first = batcher.submit(np.full((1, 2), 1.0))
            # The vote starts with nothing else queued: no co-rider wait.
            assert vote.entered.wait(5.0)
            assert vote.batch_rows == [1]
            second = batcher.submit(np.full((1, 2), 2.0))
            vote.release.set()
            assert MicroBatcher.wait(first, timeout=5.0)[0].tolist() == [1]
            assert MicroBatcher.wait(second, timeout=5.0)[0].tolist() == [2]
        assert vote.batch_rows == [1, 1]

    def test_burst_behind_a_blocked_vote_forms_large_batches(self):
        vote = _GatedVote()
        n_burst = 100
        with MicroBatcher(vote, max_batch=64, n_workers=1,
                          max_queue_depth=256) as batcher:
            lead = batcher.submit(np.full((1, 2), -1.0))
            assert vote.entered.wait(5.0)
            # A shed submit would raise ShedRequest here; the burst fits
            # under the watermark, so every request is queued.
            burst = [batcher.submit(np.full((1, 2), float(k)))
                     for k in range(n_burst)]
            assert batcher.queue_depth() == n_burst
            vote.release.set()
            assert MicroBatcher.wait(lead, timeout=5.0)[0].tolist() == [-1]
            labels = [int(MicroBatcher.wait(item, timeout=5.0)[0][0])
                      for item in burst]
        assert labels == list(range(n_burst))
        assert vote.batch_rows == [1, 64, 36]


class TestAdmissionControl:
    def test_shed_when_queue_at_watermark(self):
        blocker = threading.Event()

        def classify(features):
            blocker.wait(10.0)
            return features[:, 0].astype(int), 1

        batcher = MicroBatcher(classify, max_batch=1, n_workers=1,
                               max_queue_depth=2,
                               shed_retry_after_s=0.25)
        batcher.start()
        try:
            first = batcher.submit(np.zeros((1, 2)))  # occupies the worker
            # Wait for the worker to pick the first request up.
            deadline = time.monotonic() + 5.0
            while batcher.queue_depth() > 0 and time.monotonic() < deadline:
                time.sleep(0.001)
            batcher.submit(np.zeros((1, 2)))
            batcher.submit(np.zeros((1, 2)))
            with pytest.raises(ShedRequest) as excinfo:
                batcher.submit(np.zeros((1, 2)))
            assert excinfo.value.watermark == 2
            assert excinfo.value.retry_after == pytest.approx(0.25)
        finally:
            blocker.set()
            MicroBatcher.wait(first, timeout=5.0)
            batcher.stop()


class TestFailurePaths:
    def test_classify_error_propagates_to_waiters(self):
        def classify(features):
            raise ValueError("bad features")

        with MicroBatcher(classify, n_workers=1) as batcher:
            item = batcher.submit(np.zeros((1, 2)))
            with pytest.raises(ValueError, match="bad features"):
                MicroBatcher.wait(item, timeout=5.0)

    def test_stop_fails_undelivered_requests(self):
        release = threading.Event()

        def classify(features):
            release.wait(10.0)
            return features[:, 0].astype(int), 1

        batcher = MicroBatcher(classify, max_batch=1, n_workers=1,
                               max_queue_depth=8)
        batcher.start()
        busy = batcher.submit(np.zeros((1, 2)))
        queued = batcher.submit(np.zeros((1, 2)))
        release.set()
        batcher.stop()
        # Both must resolve one way or the other — nothing hangs.
        for item in (busy, queued):
            try:
                MicroBatcher.wait(item, timeout=5.0)
            except RuntimeError as exc:
                assert "stopped" in str(exc)

    def test_wait_timeout(self):
        def classify(features):
            time.sleep(0.2)
            return features[:, 0].astype(int), 1

        with MicroBatcher(classify, n_workers=1) as batcher:
            item = batcher.submit(np.zeros((1, 2)))
            with pytest.raises(TimeoutError):
                MicroBatcher.wait(item, timeout=0.01)
            MicroBatcher.wait(item, timeout=5.0)

    def test_stop_is_idempotent(self):
        batcher = MicroBatcher(_echo_classify, n_workers=2)
        batcher.start()
        batcher.stop()
        batcher.stop()
